"""Reference work: converts measured CPU times to reference seconds.

The benchmark times the CPU time (user + system) of the process doing
the work, not wall time. coxforge is single-threaded and does no I/O
to speak of, so on an idle machine the two agree; on a shared one,
wall time also counts the time the process waits for a CPU that other
tenants hold.

The CPU itself also runs slower or faster for tens of seconds to
minutes at a time, when other tenants contend for its caches. Every
timed stretch of work is therefore followed by a fixed piece of
pure-Python work, `reference`, run a few times and timed the same way,
in the process that times the work. A CPU time T measured between two
mean reference times r1 and r2 is reported as

    T * REF_SECONDS / ((r1 + r2) / 2)

in reference seconds: the time T would take on a CPU that runs the
reference in REF_SECONDS, about what it takes on a quiet 2-core host
with Python 3.11.7. A slow spell slows the work and the reference next
to it alike, and drops out of the ratio. A change to coxforge does not
touch the reference, so it shows in full.

The reference does what coxforge's hot loops do: it builds tuples,
looks them up in dicts, filters lists and adds fractions.
"""

import time
from fractions import Fraction

REF_SECONDS = 0.02
REF_SIZE = 12000
# reference time spent per second of timed work
REF_SHARE = 0.1


def reference():
    table = {}
    acc = 0
    for i in range(REF_SIZE):
        key = (i, i + 1, i * 3 % 17)
        table[key] = table.get(key[1:], 0) + sum(key)
        acc += len([x for x in key if x & 1])
    total = Fraction(0)
    for i in range(1, REF_SIZE // 10):
        total += Fraction(i, i + 7)
    return acc + total.numerator % 7


def reference_time():
    t0 = time.thread_time()
    reference()
    return time.thread_time() - t0


class Meter:
    """Times the reference between stretches of work. `scale(elapsed)`
    times it again, over about REF_SHARE of `elapsed` and at least once,
    and returns the factor that converts the `elapsed` CPU seconds
    measured since the previous call into reference seconds."""

    def __init__(self):
        reference()
        self.last = reference_time()

    def scale(self, elapsed):
        runs = max(1, round(REF_SHARE * elapsed / REF_SECONDS))
        now = sum(reference_time() for _ in range(runs)) / runs
        factor = REF_SECONDS / ((self.last + now) / 2)
        self.last = now
        return factor
