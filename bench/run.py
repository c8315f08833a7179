"""coxforge benchmark: one workload, one run, one JSON line.

    python3 bench/run.py --workload verify|sweep|query --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout; it imports coxforge from `src/`
and needs nothing beyond the standard library. Each workload is a
closed loop: one operation at a time, started from this process, with
at most one worker process alive beside it. A run repeats whole rounds
of the same operations until S seconds have passed (at least
MIN_ROUNDS[workload] rounds, or one with tracing), then checks every
output with `checks.py`, which does not use coxforge.

Times are CPU times of the process doing the work, converted to
reference seconds by `speed.py` so that the machine's drifts in speed
drop out. Each operation's time is its median over the run's rounds.
With --trace 0 the run first times its set-up SETUP_REPEATS times,
keeps the median, and reports the end-to-end metrics. With --trace 1
it also runs every operation traced, next to its untraced run (CLI
commands back to back, a sweep case's cells one pass after the
other), and reports the per-layer metrics per traced round, with the
tracing overhead (traced minus untraced round time). The last line of
standard output is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import checks
import inputs
import speed
import tracing

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".bench_run")
SETUP_REPEATS = 9
# verify's four long cases need three rounds for a steady median;
# query's 50 commands and sweep's 2080 cells average out in two
MIN_ROUNDS = {"verify": 3, "query": 2, "sweep": 2}
# a run is stopped this long after --seconds have passed
RUN_MARGIN_S = 150
END_TO_END_UNITS = {
    "setup_s": "s",
    "round_s": "s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "peak_rss_mb": "MB",
    "steps_per_s": "steps/s",
}


class Runner:
    """Starts the processes of one run, one at a time."""

    def __init__(self, workdir):
        self.workdir = workdir
        # a fixed hash seed keeps set and dict orders, and so the work
        # done, the same from one process to the next
        self.env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
        self.proc = None
        self.meter = speed.Meter()

    def spawn(self, argv):
        """Run one process to its end. Returns (exit code, stdout,
        its CPU time in reference seconds, its wall time in seconds,
        peak RSS in KiB)."""
        out_path = os.path.join(self.workdir, "stdout")
        with open(out_path, "w+b") as out:
            t0 = time.perf_counter()
            self.proc = subprocess.Popen(
                argv, stdout=out, stderr=subprocess.DEVNULL, env=self.env, cwd=ROOT
            )
            _, status, usage = os.wait4(self.proc.pid, 0)
            wall = time.perf_counter() - t0
            elapsed = usage.ru_utime + usage.ru_stime
            elapsed *= self.meter.scale(elapsed)
            code = os.waitstatus_to_exitcode(status)
            self.proc.returncode = code
            self.proc = None
            out.seek(0)
            text = out.read().decode("utf-8")
        return code, text, elapsed, wall, usage.ru_maxrss

    def stop(self):
        if self.proc is not None and self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()

    def child(self, *args):
        return [sys.executable, os.path.join(BENCH_DIR, "child.py")] + [str(a) for a in args]


class Tally:
    """Outcomes of a run's operations. An operation is identified by
    its place in the round; its times are kept apart for untraced and
    traced rounds."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.samples = {False: {}, True: {}}
        self.steps = {}
        self.rss_kib = 0
        self.span_totals = {}
        self.traced_rounds = 0

    def add(self, index, elapsed, traced=False, failed=False, problems=(), steps=None):
        self.attempted += 1
        self.failed += bool(failed)
        self.problems += problems
        self.samples[traced].setdefault(index, []).append(elapsed)
        if steps is not None and not failed:
            self.steps[index] = steps

    def add_spans(self, metrics):
        for key, value in metrics.items():
            self.span_totals[key] = self.span_totals.get(key, 0) + value

    def op_times(self, traced=False):
        """Each operation's median time over the run's rounds."""
        return {i: statistics.median(ts) for i, ts in self.samples[traced].items()}

    def end_to_end(self, setup_s):
        times = self.op_times()
        per_op = list(times.values())
        step_time = sum(times[i] for i in self.steps)
        return {
            "setup_s": setup_s,
            "round_s": sum(per_op),
            "op_p50_s": statistics.median(per_op),
            "op_p90_s": statistics.quantiles(per_op, n=10, method="inclusive")[-1],
            "peak_rss_mb": self.rss_kib / 1024.0,
            "steps_per_s": sum(self.steps.values()) / step_time if step_time else 0.0,
        }

    def per_layer(self):
        per_round = {k: v / self.traced_rounds for k, v in self.span_totals.items()}
        values = tracing.layer_metrics(per_round)
        values["tracing.overhead_s"] = sum(self.op_times(True).values()) - sum(
            self.op_times().values()
        )
        values.setdefault("process.startup_s", 0.0)
        return values


def setup_time(runner, workload, seed):
    times = []
    for _ in range(SETUP_REPEATS):
        code, _, elapsed, _, _ = runner.spawn(runner.child("setup", workload, seed))
        if code != 0:
            raise RuntimeError("set-up failed with exit %d" % code)
        times.append(elapsed)
    return statistics.median(times)


def _carries_steps(argv):
    return argv[0] == "reduce" or (argv[0] == "verify" and "--caps" not in argv)


def cli_rounds(runner, stream, min_rounds, seconds, trace, tally):
    """Rounds of CLI commands, each in a fresh process: `python3 -m
    coxforge.cli` untraced, `child.py cli` traced. With tracing, each
    command runs untraced and then traced, back to back, so that a
    drift in machine speed does not enter the overhead."""
    verdicts = {}
    started = time.perf_counter()
    rounds = 0
    min_rounds = 1 if trace else min_rounds
    while rounds < min_rounds or time.perf_counter() - started < seconds:
        for index, argv in enumerate(stream):
            for traced in (False, True) if trace else (False,):
                cli_run(runner, index, argv, traced, verdicts, tally)
        tally.traced_rounds += trace
        rounds += 1


def cli_run(runner, index, argv, traced, verdicts, tally):
    """Run one command once, check its output and record it."""
    if traced:
        stats_path = os.path.join(runner.workdir, "spans.json")
        code, out, elapsed, wall, rss = runner.spawn(runner.child("cli", stats_path, *argv))
        with open(stats_path, encoding="utf-8") as fh:
            spans = json.load(fh)
        tally.add_spans(spans["metrics"])
        tally.add_spans({"process.startup_s": wall - spans["covered_s"]})
    else:
        code, out, elapsed, _, rss = runner.spawn([sys.executable, "-m", "coxforge.cli"] + list(argv))
        tally.rss_kib = max(tally.rss_kib, rss)
    key = (index, code, out)
    if key not in verdicts:
        verdicts[key] = checks.check_command(argv, code, out)
    failed, problems, steps = verdicts[key]
    tally.add(index, elapsed, traced, failed, problems, steps if _carries_steps(argv) else None)


def sweep_rounds(runner, seed, seconds, trace, tally):
    """Rounds of sweep cells in one worker process, which warms up
    first. Round 0 records the traces that the checks read."""
    cells_path = os.path.join(runner.workdir, "cells.json")
    out_path = os.path.join(runner.workdir, "sweep.jsonl")
    with open(cells_path, "w", encoding="utf-8") as fh:
        json.dump(inputs.sweep_cells(seed), fh)
    code, _, _, _, rss = runner.spawn(
        runner.child("sweep", cells_path, out_path, seconds, MIN_ROUNDS["sweep"], int(trace))
    )
    if code != 0:
        raise RuntimeError("sweep worker failed with exit %d" % code)
    tally.rss_kib = rss
    first = None
    with open(out_path, encoding="utf-8") as fh:
        for line in fh:
            kind, record = json.loads(line)
            if kind == "cell":
                if record["done"]:
                    steps = [(k, c, a, None, None) for k, c, a in record["steps"]]
                    tally.problems += checks.check_trace(
                        record["case"], record["cell"], steps, record["terminal"],
                        measures=record["measures"],
                    )
            elif kind == "round":
                if first is None:
                    first = record["results"]
                if record["results"] != first:
                    tally.problems.append("sweep: a round's results differ from the first round's")
                traced = record["traced"]
                for index, (elapsed, (done, steps, _)) in enumerate(zip(record["times"], record["results"])):
                    tally.add(index, elapsed, traced, not done, (), steps)
                tally.traced_rounds += traced
            elif kind == "trace":
                tally.add_spans(record["metrics"])


def run(workload, seed, seconds, trace):
    os.makedirs(RUN_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=RUN_DIR)
    runner = Runner(workdir)
    tally = Tally()
    try:
        setup_s = None if trace else setup_time(runner, workload, seed)
        if workload == "sweep":
            sweep_rounds(runner, seed, seconds, trace, tally)
        elif workload == "verify":
            stream = [["verify", "--case", case] for case in inputs.VERIFY_CASES]
            cli_rounds(runner, stream, MIN_ROUNDS[workload], seconds, trace, tally)
        else:
            cli_rounds(runner, inputs.query_stream(seed), MIN_ROUNDS[workload], seconds, trace, tally)
    finally:
        runner.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    if trace:
        values = tally.per_layer()
        metrics = {n: {"value": v, "unit": tracing.metric_unit(n)} for n, v in values.items()}
    else:
        values = tally.end_to_end(setup_s)
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END_UNITS.items()}
    for problem in tally.problems[:20]:
        print("check failed: %s" % problem, file=sys.stderr)
    return {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def _on_alarm(signum, frame):
    raise TimeoutError("run exceeded --seconds by %d s" % RUN_MARGIN_S)


def _on_term(signum, frame):
    # unwinds through run(), which stops the running child
    raise SystemExit(128 + signum)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["verify", "sweep", "query"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "coxforge", "cli.py")):
        print("error: no coxforge sources under %s" % SRC, file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_term)
    signal.alarm(int(args.seconds) + RUN_MARGIN_S)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, TimeoutError, OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
    for name, metric in result["metrics"].items():
        print("%-44s %14.6g %s" % (name, metric["value"], metric["unit"]))
    print(
        "attempted %d, failed %d, correct %s"
        % (result["attempted"], result["failed"], result["correct"])
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
