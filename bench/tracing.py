"""Per-layer spans around coxforge's public functions.

`Tracer.install` replaces each listed function at every name a caller
looks it up by: the defining module's attribute, every coxforge module
that imported it by name, or the class attribute for a method. Each
call records one span (name, parent span, start, end, and an optional
count taken from the call). Spans stay in memory, in flat arrays, until
`summary` folds them into call counts, self times and counts per
function and per layer. Nothing under `src/` changes.
"""

import sys
import time
from array import array

# (module, attribute path, count taken from (args, result) or None)
TRACED = (
    ("diophantine", "hilbert_basis_inequalities", None),
    ("diophantine", "solve_nonneg", None),
    ("linalg", "rank", None),
    ("linalg", "nullspace", None),
    ("linalg", "int_inverse", None),
    ("linalg", "diagonalize", None),
    ("linalg", "hnf_columns", None),
    ("linalg", "rank_sparse", ("rows", lambda args, result: len(args[0]))),
    ("rings", "solve_degree_system", None),
    ("rings", "monomials_of_degree", ("monomials", lambda args, result: len(result))),
    ("rings", "graded_piece_basis", None),
    ("rings", "normal_form", None),
    ("reduction", "audit_step", None),
    ("reduction", "cokernel_dimension", None),
    ("reduction", "reduce_to_nef", ("steps", lambda args, result: len(result.steps))),
    ("reduction", "reduce_nef_to_basic", ("steps", lambda args, result: len(result.steps))),
    ("graphs", "ResolutionGraph.path", None),
    ("invariants", "verify_invariant_table", None),
    ("invariants", "toric_relations", None),
    ("cox", "verify_presentation", None),
    ("cli", "main", None),
    ("cli", "parse_case", None),
    ("cli", "resolve_settings", None),
    ("cli", "_emit", None),
)
LAYERS = ("diophantine", "linalg", "rings", "reduction", "graphs", "invariants", "cox", "cli")


def traced_names():
    return ["%s.%s" % (module, path) for module, path, _ in TRACED]


class Tracer:
    def __init__(self):
        self.names = traced_names()
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count = array("q")
        self._stack = []
        self._patches = []

    def _wrap(self, sid, fn, counter):
        name_id, parent, start, end, count = (
            self.name_id, self.parent, self.start, self.end, self.count
        )
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(sid)
            parent.append(stack[-1] if stack else -1)
            count.append(0)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if counter is not None:
                count[i] = counter(args, result)
            return result

        return traced

    def install(self):
        """Patch every traced function; coxforge.cli must be imported
        first so that every module exists."""
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("coxforge") and m]
        for sid, (module, path, extra) in enumerate(TRACED):
            owner = sys.modules["coxforge." + module]
            holder_name, _, attr = path.rpartition(".")
            holder = getattr(owner, holder_name) if holder_name else owner
            original = getattr(holder, attr)
            wrapper = self._wrap(sid, original, extra[1] if extra else None)
            targets = [(holder, attr)]
            if not holder_name:
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original and (mod, key) != (holder, attr):
                            targets.append((mod, key))
            for obj, key in targets:
                self._patches.append((obj, key, original))
                setattr(obj, key, wrapper)

    def uninstall(self):
        for obj, key, original in reversed(self._patches):
            setattr(obj, key, original)
        self._patches = []

    def covered(self):
        """Time covered by top-level spans."""
        return sum(self.end[i] - self.start[i] for i in range(len(self.start)) if self.parent[i] < 0)

    def summary(self):
        """{metric name: value} summed over every recorded span."""
        n_names = len(self.names)
        calls = [0] * n_names
        self_s = [0.0] * n_names
        counts = [0] * n_names
        child = [0.0] * len(self.start)
        for i in range(len(self.start)):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        for i in range(len(self.start)):
            sid = self.name_id[i]
            calls[sid] += 1
            self_s[sid] += self.end[i] - self.start[i] - child[i]
            counts[sid] += self.count[i]
        out = {"tracing.spans": len(self.start)}
        for sid, (module, path, extra) in enumerate(TRACED):
            name = self.names[sid]
            out[name + ".calls"] = calls[sid]
            out[name + ".self_s"] = self_s[sid]
            if extra:
                out["%s.%s" % (name, extra[0])] = counts[sid]
        return out


def layer_metrics(totals):
    """Add per-layer sums and the cap-escalation ratio to summed
    per-function metrics."""
    out = dict(totals)
    for layer in LAYERS:
        out[layer + ".calls"] = 0
        out[layer + ".self_s"] = 0.0
    for module, path, _ in TRACED:
        name = "%s.%s" % (module, path)
        out[module + ".calls"] += totals.get(name + ".calls", 0)
        out[module + ".self_s"] += totals.get(name + ".self_s", 0.0)
    audits = totals.get("reduction.audit_step.calls", 0)
    dims = totals.get("reduction.cokernel_dimension.calls", 0)
    out["reduction.cokernel_dimension.per_audit"] = dims / audits if audits else 0.0
    return out


def metric_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(".per_audit"):
        return "ratio"
    return "count"

