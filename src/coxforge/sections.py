"""The sections of verify and report, and the checks only they run.

``cmd_checks`` builds both payloads: the invariants (skipped on a
custom tree, without running ``invariants``), cox, and the audits or
counterexample sections; verify adds the reduction sweep, report a
top-level ``graph`` key, ``ResolutionGraph.to_dict``, the payload of
the ``graph`` command. A section that does not apply raises
UnsupportedGraphError, and ``cmd_checks`` shows it as skipped, with
the reason and no ``ok``.

No ``reduce`` command runs what is here, so it does not compile it:
``sweep`` with the closed-form nef pass ``least_nef_cycles``, the
base case ``base_case_audit``, and ``full_equivalence_audit`` and
``audit_add_curve``. They read the passes, the step table, the step
audits and ``_slice_basis`` from ``reduction``.
"""

import time
from itertools import product, repeat
from math import gcd
from operator import add, ge, mul, sub

from . import DEFAULT_GRID, DEFAULT_SEED, DEFAULT_STEP_CAP, cox, invariants, linalg, reduction
from .errors import ParameterError, UnsupportedGraphError

AUDIT_DEGREE_COUNT = 6


def grid_sample(width, count=DEFAULT_GRID, seed=DEFAULT_SEED, lo=-3, hi=3):
    """Deterministic sample of integer vectors in [lo, hi]^width. The
    full box is returned in lexicographic order when it fits in
    ``count``; otherwise a fixed-seed generator draws ``count``
    distinct cells."""
    span = hi - lo + 1
    if span ** width <= count:
        return [tuple(d) for d in product(range(lo, hi + 1), repeat=width)]
    mask = (1 << 64) - 1
    factor, increment = 6364136223846793005, 1442695040888963407
    state = seed & mask
    # a dict keeps each distinct cell once, in the order first drawn
    cells = {}
    while len(cells) < count:
        cell = []
        for _ in range(width):
            state = (state * factor + increment) & mask
            cell.append(lo + (state >> 33) % span)
        cells[tuple(cell)] = None
    return list(cells)


def _times(matrix, vectors):
    """The rows of ``matrix`` applied to ``vectors``, one list per row:
    row[0] * vectors[0] + row[1] * vectors[1] + ..., elementwise over
    the lists, with zero entries of the row skipped."""
    count = len(vectors[0])
    out = []
    for row in matrix:
        acc = repeat(0, count)
        for a, vec in zip(row, vectors):
            if a:
                acc = map(add, acc, vec if a == 1 else map(mul, vec, repeat(a)))
        out.append(list(acc))
    return out


def least_nef_cycles(cells, graph):
    """The ends of ``reduce_to_nef`` on every cell, in closed form and in
    cell order: (d - M Z, |Z|) for the least cycle Z >= 0 with
    d - M Z >= 0, where M is the intersection matrix of a
    negative-definite graph. |Z| is the pass's step count, so the pass
    terminates within a step cap exactly when |Z| <= cap.

    The cycles Z >= 0 with d - M Z >= 0 are closed under componentwise
    min, and firing a curve where d - M Z is negative never passes their
    least element Z* (Laufer, On rational singularities, 1972), so the
    pass ends at Z* in any firing order. -M is an M-matrix, so every
    such Z is at least M^-1 d = adj d / det. The start
    max(0, ceil(adj d / det)) is thus below Z*, and firing from it ends
    exactly at Z*; the cells still negative there fire their lowest
    coordinate until none is, each on a list copy through the step
    table's column supports. The start and d - M Z are taken a
    coordinate at a time over the whole batch, through the nonzero
    entries of adj and of M. Off the negative definite graphs Z* need
    not exist and the corrections would not end, so they raise
    ParameterError first. Only ``sweep`` uses this; ``reduce`` and the
    audits keep the step-by-step pass."""
    if not graph.is_negative_definite():
        raise ParameterError("the least nef cycles need a negative definite graph")
    table = reduction._step_table(graph)
    width = len(graph.nodes)
    if any(len(d) != width for d in cells):
        raise ParameterError("every degree needs %d coordinates, one per node" % width)
    if not cells:
        return []
    coords = list(zip(*cells))
    matrix = graph.intersection_matrix()
    adj, det = linalg.adjugate(matrix)
    # ceil(x / det), clamped at 0, is -(-x // det) for either sign of det
    z = [[0 if x * det <= 0 else -(-x // det) for x in row] for row in _times(adj, coords)]
    ends = zip(*[list(map(sub, c, mz)) for c, mz in zip(coords, _times(matrix, z))])
    supports = [table.entries[v][1] for v in graph.nodes]
    out = []
    for d, size in zip(ends, map(sum, zip(*z))):
        low = min(d)
        if low < 0:
            cur = list(d)
            while low < 0:
                for i, e in supports[cur.index(low)]:
                    cur[i] -= e
                size += 1
                low = min(cur)
            d = tuple(cur)
        out.append((d, size))
    return out


def sweep(graph, cells, step_cap=DEFAULT_STEP_CAP):
    """verify's reduction section: the verdict of ``reduce`` on every
    cell, in cell order, with ``step_cap`` steps for each pass. The nef
    pass must terminate, the basic pass must end on a basic degree, and
    on a D-shaped star, three arms of which at least two have length 1
    (``reduction._d_pair``, whose nodes the S-measure weighs 1), its
    measures, compared doubled, must not increase. The
    nef passes come from one ``least_nef_cycles`` call. ``known`` maps
    each degree at the top of the add-phase loop that a successful basic
    pass went through, and its end, to the steps left in that pass: a
    cell whose nef terminal is known makes no pass, and the basic pass
    (``reduction._basic_pass``) stops at the first known degree, the one
    it ends on, whose count is the steps left. The sweep returns at the
    first failing cell, so ``known`` only holds passes that succeeded,
    whose later measures held; each distinct step is built, and checked,
    once. Off the negative definite graphs greedy reduction has no
    termination certificate, so the sweep raises UnsupportedGraphError
    there."""
    if not graph.is_negative_definite():
        raise UnsupportedGraphError("intersection form is not negative definite")
    d_shaped = reduction._d_pair(graph) is not None
    known = {}
    max_steps = 0
    for d, (terminal, nef_steps) in zip(cells, least_nef_cycles(cells, graph)):
        if nef_steps > step_cap:
            return {"cells": len(cells), "ok": False, "failed_at": list(d)}
        if terminal not in known:
            trace = reduction._basic_pass(terminal, graph, step_cap, known)
            steps, ms = trace.steps, trace.twice_measures
            left = known.get(trace.terminal, 0)
            total = len(steps) + left
            # a pass with no steps left ended on a degree that must be basic
            if not (
                trace.terminated
                and (left or reduction.is_basic(trace.terminal, graph))
                and (not d_shaped or all(map(ge, ms, ms[1:])))
                and total <= step_cap
            ):
                return {"cells": len(cells), "ok": False, "failed_at": list(d)}
            # the degrees the add-phase loop scanned: those before its
            # steps up to the first shift, which carries its own position
            for step in steps:
                known[step.degree_before] = total
                if not step.adds_curves():
                    break
                total -= 1
            known.setdefault(trace.terminal, 0)
        max_steps = max(max_steps, nef_steps + known[terminal])
    return {"cells": len(cells), "ok": True, "max_steps": max_steps}


def audit_add_curve(graph, node, k=2):
    """Audit a single AddCurve step from degree k*e_node. The expected
    dimension k-1 is the claim under test, so a mismatch is reported,
    not raised."""
    if k < 2:
        raise ParameterError("AddCurve needs a coordinate of at least 2")
    before = tuple(k * c for c in graph.unit_degree(node))
    after = tuple(map(add, before, graph.columns[node]))
    step = reduction.ReductionStep("AddCurve", (node,), (node,), before, after)
    report = reduction.audit_step(cox.presentation_from_graph(graph), step, graph)
    report["node"] = node
    report["k"] = k
    return report


def _base_case_stop(graph, qp, target, arm, first):
    """E of base_case_audit's argument, and {section: (m_i, q_i)}."""
    grading = qp.grading
    curves = [grading.index(graph.curve_variable(v)) for v in graph.nodes]
    adj, det = linalg.adjugate([[row[c] for c in curves] for row in grading.matrix])
    # w = -det * M^-1 > 0 with det > 0, n_i = det * N_i; row 0 is y0's
    w = [[x if det < 0 else -x for x in row] for row in adj]
    det, sections = abs(det), [c for c in range(grading.width) if c not in curves]
    n = [[linalg.dot(r, [row[c] for row in grading.matrix]) for r in w] for c in sections]
    m = [det // gcd(det, *ni) for ni in n]
    q = [mi * ni[0] // det for mi, ni in zip(m, n)]
    tops = []
    for c in (target, tuple(map(sub, target, grading.degree_of(qp.lead)))):
        # det * y(s) = sum of s_i * n_i less b: y_j < 0 needs s_i * n_ij < b_j
        b = [linalg.dot(r, c) for r in w]
        u = [max(0, *(-(-bj // nj) for bj, nj in zip(b, ni))) for ni in n]
        tops += [sum(ni[0] * (mi - 1) for ni, mi in zip(n, m)) - b[0],
                 sum(ni[0] * ui for ni, ui in zip(n, u)) - b[0] + det * sum(q)]
    return max(max(tops) // det + arm + 1, first + sum(q)), {
        grading.variables[c]: mq for c, mq in zip(sections, zip(m, q))}


def base_case_audit(graph, leaf, k):
    """Count the standard monomials of the basic graded piece of degree
    k*e_leaf in the leaf's quotient, slice by slice on the center curve
    variable y0, and compare the counts with the series
    S = t^(k*l) / (1 - t^(l+1)), where l is the length of the leaf's arm:
    slice e must hold one standard monomial when e >= k*l and
    e = k*l (mod l + 1), and none otherwise. Every slice is finite,
    because every degree-zero generator contains every curve variable,
    and each is listed in full. Off the negative definite graphs the
    series has no footing, so they raise ParameterError, and so does a
    chain, which has no center.

    The count stops at ``reached``, the slice E below, which suffices. A
    monomial of degree c is fixed by the exponents s of the sections
    left: y(s) = y(0) + N s with N = -M^-1 on their nodes, N > 0. So
    y(s) is integral with period m_i = det / gcd(det, adj M at section
    i's node) in s_i, y0 rises by q_i = m_i N_0i per period, and
    violators (some y_j < 0) have s_i < U_i = max_j ceil(-y_j(0) / N_ji).
    The lead holds no y0, so the standard monomials' series is H = P/Q,
    Q = prod(1 - t^q_i), with deg P at most D, the largest y0 at
    s = m - 1 and at s = U plus deg Q over the pieces c and
    c - deg(lead). (H - S) Q (1 - t^(l+1)) is a polynomial of degree at
    most E = max(D + l + 1, k*l + deg Q), zero if H = S on slices 0..E."""
    if k < 1:
        raise ParameterError("k must be positive")
    if not graph.is_negative_definite():
        raise ParameterError("the base case needs a negative definite graph")
    center = graph.center()
    if center is None:
        raise ParameterError("the base case needs a star")
    arm = len(graph.branch_of(leaf))
    qp = cox.presentation_from_graph(graph, leaf)
    target = tuple(k * c for c in graph.unit_degree(leaf))
    j = qp.grading.index(graph.curve_variable(center))
    first = k * arm
    reached = _base_case_stop(graph, qp, target, arm, first)[0]
    slices = range(reached + 1)
    counts = [len(reduction._slice_basis(qp.grading.matrix, target, j, e, qp.lead))
              for e in slices]
    series = [int(e >= first and (e - first) % (arm + 1) == 0) for e in slices]
    return {"case": graph.label, "leaf": leaf, "k": k, "arm": arm, "reached": reached,
            "ok": counts == series}


def full_equivalence_audit(graph, degree, step_cap=DEFAULT_STEP_CAP):
    """Reduce a degree to nef and then to basic, audit the cokernel
    dimension of every step against the combinatorial expectation, and,
    on a negative definite star whose terminal k*e_leaf is nonzero,
    finish with ``base_case_audit(graph, leaf, k)``."""
    d = reduction._check_degree(degree, graph)
    pres = cox.presentation_from_graph(graph)
    trace = reduction.reduce(graph, d, step_cap)
    steps = reduction.audit(trace, pres, graph)
    report = {
        "case": graph.label,
        "initial": list(d),
        "terminated": trace.terminated,
        "steps": steps,
        "base_case": None,
    }
    if trace.terminated:
        report["terminal"] = list(trace.terminal)
        nonzero = [c for c in trace.terminal if c]
        if nonzero and graph.center() is not None and graph.is_negative_definite():
            leaf = graph.nodes[next(i for i, c in enumerate(trace.terminal) if c)]
            report["base_case"] = base_case_audit(graph, leaf, nonzero[0])
    report["ok"] = (trace.terminated and all(step["ok"] for step in steps)
                    and (report["base_case"] is None or report["base_case"]["ok"]))
    return report


def _audit_sample(graph, cells, step_cap):
    reports = []
    for d in cells[:AUDIT_DEGREE_COUNT]:
        rep = full_equivalence_audit(graph, d, step_cap)
        reports.append(
            {
                "initial": rep["initial"],
                "steps": len(rep["steps"]),
                "base_case": None if rep["base_case"] is None else rep["base_case"]["ok"],
                "ok": rep["ok"],
            }
        )
    return {"degrees": reports, "ok": all(row["ok"] for row in reports)}


def _counterexample_section(graph):
    audits = []
    any_failed = False
    for leaf in graph.basic_leaves():
        rep = audit_add_curve(graph, leaf, k=2)
        audits.append(rep)
        any_failed = any_failed or not rep["ok"]
    verdict = "rule-fails-as-predicted" if any_failed else "rule-holds-on-sample"
    return {"audits": audits, "verdict": verdict, "ok": True}


def _no_invariant_table(graph):
    # the reference tables are keyed by family, which a custom tree
    # lacks; the invariants module is not run to learn that
    raise UnsupportedGraphError("custom trees have no reference invariant table")


def cmd_checks(graph, settings, command, with_timings):
    """The payload of verify or report (``command``), with each section
    timed. The grid cells are drawn before any section runs: always for
    verify, and for report only when the audits need them. A section
    that raises UnsupportedGraphError is skipped, with the reason and no
    ``ok``; the run is ok when every section that was not skipped is."""
    ade = graph.family is not None
    cells = None
    if ade or command == "verify":
        cells = grid_sample(len(graph.nodes), settings["grid"], settings["seed"])
    step_cap = settings["caps"]["step"]
    runs = [
        ("invariants", invariants.verify_invariant_table if ade else _no_invariant_table, graph),
        ("cox", cox.verify_presentation, graph),
    ]
    if command == "verify":
        runs.append(("reduction", sweep, graph, cells, step_cap))
    if ade:
        runs.append(("audits", _audit_sample, graph, cells, step_cap))
    else:
        runs.append(("counterexample", _counterexample_section, graph))
    sections = {}
    timings = {}
    for name, section, *args in runs:
        start = time.perf_counter()
        try:
            sections[name] = section(*args)
        except UnsupportedGraphError as exc:
            sections[name] = {"skipped": str(exc)}
        timings[name] = int((time.perf_counter() - start) * 1000)
    ok = all(section["ok"] for section in sections.values() if "skipped" not in section)
    payload = {"case": graph.label, "sections": sections, "ok": ok}
    if command == "report":
        payload["graph"] = graph.to_dict()
    if with_timings:
        payload["timings"] = timings
    return payload
