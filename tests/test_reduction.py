import gzip
import json
import random
from collections import Counter
from fractions import Fraction
from operator import add
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxforge import reduction, sections
from coxforge.cli import parse_case
from coxforge.cox import presentation_from_graph, section_name_at
from coxforge.errors import HypothesisViolationError, ParameterError
from coxforge.graphs import ResolutionGraph, build_custom_tree, build_singularity
from coxforge.invariants import golden_generators
from coxforge.linalg import rank_sparse
from coxforge.reduction import (
    ReductionStep,
    audit_step,
    cokernel_dimension,
    expected_cokernel_dim,
    is_basic,
    reduce_nef_to_basic,
    reduce_to_nef,
)
from coxforge.rings import graded_piece_basis, normal_form
from coxforge.sections import audit_add_curve, base_case_audit, full_equivalence_audit, grid_sample

import oracle


def _step(graph, kind, nodes, curves, before):
    sign = 1 if kind in ("AddCurve", "AddChain") else -1
    return ReductionStep(kind, nodes, curves, before, oracle._moved(graph, before, curves, sign))


# ---------------------------------------------------------------- measures


def _measure(degree, graph):
    """The S-measure of a nef ``degree``, as the one measure of a basic
    pass stopped before its first step."""
    trace = reduce_nef_to_basic(degree, graph, 0)
    assert trace.twice_measures == (oracle.twice_s(graph, degree),)
    return trace.measures[0]


def test_s_measure_values():
    d4 = build_singularity("D", 4)
    assert _measure((1, 0, 0, 0), d4) == "1"
    assert _measure((0, 1, 0, 0), d4) == "1/2"
    assert _measure((0, 1, 1, 0), d4) == "1"
    assert _measure((0, 0, 0, 2), d4) == "2"


def test_s_measure_chain_counts_all_coordinates():
    a3 = build_singularity("A", 3)
    assert _measure((1, 1, 1), a3) == "2"


ADE_CASES = (
    ["A%d" % n for n in range(1, 9)]
    + ["D%d" % n for n in range(4, 13)]
    + ["E6", "E7", "E8"]
)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_s_measure_matches_a_fraction_sum(data):
    graph = parse_case(data.draw(st.sampled_from(ADE_CASES)))
    width = len(graph.nodes)
    degree = tuple(data.draw(st.lists(st.integers(-6, 6), min_size=width, max_size=width)))
    expected = Fraction(0)
    for node, c in zip(graph.nodes, degree):
        expected += Fraction(c, 2) if node in (1, 2) else Fraction(c)
    twice = oracle.twice_s(graph, degree)
    assert Fraction(twice, 2) == expected
    # a measure reads as the Fraction's string, negative ones included
    trace = reduction.ReductionTrace(degree, degree, (), True, [twice])
    assert trace.measures == (str(expected),)
    if min(degree) >= 0:
        assert reduce_nef_to_basic(degree, graph, 0).twice_measures == (twice,)


def test_is_basic():
    d4 = build_singularity("D", 4)
    assert is_basic((0, 0, 0, 0), d4)
    assert is_basic((0, 3, 0, 0), d4)
    assert not is_basic((1, 0, 0, 0), d4)
    assert not is_basic((0, 1, 0, 1), d4)
    assert not is_basic((0, -2, 0, 0), d4)
    a3 = build_singularity("A", 3)
    assert is_basic((2, 0, 0), a3)
    assert is_basic((0, 0, 5), a3)
    assert not is_basic((0, 1, 0), a3)


# ---------------------------------------------------------------- traces


def test_reduce_to_nef_frozen_trace():
    d4 = build_singularity("D", 4)
    trace = reduce_to_nef((-2, 1, 0, -1), d4)
    assert trace.terminated
    assert trace.terminal == (0, 0, 1, 0)
    assert [(s.kind, s.nodes, s.degree_after) for s in trace.steps] == [
        ("SubtractCurve", (0,), (0, 0, -1, -2)),
        ("SubtractCurve", (2,), (-1, 0, 1, -2)),
        ("SubtractCurve", (0,), (1, -1, 0, -3)),
        ("SubtractCurve", (1,), (0, 1, 0, -3)),
        ("SubtractCurve", (3,), (-1, 1, 0, -1)),
        ("SubtractCurve", (0,), (1, 0, -1, -2)),
        ("SubtractCurve", (2,), (0, 0, 1, -2)),
        ("SubtractCurve", (3,), (-1, 0, 1, 0)),
        ("SubtractCurve", (0,), (1, -1, 0, -1)),
        ("SubtractCurve", (1,), (0, 1, 0, -1)),
        ("SubtractCurve", (3,), (-1, 1, 0, 1)),
        ("SubtractCurve", (0,), (1, 0, -1, 0)),
        ("SubtractCurve", (2,), (0, 0, 1, 0)),
    ]
    assert _pass_record(trace) == oracle.walk_to_nef(d4, (-2, 1, 0, -1), reduction.DEFAULT_STEP_CAP)


def test_reduce_to_nef_keeps_nef_input():
    d4 = build_singularity("D", 4)
    trace = reduce_to_nef((0, 1, 1, 0), d4)
    assert trace.steps == ()
    assert trace.terminal == (0, 1, 1, 0)
    assert trace.terminated


# the negative-definite stars: D, E6, E7 and E8 shapes under custom labels
DEFINITE_STARS = ["custom:1,1,1", "custom:1,1,4", "custom:1,2,2", "custom:1,2,3", "custom:1,2,4"]


@pytest.mark.parametrize("case", ADE_CASES + DEFINITE_STARS)
@settings(max_examples=20, deadline=None)
@given(st.data())
def test_least_nef_cycle_is_the_end_of_the_nef_pass(case, data):
    # a batch of cells drawn from a small pool, so cells repeat
    graph = parse_case(case)
    assert graph.is_negative_definite()
    width = len(graph.nodes)
    cell = st.tuples(*[st.integers(-6, 6)] * width)
    pool = data.draw(st.lists(cell, min_size=1, max_size=10))
    cells = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))
    got = sections.least_nef_cycles(cells, graph)
    assert len(got) == len(cells)
    for d, (terminal, size) in zip(cells, got):
        nef = reduce_to_nef(d, graph)
        assert nef.terminated
        assert terminal == nef.terminal
        assert size == len(nef.steps)
        # the step cap boundary: |Z| - 1 steps fall short, |Z| steps suffice
        if size:
            assert not reduce_to_nef(d, graph, size - 1).terminated
        assert reduce_to_nef(d, graph, size).terminated


def test_least_nef_cycles_checks_every_cell_width():
    d4 = build_singularity("D", 4)
    assert sections.least_nef_cycles([], d4) == []
    with pytest.raises(ParameterError):
        sections.least_nef_cycles([(0, 0, 0, 0), (0, 0, 0)], d4)



@pytest.mark.parametrize("case,expected_det", [("custom:1,2,6", -1), ("custom:2,2,2", 0)])
def test_least_nef_cycles_rejects_a_graph_that_is_not_negative_definite(case, expected_det):
    # the corrections would fire forever on custom:1,2,6; the check comes
    # before any work, so even an empty batch raises
    graph = parse_case(case)
    assert oracle.det(graph.intersection_matrix()) == expected_det
    for cells in ([(-1,) * len(graph.nodes)], []):
        with pytest.raises(ParameterError, match="negative definite"):
            sections.least_nef_cycles(cells, graph)

def test_add_chain_trace():
    d4 = build_singularity("D", 4)
    trace = reduce_nef_to_basic((0, 1, 1, 0), d4)
    assert [(s.kind, s.nodes, s.curves, s.degree_after) for s in trace.steps] == [
        ("AddChain", (1, 2), (1, 0, 2), (0, 0, 0, 1))
    ]
    assert trace.terminal == (0, 0, 0, 1)
    assert trace.measures == ("1", "1")
    assert _pass_record(trace) == _walk(d4, (0, 1, 1, 0))


def test_shift_trace_short_branch():
    d4 = build_singularity("D", 4)
    trace = reduce_nef_to_basic((1, 0, 0, 0), d4)
    assert [(s.kind, s.nodes, s.curves, s.degree_after) for s in trace.steps] == [
        ("ShiftToLeaf", (0, 3), (3,), (0, 0, 0, 2))
    ]
    assert trace.terminal == (0, 0, 0, 2)
    # the measure argument covers the add phase only, and there is none
    assert trace.measures == ("1",)


def test_shift_trace_two_hops():
    d5 = build_singularity("D", 5)
    trace = reduce_nef_to_basic((1, 0, 0, 0, 0), d5)
    assert [(s.kind, s.nodes, s.curves, s.degree_after) for s in trace.steps] == [
        ("ShiftToLeaf", (0, 4), (3, 4), (0, 0, 0, 1, 1)),
        ("ShiftToLeaf", (3, 4), (4,), (0, 0, 0, 0, 3)),
    ]
    assert trace.terminal == (0, 0, 0, 0, 3)
    assert _pass_record(trace) == _walk(d5, (1, 0, 0, 0, 0))


def test_shift_trace_three_hops():
    d6 = build_singularity("D", 6)
    trace = reduce_nef_to_basic((1, 0, 0, 0, 0, 0), d6)
    assert [(s.kind, s.nodes, s.curves, s.degree_after) for s in trace.steps] == [
        ("ShiftToLeaf", (0, 5), (3, 4, 5), (0, 0, 0, 1, 0, 1)),
        ("ShiftToLeaf", (3, 5), (4, 5), (0, 0, 0, 0, 1, 2)),
        ("ShiftToLeaf", (4, 5), (5,), (0, 0, 0, 0, 0, 4)),
    ]
    assert trace.terminal == (0, 0, 0, 0, 0, 4)


def test_reduce_nef_to_basic_rejects_negative():
    d4 = build_singularity("D", 4)
    with pytest.raises(ParameterError):
        reduce_nef_to_basic((0, -1, 0, 0), d4)


def test_basic_pass_does_not_take_a_negative_coordinate_for_zero():
    # (-1, 2) has a single coordinate >= 2, at a leaf, but is not basic.
    # The passes never leave a nef degree on (-2)-curves, so it is met
    # only at the entry point and in a hand-built step
    a2 = build_singularity("A", 2)
    assert not is_basic((-1, 2), a2)
    with pytest.raises(ParameterError, match="needs a nef degree"):
        reduce_nef_to_basic((-1, 2), a2)
    d4 = build_singularity("D", 4)
    off_nef_add = _step(d4, "AddCurve", (1,), (1,), (0, 2, -1, 0))
    with pytest.raises(HypothesisViolationError, match="AddCurve needs a nef degree"):
        expected_cokernel_dim(off_nef_add, d4)


def test_basic_pass_without_an_eligible_pair_raises_a_hypothesis_violation():
    # at (-1, 1, 1, 1) on D4 every pair of the three 1's meets the center's
    # -1 strictly between; only a hand-built step reaches it
    d4 = build_singularity("D", 4)
    assert not is_basic((-1, 1, 1, 1), d4)
    off_nef_chain = _step(d4, "AddChain", (1, 2), (1, 0, 2), (-1, 1, 1, 1))
    with pytest.raises(HypothesisViolationError, match="AddChain needs a nef degree"):
        expected_cokernel_dim(off_nef_chain, d4)


def test_trace_to_dict_shape():
    d4 = build_singularity("D", 4)
    trace = reduce_nef_to_basic((0, 1, 1, 0), d4)
    out = trace.to_dict()
    assert set(out) == {
        "initial",
        "steps",
        "terminal",
        "measures",
        "terminated",
        "ok",
    }
    assert out["initial"] == [0, 1, 1, 0]
    assert out["terminal"] == [0, 0, 0, 1]
    assert out["ok"] is True
    step = out["steps"][0]
    assert set(step) == {
        "kind",
        "nodes",
        "curves",
        "degree_after",
        "expected_dim",
        "actual_dim",
    }
    assert step["degree_after"] == [0, 0, 0, 1]


def _lcg_degrees(count, width, lo=-3, hi=3, seed=2024):
    state = seed
    span = hi - lo + 1
    out = []
    for _ in range(count):
        d = []
        for _ in range(width):
            state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
            d.append(lo + (state >> 33) % span)
        out.append(tuple(d))
    return out


@pytest.mark.parametrize("family,n", [("D", 4), ("D", 5), ("E", 6), ("A", 4)])
def test_reduction_terminates_on_sampled_degrees(family, n):
    graph = build_singularity(family, n)
    for d in _lcg_degrees(60, n):
        nef = reduce_to_nef(d, graph)
        assert nef.terminated
        assert all(c >= 0 for c in nef.terminal)
        assert _pass_record(nef) == oracle.walk_to_nef(graph, d, reduction.DEFAULT_STEP_CAP)
        basic = reduce_nef_to_basic(nef.terminal, graph)
        assert basic.terminated
        assert is_basic(basic.terminal, graph)
        assert _pass_record(basic) == _walk(graph, nef.terminal)
        if family == "D":
            ms = basic.twice_measures
            assert all(a >= b for a, b in zip(ms, ms[1:]))


def _step_key(step):
    return (
        step.kind,
        step.nodes,
        step.curves,
        step.degree_before,
        step.degree_after,
        step.expected_cokernel_dim,
    )


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(-3, 3), min_size=5, max_size=5),
    st.one_of(st.just(reduction.DEFAULT_STEP_CAP), st.integers(0, 6)),
)
def test_reduction_pipeline_properties(coords, step_cap):
    d5 = build_singularity("D", 5)
    d = tuple(coords)
    trace = reduction.reduce(d5, d, step_cap)
    # reduce is the nef pass, then the basic pass only if the nef pass ended
    passes = [reduce_to_nef(d, d5, step_cap)]
    if passes[0].terminated:
        passes.append(reduce_nef_to_basic(passes[0].terminal, d5, step_cap))
    assert [_step_key(s) for s in trace.steps] == [
        _step_key(s) for p in passes for s in p.steps
    ]
    assert trace.initial == d
    assert trace.terminal == passes[-1].terminal
    assert trace.measures == passes[-1].measures
    assert trace.terminated == passes[-1].terminated
    assert _pass_record(trace) == _walk(d5, d, step_cap)
    kinds = {s.kind for s in trace.steps}
    assert kinds <= {"SubtractCurve", "AddCurve", "AddChain", "ShiftToLeaf"}
    if step_cap == reduction.DEFAULT_STEP_CAP:
        assert trace.terminated
    if trace.terminated:
        assert is_basic(trace.terminal, d5)
        ms = trace.twice_measures
        assert all(a >= b for a, b in zip(ms, ms[1:]))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_step_cap_keeps_a_prefix_of_the_uncapped_pass(data):
    graph = parse_case(data.draw(st.sampled_from(["D5", "E6", "A4"])))
    width = len(graph.nodes)
    d = tuple(data.draw(st.lists(st.integers(-4, 4), min_size=width, max_size=width)))
    nef = reduce_to_nef(d, graph)
    basic = reduce_nef_to_basic(nef.terminal, graph)
    for run, start, full in ((reduce_to_nef, d, nef), (reduce_nef_to_basic, nef.terminal, basic)):
        assert full.terminated
        n = len(full.steps)
        # a negative cap acts like 0
        for cap in range(-1, 9):
            capped = run(start, graph, cap)
            kept = max(0, min(cap, n))
            assert [_step_key(s) for s in capped.steps] == [
                _step_key(s) for s in full.steps[:kept]
            ]
            assert capped.terminated == (n <= max(cap, 0))
            assert capped.terminal == (full.steps[kept - 1].degree_after if kept else start)
            adds = sum(s.adds_curves() for s in full.steps[:kept])
            assert capped.measures == full.measures[:adds + 1]


def _left(trace, known):
    """The steps left after a basic pass, as ``sweep`` reads them: the
    count of the known degree a terminated pass stopped on, else 0."""
    return known.get(trace.terminal, 0) if trace.terminated else 0


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_known_degrees_stop_the_basic_pass_at_the_first_one_met(data):
    graph = parse_case(data.draw(st.sampled_from(["A4", "D5", "E6"])))
    width = len(graph.nodes)
    nef = st.lists(st.integers(0, 4), min_size=width, max_size=width).map(tuple)
    t, u = data.draw(nef), data.draw(nef)
    cap = data.draw(st.sampled_from([0, 1, 3, 8, reduction.DEFAULT_STEP_CAP]))
    # the add-phase degrees of another degree's pass, with any counts
    known = {
        s.degree_before: left
        for left, s in enumerate(reduce_nef_to_basic(u, graph).steps)
        if s.adds_curves()
    }
    full = reduce_nef_to_basic(t, graph)
    capped = reduce_nef_to_basic(t, graph, cap)
    got = reduction._basic_pass(t, graph, cap, known)
    left = _left(got, known)
    # no known degrees: the pass as it always ran, with nothing left
    plain = reduction._basic_pass(t, graph, cap, ())
    assert (plain.to_dict(), _left(plain, {})) == (capped.to_dict(), 0)
    stop = next(
        (k for k, s in enumerate(full.steps) if s.adds_curves() and s.degree_before in known),
        None,
    )
    if stop is None or stop > cap:
        assert left == 0
        assert [_step_key(s) for s in got.steps] == [_step_key(s) for s in capped.steps]
        assert (got.terminal, got.terminated, got.measures) == (
            capped.terminal,
            capped.terminated,
            capped.measures,
        )
        return
    assert [_step_key(s) for s in got.steps] == [_step_key(s) for s in full.steps[:stop]]
    assert got.terminal == full.steps[stop].degree_before
    assert got.terminated
    assert left == known[got.terminal]
    # every step before the stop is an add step, each with its measure
    assert got.measures == full.measures[:stop + 1]


def test_a_known_degree_inside_the_shift_phase_does_not_stop_the_pass():
    d5 = build_singularity("D", 5)
    # from (0, 0, 0, 1, 1) the pass adds the chain 3-4 and then shifts
    # the 1 at node 0 back through (0, 0, 0, 1, 1) to the leaf
    full = reduce_nef_to_basic((0, 0, 0, 1, 1), d5)
    assert [s.kind for s in full.steps] == ["AddChain", "ShiftToLeaf", "ShiftToLeaf"]
    assert full.steps[2].degree_before == (0, 0, 0, 1, 1)
    known = {(0, 0, 0, 1, 1): 3}
    shifted = reduction._basic_pass((1, 0, 0, 0, 0), d5, reduction.DEFAULT_STEP_CAP, known)
    left = _left(shifted, known)
    assert [_step_key(s) for s in shifted.steps] == [_step_key(s) for s in full.steps[1:]]
    assert shifted.terminal == (0, 0, 0, 0, 3)
    assert (shifted.terminated, left) == (True, 0)
    # at the top of the add-phase loop the same degree stops the pass
    stopped = reduction._basic_pass((0, 0, 0, 1, 1), d5, reduction.DEFAULT_STEP_CAP, known)
    left = _left(stopped, known)
    assert (stopped.steps, stopped.terminal, stopped.terminated) == ((), (0, 0, 0, 1, 1), True)
    assert left == 3


@pytest.mark.parametrize("case", ADE_CASES)
def test_a_basic_pass_adds_then_shifts_to_a_basic_degree(case):
    # the shape that sweep's memo of add-phase degrees relies on, on the
    # pass of every distinct nef terminal of the grid sample
    graph = parse_case(case)
    arm = max(map(len, graph.branches())) if graph.center() is not None else len(graph.nodes)
    cells = grid_sample(len(graph.nodes), 300)
    for t in dict.fromkeys(reduce_to_nef(d, graph).terminal for d in cells):
        trace = reduce_nef_to_basic(t, graph)
        kinds = [s.kind for s in trace.steps]
        adds = sum(s.adds_curves() for s in trace.steps)
        assert all(s.adds_curves() for s in trace.steps[:adds]), kinds
        assert set(kinds[adds:]) <= {"ShiftToLeaf"}, kinds
        assert trace.terminated and is_basic(trace.terminal, graph), t
        assert len(kinds) - adds <= arm, kinds


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_every_measure_is_the_s_measure_of_its_state(data):
    graph = parse_case(data.draw(st.sampled_from(ADE_CASES)))
    width = len(graph.nodes)
    d = tuple(data.draw(st.lists(st.integers(-5, 5), min_size=width, max_size=width)))
    step_cap = data.draw(st.one_of(st.just(reduction.DEFAULT_STEP_CAP), st.integers(0, 12)))
    nef = reduce_to_nef(d, graph)
    trace = reduce_nef_to_basic(nef.terminal, graph, step_cap)
    # the shift phase lies outside the termination argument: no measure
    expected = [oracle.twice_s(graph, trace.initial)] + [
        oracle.twice_s(graph, s.degree_after)
        for s in trace.steps
        if s.kind in ("AddCurve", "AddChain")
    ]
    assert list(trace.twice_measures) == expected
    assert list(trace.measures) == [str(Fraction(t, 2)) for t in expected]


TRACE_CASES = ("A8", "D8", "D12", "E7", "E8")
TRACE_CELLS_PER_CASE = 20
# step-capped runs: the D8 cell terminates because each pass gets the
# cap on its own (3 + 4 steps), the E8 cell runs out of steps
CAPPED_TRACE_CELLS = (
    ("D8", (-2, -2, 2, 2, 0, 0, 1, 1), 5),
    ("E8", (-1, -1, -1, -1, -1, -1, -1, -1), 3),
)


def _trace_cells():
    rng = random.Random("reduce-traces")
    for case in TRACE_CASES:
        width = len(parse_case(case).nodes)
        for _ in range(TRACE_CELLS_PER_CASE):
            cell = tuple(rng.randint(-6, 6) for _ in range(width))
            yield case, cell, reduction.DEFAULT_STEP_CAP
    yield from CAPPED_TRACE_CELLS


def _reduce_traces_document():
    """``reduce(graph, cell, step_cap).to_dict()`` of every trace cell,
    one JSON line each."""
    lines = []
    for case, cell, step_cap in _trace_cells():
        trace = reduction.reduce(parse_case(case), cell, step_cap)
        entry = {"case": case, "cell": list(cell), "step_cap": step_cap, "trace": trace.to_dict()}
        lines.append(json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n")
    return "".join(lines).encode("utf-8")


def _trace_line_difference(number, got, want):
    """Where two differing trace lines part: the cell they belong to and
    the first step, or else the first trace field, that differs."""
    try:
        got, want = json.loads(got), json.loads(want)
    except ValueError:
        return "trace line %d differs and does not parse" % number
    where = "trace line %d (%s, cell %s, step_cap %s)" % (
        number,
        want["case"],
        want["cell"],
        want["step_cap"],
    )
    if any(got[key] != want[key] for key in ("case", "cell", "step_cap")):
        return "%s belongs to %s, cell %s, step_cap %s here" % (
            where,
            got["case"],
            got["cell"],
            got["step_cap"],
        )
    got_steps, want_steps = got["trace"]["steps"], want["trace"]["steps"]
    for k, (a, b) in enumerate(zip(got_steps, want_steps)):
        if a != b:
            return "%s: first differing step %d" % (where, k)
    if len(got_steps) != len(want_steps):
        return "%s: %d steps against %d, first differing step %d" % (
            where,
            len(got_steps),
            len(want_steps),
            min(len(got_steps), len(want_steps)),
        )
    fields = sorted(k for k in want["trace"] if got["trace"].get(k) != want["trace"][k])
    return "%s: the steps agree, %s differ" % (where, fields or "the bytes")


def test_reduce_traces_match_golden():
    # tests/data holds these traces (gzipped, the JSON is 4.7 MB), byte for byte
    golden = Path(__file__).parent / "data" / "reduce_traces.json.gz"
    want = gzip.decompress(golden.read_bytes())
    got = _reduce_traces_document()
    got_lines, want_lines = got.splitlines(True), want.splitlines(True)
    for number, (a, b) in enumerate(zip(got_lines, want_lines), 1):
        if a != b:
            pytest.fail(_trace_line_difference(number, a, b))
    assert len(got_lines) == len(want_lines), "trace line count"
    assert got == want


# -------------------------------------------------------- independent walk


def _pass_record(trace):
    steps = [
        (s.kind, s.nodes, s.curves, s.degree_before, s.degree_after, s.expected_cokernel_dim)
        for s in trace.steps
    ]
    return steps, trace.terminal, trace.terminated


def _walk(graph, cell, step_cap=reduction.DEFAULT_STEP_CAP):
    """``oracle``'s walk of ``reduction.reduce`` on ``cell``: the steps
    of both passes, the terminal and whether it ended, as
    ``_pass_record`` gives them."""
    steps, end, done = oracle.walk_to_nef(graph, cell, step_cap)
    if not done:
        return steps, end, done
    more, end, done, _ = oracle.walk_to_basic(graph, end, step_cap)
    return steps + more, end, done


def _matches_the_walk(graph, cell, step_cap=reduction.DEFAULT_STEP_CAP, known=()):
    """Compare both passes on ``cell`` with ``oracle``'s plain walk, as
    whole traces. Returns the basic pass's trace, or None when the nef
    pass ran out of steps."""
    nef = reduce_to_nef(cell, graph, step_cap)
    steps, end, done = oracle.walk_to_nef(graph, cell, step_cap)
    assert _pass_record(nef) == (steps, end, done)
    assert (nef.initial, nef.twice_measures) == (tuple(cell), ())
    if not done:
        return None
    if known:
        basic = reduction._basic_pass(end, graph, step_cap, known)
        # a pass that ended stopped on a known degree or reached a basic one
        assert not basic.terminated or basic.terminal in known or is_basic(basic.terminal, graph)
    else:
        basic = reduce_nef_to_basic(end, graph, step_cap)
    steps, end, done, twice = oracle.walk_to_basic(graph, end, step_cap, known)
    assert _pass_record(basic) == (steps, end, done)
    assert list(basic.twice_measures) == twice
    return basic


def _walk_cells(case, count, box=6):
    width = len(parse_case(case).nodes)
    rng = random.Random("walk-" + case)
    return [tuple(rng.randint(-box, box) for _ in range(width)) for _ in range(count)]


@pytest.mark.parametrize("case", ["A8", "D8", "D12", "E7", "E8"])
def test_passes_match_the_plain_walk_on_seeded_cells(case):
    graph = parse_case(case)
    kinds = Counter()
    for cell in _walk_cells(case, 25):
        basic = _matches_the_walk(graph, cell)
        assert basic.terminated
        kinds.update(s.kind for s in basic.steps)
    assert kinds["AddCurve"] and kinds["AddChain"]


@pytest.mark.parametrize(
    "case",
    [
        "custom:1,1,5",
        "custom:1,2,2",
        "custom:1,2,4",
        "custom:2,2,3",
        "custom:1,1,1,1",
        "custom:2,2,2",
        "custom:1,2,5",
        "custom:1,3,3",
        "custom:2,3,7",
        "custom:1,1,1,2",
    ],
)
def test_passes_match_the_plain_walk_on_stars(case):
    # the first three are negative definite; the rest are semidefinite
    # (1,1,1,1; 2,2,2; 1,2,5; 1,3,3) or indefinite, and a small step cap
    # ends their passes, which need not end on their own
    graph = parse_case(case)
    definite = graph.is_negative_definite()
    for cell in _walk_cells(case, 20, box=4):
        basic = _matches_the_walk(graph, cell, reduction.DEFAULT_STEP_CAP if definite else 200)
        if definite:
            assert basic.terminated


def test_add_chain_skips_a_pair_whose_path_crosses_a_one():
    # D4's curve order is 1, 2, 0, 3: of the 1's at 1, 2 and 0 the pair
    # (1, 2) comes first, but its path crosses the center's 1
    d4 = build_singularity("D", 4)
    assert d4.curve_order() == (1, 2, 0, 3)
    basic = _matches_the_walk(d4, (1, 1, 1, 0))
    first = basic.steps[0]
    assert (first.kind, first.nodes) == ("AddChain", (1, 0))


@pytest.mark.parametrize("step_cap", [0, 1, 2, 5, 13])
@pytest.mark.parametrize("case", ["D8", "E7"])
def test_passes_match_the_plain_walk_under_small_step_caps(case, step_cap):
    graph = parse_case(case)
    for cell in _walk_cells(case, 15):
        _matches_the_walk(graph, cell, step_cap)


@pytest.mark.parametrize("case", ["A8", "D12", "E8"])
def test_passes_match_the_plain_walk_with_known_stops(case):
    graph = parse_case(case)
    cells = _walk_cells(case, 20)
    known = {}
    stopped = 0
    for cell in cells:
        nef = reduce_to_nef(cell, graph)
        full = reduce_nef_to_basic(nef.terminal, graph)
        basic = _matches_the_walk(graph, cell, known=known)
        stopped += len(basic.steps) < len(full.steps)
        # the add-phase degrees of this cell's pass stop the later ones
        known.update((s.degree_before, 0) for s in full.steps if s.adds_curves())
    assert stopped


def _tuple_trace(trace, start):
    """Assert that ``trace`` starts at ``start``, that its degrees are
    tuples and that its steps compose."""
    assert type(trace.initial) is tuple and trace.initial == tuple(start)
    assert type(trace.terminal) is tuple
    d = trace.initial
    for step in trace.steps:
        assert type(step.degree_before) is tuple and type(step.degree_after) is tuple
        assert step.degree_before == d
        d = step.degree_after
    assert d == trace.terminal


@pytest.mark.parametrize("case", ["D8", "E7"])
def test_traces_hold_only_tuples(case, monkeypatch):
    # the passes move a list in place; every degree they hand out is a
    # tuple, from list input too
    graph = parse_case(case)
    cells = _walk_cells(case, 25)
    for cell in cells:
        nef = reduce_to_nef(list(cell), graph)
        _tuple_trace(nef, cell)
        _tuple_trace(reduce_nef_to_basic(list(nef.terminal), graph), nef.terminal)
        _tuple_trace(reduction.reduce(graph, list(cell)), cell)
    knowns = []
    basic_pass = reduction._basic_pass

    def recording(degree, graph, step_cap, known):
        knowns.append(known)
        return basic_pass(degree, graph, step_cap, known)

    monkeypatch.setattr(reduction, "_basic_pass", recording)
    assert sections.sweep(graph, cells)["ok"]
    assert knowns and knowns[0]
    assert all(type(key) is tuple for known in knowns for key in known)


# the checkers each step kind goes through: a ShiftToLeaf is checked as
# the add step it reverses, an AddCurve at its leaf or an AddChain
_RULES = {
    "SubtractCurve": ("_expect_subtract_curve",),
    "AddCurve": ("_expect_add_curve",),
    "AddChain": ("_expect_add_chain",),
    "ShiftToLeaf": ("_expect_add_curve", "_expect_add_chain"),
}


def _count_checks(monkeypatch):
    """Wrap the three checkers; returns the list of (checker name, args,
    result) of their calls, in call order."""
    checked = []
    for name in sorted(set().union(*_RULES.values())):
        def counting(*args, name=name, check=getattr(reduction, name)):
            result = check(*args)
            checked.append((name, args, result))
            return result
        monkeypatch.setattr(reduction, name, counting)
    return checked


def _checker_call(step, graph):
    """The checker a pass calls on ``step`` and what it hands it: the
    step's own degree tuples, the positions of its nodes and curves
    under ``graph.index_of``, its node ids and, to an add checker, its
    kind. A ShiftToLeaf onto j hands its after-degree as the source and
    its before-degree as the target of the AddCurve at j, when its
    curves are j alone, or of the AddChain from its first curve to j."""
    idx, kind = graph.index_of, step.kind
    if kind in ("SubtractCurve", "AddCurve"):
        (v,) = step.nodes
        if kind == "SubtractCurve":
            return "_expect_subtract_curve", (step.degree_before, idx[v], v)
        return "_expect_add_curve", (step.degree_before, idx[v], v, kind)
    positions = tuple(idx[v] for v in step.curves)
    if kind == "AddChain":
        source, target, (i, j) = step.degree_before, step.degree_after, step.nodes
    else:
        source, target, i, j = step.degree_after, step.degree_before, step.curves[0], step.nodes[1]
        if i == j:
            return "_expect_add_curve", (source, idx[j], j, kind)
    return "_expect_add_chain", (source, target, positions, i, j, graph, kind)


def _assert_each_step_checked_once(steps, checked, graph):
    """Each step in ``steps`` went through one checker call, in order,
    the checker of its kind's rule, on its own degree tuples and the
    positions of its nodes, got the checker's value as its expected
    dimension and has every slot set; the checkers saw no other step.
    Returns the (kind, checker name) pairs met."""
    handed = [(name, args) for name, args, _ in checked]
    expected = [_checker_call(s, graph) for s in steps]
    assert handed == expected
    for step, (name, _) in zip(steps, handed):
        assert name in _RULES[step.kind]
    # the degrees handed over are the step's own tuples, not copies
    for (name, a), (_, e) in zip(handed, expected):
        assert a[0] is e[0]
        assert name != "_expect_add_chain" or a[1] is e[1]
    assert [s.expected_cokernel_dim for s in steps] == [r for _, _, r in checked]
    for step in steps:
        assert all(hasattr(step, field) for field in ReductionStep.__slots__)
        assert step.actual_dim is None
    return {(s.kind, name) for s, (name, _) in zip(steps, handed)}


# every (kind, checker) pair: both forms of a ShiftToLeaf
_ALL_RULES = {(kind, name) for kind, names in _RULES.items() for name in names}


def test_the_passes_check_every_step_once(monkeypatch):
    checked = _count_checks(monkeypatch)
    graph = parse_case("E7")
    steps = []
    for cell in _walk_cells("E7", 15):
        steps += reduction.reduce(graph, cell).steps
    assert _assert_each_step_checked_once(steps, checked, graph) == _ALL_RULES


def test_the_sweep_checks_every_basic_step_once(monkeypatch):
    checked = _count_checks(monkeypatch)
    steps = []
    basic_pass = reduction._basic_pass

    def recording(degree, graph, step_cap, known):
        trace = basic_pass(degree, graph, step_cap, known)
        steps.extend(trace.steps)
        return trace

    monkeypatch.setattr(reduction, "_basic_pass", recording)
    graph = parse_case("D8")
    assert sections.sweep(graph, grid_sample(8, 100))["ok"]
    # the sweep reads its nef passes off least_nef_cycles, which builds
    # no steps
    met = _assert_each_step_checked_once(steps, checked, graph)
    assert met == {pair for pair in _ALL_RULES if pair[0] != "SubtractCurve"}


@pytest.mark.parametrize("case", ["A8", "D8", "E8", "custom:2,2,3"])
def test_the_passes_check_each_step_as_expected_cokernel_dim_does(case, monkeypatch):
    # the passes hand each checker the degree they hold and positions
    # from their scan or the step table; expected_cokernel_dim reads the
    # same off the step through graph.index_of, and both agree
    checked = _count_checks(monkeypatch)
    graph = parse_case(case)
    # a small step cap ends the passes on the indefinite star
    cap = reduction.DEFAULT_STEP_CAP if graph.is_negative_definite() else 200
    steps = []
    for cell in _walk_cells(case, 25):
        steps += reduction.reduce(graph, cell, cap).steps
    assert {s.kind for s in steps} == set(_RULES)
    _assert_each_step_checked_once(steps, checked, graph)
    for step in steps:
        assert step.expected_cokernel_dim == expected_cokernel_dim(step, graph)


@pytest.mark.parametrize("case", ["A8", "D8", "E8", "custom:2,2,3"])
def test_every_shift_stores_the_dimension_the_count_gives(case):
    # checked as the add step it reverses, each ShiftToLeaf of a pass
    # stores what cokernel_dimension counts from its degrees
    graph = parse_case(case)
    pres = presentation_from_graph(graph)
    cap = reduction.DEFAULT_STEP_CAP if graph.is_negative_definite() else 200
    shifts = [
        s
        for cell in _walk_cells(case, 25)
        for s in reduction.reduce(graph, cell, cap).steps
        if s.kind == "ShiftToLeaf"
    ]
    assert shifts
    for step in shifts:
        assert step.expected_cokernel_dim == cokernel_dimension(pres, step)


def _refuse(*args):
    raise HypothesisViolationError("refused")


def test_a_refusing_subtract_checker_stops_the_nef_pass(monkeypatch):
    monkeypatch.setattr(reduction, "_expect_subtract_curve", _refuse)
    # the sweep takes its nef passes from least_nef_cycles, which builds
    # no steps, so only the stepwise pass meets this checker
    with pytest.raises(HypothesisViolationError, match="refused"):
        reduce_to_nef((-1,) + (0,) * 6, parse_case("E7"))


@pytest.mark.parametrize("kind", ["AddCurve", "AddChain", "ShiftToLeaf"])
def test_a_refusing_checker_stops_the_basic_pass_and_the_sweep(kind, monkeypatch):
    graph = parse_case("E7")
    cells = _walk_cells("E7", 15)
    nef = [reduce_to_nef(cell, graph).terminal for cell in cells]
    # a nef terminal whose basic pass takes a step of this kind
    start = next(d for d in nef if kind in {s.kind for s in reduce_nef_to_basic(d, graph).steps})
    # each checker of the kind's rule refuses the steps of that kind,
    # named by its last argument, and passes the others on
    for name in _RULES[kind]:
        def refusing(*args, check=getattr(reduction, name)):
            return _refuse() if args[-1] == kind else check(*args)
        monkeypatch.setattr(reduction, name, refusing)
    with pytest.raises(HypothesisViolationError, match="refused"):
        reduce_nef_to_basic(start, graph)
    with pytest.raises(HypothesisViolationError, match="refused"):
        sections.sweep(graph, cells)


# ------------------------------------------------------------- step table


def _expand(support, width):
    """The dense vector of a support; its indices rise and its entries
    are nonzero."""
    indices = [i for i, _ in support]
    assert indices == sorted(set(indices))
    assert all(e for _, e in support)
    dense = [0] * width
    for i, e in support:
        dense[i] = e
    return tuple(dense)


@pytest.mark.parametrize(
    "graph",
    [parse_case("A8"), parse_case("D12"), parse_case("E8")],
    ids=["A8", "D12", "E8"],
)
def test_step_table_supports_expand_to_the_columns(graph):
    table = reduction._StepTable(graph)
    width = len(graph.nodes)
    weights = reduction._twice_weights(graph)
    order = graph.curve_order()
    spots = tuple((x, graph.index_of[x]) for x in order)
    # a node's entry is the chain from it to itself, its column's support
    for v in graph.nodes:
        assert table.entries[v] is table.chain(v, v)
        assert table.chain(v, v)[:2] == ((v,), (v,))
        assert _expand(table.chain(v, v)[3], width) == graph.columns[v]
    for u in graph.nodes:
        for w in graph.nodes:
            nodes, path, positions, support, move, tail, start = table.chain(u, w)
            assert nodes == ((u, w) if u != w else (u,))
            assert path == graph.path(u, w)
            assert positions == tuple(graph.index_of[x] for x in path)
            dense = reduction._sum_columns(graph.columns, path)
            assert _expand(support, width) == dense
            assert move == sum(a * b for a, b in zip(weights, dense))
            assert positions[1:-1] == tuple(graph.index_of[x] for x in path[1:-1])
            # the pass resumes at the first spot in curve order that the
            # summed column moves, which is no later than u's
            assert start == next(k for k, x in enumerate(order) if dense[graph.index_of[x]])
            assert start <= order.index(u)
            assert tail == spots[start:]


# ---------------------------------------------------------- expected dims


def test_expected_dim_subtract_curve():
    d4 = build_singularity("D", 4)
    step = _step(d4, "SubtractCurve", (1,), (1,), (0, -1, 0, 0))
    assert expected_cokernel_dim(step, d4) == 0


def test_expected_dim_add_curve():
    d4 = build_singularity("D", 4)
    step = _step(d4, "AddCurve", (1,), (1,), (0, 2, 0, 0))
    assert expected_cokernel_dim(step, d4) == 1
    step3 = _step(d4, "AddCurve", (1,), (1,), (0, 3, 0, 0))
    assert expected_cokernel_dim(step3, d4) == 2


def test_expected_dim_add_chain():
    d4 = build_singularity("D", 4)
    step = _step(d4, "AddChain", (1, 3), (1, 0, 3), (0, 1, 0, 1))
    assert step.degree_after == (0, 0, 1, 0)
    assert expected_cokernel_dim(step, d4) == 1


def test_expected_dim_shift():
    d5 = build_singularity("D", 5)
    hop = _step(d5, "ShiftToLeaf", (0, 4), (3, 4), (1, 0, 0, 0, 0))
    assert expected_cokernel_dim(hop, d5) == 1
    land = _step(d5, "ShiftToLeaf", (3, 4), (4,), (0, 0, 0, 1, 1))
    assert land.degree_after == (0, 0, 0, 0, 3)
    assert expected_cokernel_dim(land, d5) == 2


def test_expected_dim_hypothesis_violations():
    d4 = build_singularity("D", 4)
    d5 = build_singularity("D", 5)
    bad_sub = _step(d4, "SubtractCurve", (1,), (1,), (0, 1, 0, 0))
    with pytest.raises(HypothesisViolationError, match="negative coordinate"):
        expected_cokernel_dim(bad_sub, d4)
    bad_add = _step(d4, "AddCurve", (1,), (1,), (0, 1, 0, 0))
    with pytest.raises(HypothesisViolationError, match="coordinate >= 2"):
        expected_cokernel_dim(bad_add, d4)
    bad_chain = _step(d5, "AddChain", (1, 4), (1, 0, 3, 4), (0, 1, 0, 1, 1))
    with pytest.raises(HypothesisViolationError, match="zeros strictly between"):
        expected_cokernel_dim(bad_chain, d5)
    bad_shift = _step(d5, "ShiftToLeaf", (0, 4), (3, 4), (0, 0, 0, 2, 1))
    with pytest.raises(HypothesisViolationError):
        expected_cokernel_dim(bad_shift, d5)


@pytest.mark.parametrize(
    "rank, nodes, curves, before, after, phrase",
    [
        (5, (0, 4), (3, 4), (1, 0, 0, 0, 0), (1, 0, 0, 1, -1), "needs a nef degree"),
        (5, (0, 4), (3, 4), (0, 0, 0, 0, 0), (0, 0, 0, 2, 1), "needs coordinate 1 at node 3"),
        (5, (0, 4), (3, 4), (0, 0, 0, 0, 0), (0, 0, 0, 1, 0), "positive coordinate at node 4"),
        (6, (0, 5), (3, 4, 5), (0,) * 6, (0, 0, 0, 1, 1, 1), "zeros strictly between nodes 3 and 5"),
        (5, (3, 4), (4,), (0, 0, 0, 1, -1), (0, 0, 0, 0, 1), "coordinate >= 2 at node 4, got 1"),
        # the two that the reversed AddChain adds: a landing of 2 or more
        # on an interior node, and degrees that differ by more than the
        # path's columns; both passed before shifts were checked as adds
        (5, (1, 3), (0, 3), (0, 0, 0, 0, 0), (1, 0, 0, 2, 0), "into interior node 3"),
        (5, (0, 4), (3, 4), (1, 0, 0, 1, 0), (0, 0, 0, 1, 1), "restricted degrees"),
    ],
    ids=["nef", "one-at-q", "positive-at-j", "zeros-between", "leaf-alone",
         "interior-landing", "off-the-columns"],
)
def test_hand_built_shift_violations_name_the_shift(rank, nodes, curves, before, after, phrase):
    graph = build_singularity("D", rank)
    step = ReductionStep("ShiftToLeaf", nodes, curves, before, after)
    with pytest.raises(HypothesisViolationError, match="^ShiftToLeaf .*" + phrase):
        expected_cokernel_dim(step, graph)


# ------------------------------------------------------------- cokernels


def test_audit_subtract_curve():
    d4 = build_singularity("D", 4)
    pres = presentation_from_graph(d4)
    step = _step(d4, "SubtractCurve", (1,), (1,), (0, -1, 0, 0))
    report = audit_step(pres, step, d4)
    assert report["ok"]
    assert report["expected"] == 0 and report["actual"] == 0


def test_audit_add_curve_single_section():
    d4 = build_singularity("D", 4)
    report = audit_add_curve(d4, 1, k=2)
    assert report["ok"]
    assert report["expected"] == 1 and report["actual"] == 1


def test_audit_add_chain():
    d4 = build_singularity("D", 4)
    pres = presentation_from_graph(d4)
    step = _step(d4, "AddChain", (1, 3), (1, 0, 3), (0, 1, 0, 1))
    report = audit_step(pres, step, d4)
    assert report["ok"]
    assert report["expected"] == 1 and report["actual"] == 1


def test_audit_deep_piece_escalates_cap():
    d6 = build_singularity("D", 6)
    pres = presentation_from_graph(d6)
    step = _step(d6, "ShiftToLeaf", (4, 5), (5,), (0, 0, 0, 0, 1, 2))
    assert step.degree_after == (0, 0, 0, 0, 0, 4)
    report = audit_step(pres, step, d6)
    assert report["ok"]
    assert report["expected"] == 3 and report["actual"] == 3


def test_audit_wide_add_curve_at_default_cap():
    d6 = build_singularity("D", 6)
    pres = presentation_from_graph(d6)
    step = _step(d6, "AddCurve", (5,), (5,), (1, 1, 1, 0, 1, 2))
    report = audit_step(pres, step, d6)
    assert report["ok"]
    assert report["expected"] == 1 and report["actual"] == 1


def _eliminated_dims(pres, step, graph, cap):
    """The cokernel dimensions at cap - 1 and cap by elimination: the
    normal forms of every lead-free source monomial times the chain
    monomial, as sparse rows over the lead-free target monomials."""
    grading = pres.grading
    mono = grading.monomial(Counter(graph.curve_variable(v) for v in step.curves))
    if step.adds_curves():
        source, target = step.degree_before, step.degree_after
    else:
        source, target = step.degree_after, step.degree_before
    std = graded_piece_basis(pres, target, cap)
    index = {m: i for i, m in enumerate(std)}
    rows, inner_rows = [], []
    budget = cap - sum(mono)
    for s in graded_piece_basis(pres, source, budget) if budget >= 0 else ():
        form = normal_form({tuple(map(add, s, mono)): 1}, pres)
        row = {index.setdefault(m, len(index)): int(c) for m, c in form.items()}
        rows.append(row)
        if sum(s) < budget:
            inner_rows.append(row)
    inner_std = sum(1 for m in std if sum(m) < cap)
    return inner_std - rank_sparse(inner_rows), len(std) - rank_sparse(rows)


@pytest.mark.parametrize("case", ["A4", "D5", "E6", "custom:2,2,3", "custom:1,2,5"])
def test_cokernel_count_matches_elimination(case):
    # the AddCurve steps from 2*e_leaf and the steps of four sampled
    # degrees; a pass on a star that is not negative definite may not
    # terminate, so each pass stops after 12 steps. The truncated
    # elimination is only a reference where it has settled: at the
    # first cap, from one above the highest total of the target's zero
    # slices at the curves of the step, where it agrees with the cap
    # below. Lower caps can agree on a value that is still short
    graph = parse_case(case)
    pres = presentation_from_graph(graph)
    steps = {}
    for leaf in graph.basic_leaves():
        before = tuple(2 if v == leaf else 0 for v in graph.nodes)
        step = _step(graph, "AddCurve", (leaf,), (leaf,), before)
        steps[(step.kind, step.curves, step.degree_before)] = step
    for d in grid_sample(len(graph.nodes), 4, seed=5):
        for step in reduction.reduce(graph, d, step_cap=12).steps:
            steps.setdefault((step.kind, step.curves, step.degree_before), step)
    assert len(steps) >= 30
    grading = pres.grading
    for step in steps.values():
        target = step.degree_after if step.adds_curves() else step.degree_before
        top = max(
            (
                sum(u)
                for v in step.curves
                for u in reduction._slice_basis(
                    grading.matrix, target, grading.index("y%d" % v), 0, None)
            ),
            default=0,
        )
        for cap in range(top + 1, top + 42, 4):
            previous, current = _eliminated_dims(pres, step, graph, cap)
            if previous == current:
                break
        else:
            pytest.fail("the elimination did not settle within cap %d on %r" % (cap, step))
        assert cokernel_dimension(pres, step) == current, (step, cap)


def test_a_zero_slice_of_an_indefinite_star_matches_a_box_oracle():
    # custom:2,7,1 is not negative definite, yet its zero slice at y9
    # is finite, and its pivot conditions bound it with no cap: the
    # points are those of the box enumeration of tests/oracle.py, every
    # one well inside the box
    graph = parse_case("custom:2,7,1")
    grading = graph.grading()
    j = grading.index("y9")
    rng = random.Random(1)
    for _ in range(6):
        s = [rng.randint(0, 2) for _ in range(grading.width)]
        s[j] = 0
        target = grading.degree_of(tuple(s))
        got = reduction._slice_basis(grading.matrix, target, j, 0, None)
        assert len(got) == len(set(got))
        box = {u for u in oracle.box_exponent_tuples(graph, target, 40) if u[j] == 0}
        assert set(got) == box, target
        assert all(max(u) <= 20 for u in got), target


@pytest.mark.parametrize(
    "case,box",
    [("A3", 20), ("A6", 120), ("D4", 20), ("D5", 20), ("E6", 20), ("custom:2,2,3", 20), ("custom:2,2,2", 20)],
)
def test_cokernel_count_matches_a_box_oracle(case, box):
    # brute force through tests/oracle.py, not fiber_points: the
    # monomials of the target degree in [0, box]^width that neither the
    # chain monomial m nor a relation term T coprime to m divides, on
    # the AddCurve steps from k*e_leaf, k = 2, 3, and the steps of six
    # degrees in [-1, 1]^n; every one found lies well inside the box.
    # A6 has chain steps whose slices at different curves differ, and
    # exponents past 20
    graph = parse_case(case)
    pres = presentation_from_graph(graph)
    grading = pres.grading
    steps = {}
    for leaf in graph.basic_leaves():
        for k in (2, 3):
            before = tuple(k if v == leaf else 0 for v in graph.nodes)
            step = _step(graph, "AddCurve", (leaf,), (leaf,), before)
            steps[(step.kind, step.curves, step.degree_before)] = step
    rng = random.Random(3)
    for _ in range(6):
        d = tuple(rng.randint(-1, 1) for _ in graph.nodes)
        for step in reduction.reduce(graph, d, step_cap=6).steps:
            steps.setdefault((step.kind, step.curves, step.degree_before), step)
    assert len(steps) >= 10

    def divides(a, b):
        return all(x <= y for x, y in zip(a, b))

    for step in steps.values():
        target = step.degree_after if step.adds_curves() else step.degree_before
        m = grading.monomial({graph.curve_variable(v): 1 for v in step.curves})
        coprime = [t for t in pres.relation or () if not any(a and b for a, b in zip(t, m))]
        assert coprime or pres.relation is None
        standard = [
            u
            for u in oracle.box_exponent_tuples(graph, target, box)
            if not divides(m, u) and not (coprime and divides(coprime[0], u))
        ]
        assert all(max(u) <= box // 2 for u in standard), step
        assert cokernel_dimension(pres, step) == len(standard), step


def test_cokernel_dimension_rejects_degrees_that_its_curves_do_not_join():
    d4 = build_singularity("D", 4)
    step = ReductionStep("AddCurve", (1,), (1,), (0, 2, 0, 0), (1, 0, 0, 1))
    with pytest.raises(ParameterError, match="step degrees are inconsistent with its curves"):
        cokernel_dimension(presentation_from_graph(d4), step)


def test_cokernel_dimension_needs_a_relation_term_coprime_to_the_step():
    # leaf 1's quotient keeps the terms of arms 2 and 3, and the chain
    # 2-0-3 meets both
    d4 = build_singularity("D", 4)
    step = _step(d4, "AddChain", (2, 3), (2, 0, 3), (0, 0, 1, 1))
    with pytest.raises(ParameterError, match="every relation term shares a variable with the step"):
        cokernel_dimension(presentation_from_graph(d4, 1), step)


def test_audited_sample_agrees_with_expectations():
    for family_n in (4, 5):
        graph = build_singularity("D", family_n)
        pres = presentation_from_graph(graph)
        audited = 0
        for d in _lcg_degrees(8, family_n, lo=-2, hi=2, seed=7):
            nef = reduce_to_nef(d, graph)
            basic = reduce_nef_to_basic(nef.terminal, graph)
            for step in list(nef.steps) + list(basic.steps):
                report = audit_step(pres, step, graph)
                assert report["ok"], report
                audited += 1
        assert audited >= 10


# ----------------------------------------------------------- base cases


# the quotient relation and lead at every branch end of D4-D12 and E6-E8
QUOTIENTS = {
    ("D4", 1): ("x3^2*y3 + x2^2*y2", "x2^2*y2"),
    ("D4", 2): ("x3^2*y3 + x1^2*y1", "x1^2*y1"),
    ("D4", 3): ("x2^2*y2 + x1^2*y1", "x1^2*y1"),
    ("D5", 1): ("x2^2*y2 + x4^3*y3*y4^2", "x2^2*y2"),
    ("D5", 2): ("x1^2*y1 + x4^3*y3*y4^2", "x1^2*y1"),
    ("D5", 4): ("x2^2*y2 + x1^2*y1", "x1^2*y1"),
    ("D6", 1): ("x2^2*y2 + x5^4*y3*y4^2*y5^3", "x2^2*y2"),
    ("D6", 2): ("x1^2*y1 + x5^4*y3*y4^2*y5^3", "x1^2*y1"),
    ("D6", 5): ("x2^2*y2 + x1^2*y1", "x1^2*y1"),
    ("D7", 1): ("x2^2*y2 + x6^5*y3*y4^2*y5^3*y6^4", "x2^2*y2"),
    ("D7", 2): ("x1^2*y1 + x6^5*y3*y4^2*y5^3*y6^4", "x1^2*y1"),
    ("D7", 6): ("x2^2*y2 + x1^2*y1", "x1^2*y1"),
    ("D8", 1): ("x2^2*y2 + x7^6*y3*y4^2*y5^3*y6^4*y7^5", "x2^2*y2"),
    ("D8", 2): ("x1^2*y1 + x7^6*y3*y4^2*y5^3*y6^4*y7^5", "x1^2*y1"),
    ("D8", 7): ("x2^2*y2 + x1^2*y1", "x1^2*y1"),
    ("D9", 1): ("x2^2*y2 + x8^7*y3*y4^2*y5^3*y6^4*y7^5*y8^6", "x2^2*y2"),
    ("D9", 2): ("x1^2*y1 + x8^7*y3*y4^2*y5^3*y6^4*y7^5*y8^6", "x1^2*y1"),
    ("D9", 8): ("x2^2*y2 + x1^2*y1", "x1^2*y1"),
    ("D10", 1): ("x2^2*y2 + x9^8*y3*y4^2*y5^3*y6^4*y7^5*y8^6*y9^7", "x2^2*y2"),
    ("D10", 2): ("x1^2*y1 + x9^8*y3*y4^2*y5^3*y6^4*y7^5*y8^6*y9^7", "x1^2*y1"),
    ("D10", 9): ("x2^2*y2 + x1^2*y1", "x1^2*y1"),
    ("D11", 1): ("x2^2*y2 + x10^9*y3*y4^2*y5^3*y6^4*y7^5*y8^6*y9^7*y10^8", "x2^2*y2"),
    ("D11", 2): ("x1^2*y1 + x10^9*y3*y4^2*y5^3*y6^4*y7^5*y8^6*y9^7*y10^8", "x1^2*y1"),
    ("D11", 10): ("x2^2*y2 + x1^2*y1", "x1^2*y1"),
    ("D12", 1): ("x2^2*y2 + x11^10*y3*y4^2*y5^3*y6^4*y7^5*y8^6*y9^7*y10^8*y11^9", "x2^2*y2"),
    ("D12", 2): ("x1^2*y1 + x11^10*y3*y4^2*y5^3*y6^4*y7^5*y8^6*y9^7*y10^8*y11^9", "x1^2*y1"),
    ("D12", 11): ("x2^2*y2 + x1^2*y1", "x1^2*y1"),
    ("E6", 1): ("x5^3*y4*y5^2 + x3^3*y2*y3^2", "x3^3*y2*y3^2"),
    ("E6", 3): ("x1^2*y1 + x5^3*y4*y5^2", "x1^2*y1"),
    ("E6", 5): ("x1^2*y1 + x3^3*y2*y3^2", "x1^2*y1"),
    ("E7", 1): ("x3^3*y2*y3^2 + x6^4*y4*y5^2*y6^3", "x3^3*y2*y3^2"),
    ("E7", 3): ("x1^2*y1 + x6^4*y4*y5^2*y6^3", "x1^2*y1"),
    ("E7", 6): ("x1^2*y1 + x3^3*y2*y3^2", "x1^2*y1"),
    ("E8", 1): ("x3^3*y2*y3^2 + x7^5*y4*y5^2*y6^3*y7^4", "x3^3*y2*y3^2"),
    ("E8", 3): ("x1^2*y1 + x7^5*y4*y5^2*y6^3*y7^4", "x1^2*y1"),
    ("E8", 7): ("x1^2*y1 + x3^3*y2*y3^2", "x1^2*y1"),
}


@pytest.mark.parametrize("case,leaf", sorted(QUOTIENTS))
def test_quotient_presentation_frozen(case, leaf):
    graph = parse_case(case)
    qp = presentation_from_graph(graph, leaf)
    name = "x%d" % leaf
    assert qp.grading.variables == tuple(v for v in graph.grading().variables if v != name)
    relation, lead = QUOTIENTS[(case, leaf)]
    assert qp.grading.format_polynomial(qp.relation) == relation
    assert qp.grading.format_monomial(qp.lead) == lead


def test_quotient_presentation_d5_long_leaf():
    d5 = build_singularity("D", 5)
    qp = presentation_from_graph(d5, 4)
    assert qp.grading.format_polynomial(qp.relation) == "x2^2*y2 + x1^2*y1"
    assert qp.grading.format_monomial(qp.lead) == "x1^2*y1"


def test_quotient_presentation_chain_is_free():
    a3 = build_singularity("A", 3)
    qp = presentation_from_graph(a3, 1)
    assert qp.relation is None
    assert qp.grading.variables == ("x3", "y1", "y2", "y3")


def test_quotient_presentation_rejects_center():
    d4 = build_singularity("D", 4)
    with pytest.raises(ParameterError):
        presentation_from_graph(d4, 0)


@pytest.mark.parametrize(
    "case,leaf", [("custom:2,2,3", 2), ("custom:2,2,2", 2), ("custom:1,2,5", 8)]
)
def test_base_case_rejects_a_graph_that_is_not_negative_definite(case, leaf):
    # the series holds only on negative definite graphs; the check comes first
    graph = parse_case(case)
    with pytest.raises(ParameterError, match="negative definite"):
        base_case_audit(graph, leaf, 1)


def test_base_case_rejects_a_chain():
    # a chain has no center, so no y0 to slice on
    with pytest.raises(ParameterError, match="needs a star"):
        base_case_audit(build_singularity("A", 3), 3, 1)


def test_base_case_audit_d4_frozen():
    d4 = build_singularity("D", 4)
    assert base_case_audit(d4, 1, 1) == {
        "case": "D4", "leaf": 1, "k": 1, "arm": 1, "reached": 9, "ok": True}
    with pytest.raises(ParameterError, match="k must be positive"):
        base_case_audit(d4, 1, 0)


def test_base_case_audit_d5_long_leaf():
    d5 = build_singularity("D", 5)
    assert base_case_audit(d5, 4, 1) == {
        "case": "D5", "leaf": 4, "k": 1, "arm": 2, "reached": 20, "ok": True}
    assert base_case_audit(d5, 4, 2)["reached"] == 25


@pytest.mark.parametrize("leaf", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2])
def test_base_case_audit_d4_all_leaves(leaf, k):
    d4 = build_singularity("D", 4)
    assert base_case_audit(d4, leaf, k)["ok"]


@pytest.mark.parametrize("n", range(4, 13))
def test_base_case_period_is_a_golden_generator(n):
    # the series' period, arm + 1, is the y0 exponent of a golden
    # generator free of the leaf's section variable; those come from
    # closed formulas, not from slices: the long leaf n - 1 gets Z2, the
    # short leaves Z3 on even D and Z1 on odd D
    graph = build_singularity("D", n)
    grading = graph.grading()
    golden = dict(golden_generators(graph))
    y0 = grading.index("y0")
    for leaf in graph.basic_leaves():
        mono = golden["Z2" if leaf == n - 1 else ("Z3" if n % 2 == 0 else "Z1")]
        assert mono[grading.index(section_name_at(graph, leaf))] == 0
        for k in (1, 2, 3):
            report = base_case_audit(graph, leaf, k)
            assert report["ok"] and mono[y0] == report["arm"] + 1, (leaf, k)


@pytest.mark.parametrize("case", ["D%d" % n for n in range(4, 13)] + ["E6", "E7", "E8"])
def test_base_case_stop_reads_the_reference_generators(case):
    # each section's period m_i and y0 step q_i, which the stop is built
    # from, are the section and y0 exponents of the reference generator
    # that is a power of that section alone (a closed formula on D, a
    # table on E), not a count of slices
    graph = parse_case(case)
    grading = graph.grading()
    golden = golden_generators(graph)
    columns = [grading.index(name) for name, _ in graph.leaf_variables]
    y0 = grading.index("y0")
    seen = set()
    for leaf in graph.basic_leaves():
        qp = presentation_from_graph(graph, leaf)
        _, periods = sections._base_case_stop(graph, qp, graph.unit_degree(leaf), 1, 1)
        for name, (m, q) in periods.items():
            i = grading.index(name)
            (power,) = [e for _, e in golden if e[i] and not any(e[s] for s in columns if s != i)]
            assert (power[i], power[y0]) == (m, q), (leaf, name)
            seen.add(name)
    assert seen == {name for name, _ in graph.leaf_variables}


def _box_slice_counts(graph, leaf, k, reached, bound):
    """The standard monomials of degree k*e_leaf in the leaf's quotient
    counted per y0 exponent up to ``reached``, from the brute-force box
    of exponents <= bound: those without the leaf's section variable and
    not divisible by the quotient's lead."""
    qp = presentation_from_graph(graph, leaf)
    lead = dict(zip(qp.grading.variables, qp.lead))
    section = section_name_at(graph, leaf)
    counts = Counter(
        m["y0"]
        for m in oracle.box_monomials(graph, tuple(k * c for c in graph.unit_degree(leaf)), bound)
        if not m[section] and m["y0"] <= reached and not all(m[v] >= e for v, e in lead.items())
    )
    return [counts[e] for e in range(reached + 1)]


@pytest.mark.parametrize("case", ["D4", "D5", "E6", "custom:2,1,1"])
def test_base_case_counts_match_the_box_oracle(case):
    # custom:2,1,1 is D5 with its arms in another order
    graph = parse_case(case)
    for leaf in graph.basic_leaves():
        for k in (1, 2):
            report = base_case_audit(graph, leaf, k)
            arm, reached = report["arm"], report["reached"]
            counts = _box_slice_counts(graph, leaf, k, reached, 2 * reached)
            # the box is big enough: doubling it finds no further point
            assert counts == _box_slice_counts(graph, leaf, k, reached, 4 * reached)
            series = [int(e >= k * arm and (e - k * arm) % (arm + 1) == 0) for e in range(reached + 1)]
            assert report["ok"] and counts == series, (leaf, k)


def test_base_case_audit_fails_on_a_lost_monomial(monkeypatch):
    # slice 3 of D4's leaf 1 at k = 1 holds one standard monomial; lose it
    honest = reduction._slice_basis

    def lossy(matrix, target, j, e, lead):
        basis = honest(matrix, target, j, e, lead)
        return basis[1:] if e == 3 else basis

    monkeypatch.setattr(reduction, "_slice_basis", lossy)
    d4 = build_singularity("D", 4)
    assert base_case_audit(d4, 1, 1)["ok"] is False
    report = full_equivalence_audit(d4, (0, -1, 0, 0))
    assert report["terminal"] == [0, 1, 0, 0]
    assert report["base_case"]["ok"] is False
    assert report["ok"] is False


@pytest.mark.parametrize("case", ["D4", "D5", "E6", "E8", "custom:2,1,1", "custom:4,2,1"])
def test_base_case_audit_fails_on_a_monomial_lost_past_three_periods(case, monkeypatch):
    # the one standard monomial of slice k*l + 4(l + 1) lies past the
    # three periods a fixed stop would count, and within the derived one;
    # the permuted stars, D5 and E7 with their arms in another order, get
    # the base case from full_equivalence_audit too
    honest = reduction._slice_basis
    graph = parse_case(case)
    for leaf in graph.basic_leaves():
        arm = len(graph.branch_of(leaf))
        for k in (1, 2):
            lost = k * arm + 4 * (arm + 1)
            assert len(honest(*_leaf_slice(graph, leaf, k, lost))) == 1

            def lossy(matrix, target, j, e, lead, lost=lost):
                basis = honest(matrix, target, j, e, lead)
                return basis[1:] if e == lost else basis

            monkeypatch.setattr(reduction, "_slice_basis", lossy)
            degree = tuple(k * c for c in graph.unit_degree(leaf))
            assert base_case_audit(graph, leaf, k)["ok"] is False, (leaf, k)
            report = full_equivalence_audit(graph, degree)
            assert report["terminal"] == list(degree)
            assert report["base_case"]["ok"] is False and report["ok"] is False


def _leaf_slice(graph, leaf, k, e):
    """The arguments of _slice_basis for slice e of base_case_audit."""
    qp = presentation_from_graph(graph, leaf)
    target = tuple(k * c for c in graph.unit_degree(leaf))
    return qp.grading.matrix, target, qp.grading.index("y0"), e, qp.lead


def test_passes_and_audits_read_the_graph_columns(monkeypatch):
    d5 = build_singularity("D", 5)

    def rebuilt(self):
        raise AssertionError("intersection matrix rebuilt")

    monkeypatch.setattr(ResolutionGraph, "intersection_matrix", rebuilt)
    trace = reduction.reduce(d5, (-1, 2, 0, -2, 1))
    assert trace.terminated
    assert _pass_record(trace) == _walk(d5, (-1, 2, 0, -2, 1))
    reduction.audit(trace, presentation_from_graph(d5), d5)
    assert all(s.actual_dim == s.expected_cokernel_dim for s in trace.steps)
    assert audit_add_curve(d5, 1, k=2)["ok"]


def test_mutating_a_matrix_copy_leaves_reduce_unchanged():
    e6 = build_singularity("E", 6)
    degree = (-1, 2, 0, -3, 1, 0)
    before = reduction.reduce(e6, degree).to_dict()
    matrix = e6.intersection_matrix()
    matrix[0][0] = 7
    matrix[3][:] = [0] * 6
    assert reduction.reduce(e6, degree).to_dict() == before
    assert before == reduction.reduce(build_singularity("E", 6), degree).to_dict()


# ------------------------------------------------------------ full runs


def test_full_equivalence_audit_d4():
    d4 = build_singularity("D", 4)
    report = full_equivalence_audit(d4, (0, -1, 0, 0))
    assert report["ok"]
    assert len(report["steps"]) == 6
    assert [s["kind"] for s in report["steps"]] == ["SubtractCurve"] * 6
    assert report["terminal"] == [0, 1, 0, 0]
    assert report["base_case"]["ok"]


def test_full_equivalence_audit_zero_degree():
    d4 = build_singularity("D", 4)
    report = full_equivalence_audit(d4, (0, 0, 0, 0))
    assert report["ok"]
    assert report["steps"] == []
    assert report["terminal"] == [0, 0, 0, 0]
    assert report["base_case"] is None


@pytest.mark.parametrize(
    "case,degree,terminal",
    [
        ("E6", (0, -1, 0, 0, 1, -1), (0, 0, 0, 0, 0, 1)),
        ("E8", (0, 1, 0, -1, 0, 0, 1, -1), (0, 0, 0, 0, 0, 0, 0, 2)),
        ("E6", (0, -1, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0)),
    ],
    ids=["E6", "E8", "E6-zero"],
)
def test_full_equivalence_audit_runs_the_base_case_on_e_type(case, degree, terminal):
    graph = parse_case(case)
    report = full_equivalence_audit(graph, degree)
    assert report["ok"]
    assert report["terminal"] == list(terminal)
    if any(terminal):
        leaf = graph.nodes[next(i for i, c in enumerate(terminal) if c)]
        assert report["base_case"] == base_case_audit(graph, leaf, max(terminal))
        assert report["base_case"]["ok"]
    else:
        # a zero terminal has no base case to audit
        assert report["base_case"] is None


@pytest.mark.parametrize("label", ["D4", "custom:1,1,1"])
def test_full_equivalence_audit_reads_the_graph_not_the_label(label):
    # D4 and custom:1,1,1 are equal graphs, and only D4's builder gives
    # it a family; the base case runs on every negative definite star
    graph = parse_case(label)
    assert graph == build_singularity("D", 4)
    report = full_equivalence_audit(graph, (0, -1, 0, 0))
    assert report["ok"]
    assert report["base_case"] == base_case_audit(graph, 1, 1)
    assert report["base_case"]["case"] == label


def test_full_equivalence_audit_chain():
    a3 = build_singularity("A", 3)
    report = full_equivalence_audit(a3, (-1, 0, 0))
    assert report["ok"]
    assert [s["kind"] for s in report["steps"]] == ["SubtractCurve"] * 3
    assert report["terminal"] == [0, 0, 1]
    assert report["base_case"] is None


# -------------------------------------------------------- counterexample


def test_wide_branch_add_curve_fails_as_predicted():
    graph = build_custom_tree((2, 2, 3))
    report = audit_add_curve(graph, graph.nodes[-1], k=2)
    assert not report["ok"]
    assert report["expected"] == 1
    assert report["actual"] == 0


@pytest.mark.parametrize("node", [2, 4])
def test_wide_branch_short_leaves_still_pass(node):
    graph = build_custom_tree((2, 2, 3))
    report = audit_add_curve(graph, node, k=2)
    assert report["ok"]
    assert report["expected"] == 1 and report["actual"] == 1


@pytest.mark.parametrize("lengths,node", [((1, 1, 9), 1), ((1, 1, 9), 11), ((1, 2, 12), 1)])
def test_add_curve_audits_whose_cokernel_lies_past_total_degree_40(lengths, node):
    # the one standard monomial of each cokernel has total degree 55, 47
    # and 91; a count cut off at total degree 40 finds none there and
    # reports a counterexample on (1, 1, 9), the D12 star, where the rule
    # holds
    report = audit_add_curve(build_custom_tree(lengths), node, k=2)
    assert report["ok"]
    assert report["expected"] == 1 and report["actual"] == 1
