import gzip
import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxforge import reduction
from coxforge.cli import grid_sample, parse_case
from coxforge.cox import presentation_from_graph
from coxforge.errors import (
    HypothesisViolationError,
    ParameterError,
    ResourceCapError,
)
from coxforge.graphs import ResolutionGraph, build_custom_tree, build_singularity
from coxforge.linalg import rank_sparse
from coxforge.reduction import (
    ReductionStep,
    audit_add_curve,
    audit_step,
    base_case_audit,
    base_case_family,
    cokernel_dimension,
    expected_cokernel_dim,
    full_equivalence_audit,
    h0_tree,
    is_basic,
    quotient_presentation,
    reduce_nef_to_basic,
    reduce_to_nef,
    s_measure,
)
from coxforge.rings import Polynomial, graded_piece_basis, normal_form


def _step(graph, kind, nodes, curves, before):
    delta = reduction._sum_columns(graph.columns, curves)
    if kind in ("AddCurve", "AddChain"):
        after = reduction._vec_add(before, delta)
    else:
        after = reduction._vec_sub(before, delta)
    return ReductionStep(kind, nodes, curves, before, after)


# ---------------------------------------------------------------- measures


def test_s_measure_values():
    d4 = build_singularity("D", 4)
    assert s_measure((1, 0, 0, 0), d4) == Fraction(1)
    assert s_measure((0, 1, 0, 0), d4) == Fraction(1, 2)
    assert s_measure((0, 1, 1, 0), d4) == Fraction(1)
    assert s_measure((0, 0, 0, 2), d4) == Fraction(2)


def test_s_measure_chain_counts_all_coordinates():
    a3 = build_singularity("A", 3)
    assert s_measure((1, 1, 1), a3) == Fraction(2)


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
    got = s_measure(degree, graph)
    assert type(got) is Fraction
    assert got == expected


def test_h0_tree():
    assert h0_tree([0]) == 1
    assert h0_tree([3]) == 4
    assert h0_tree([0, 0, 3]) == 4
    assert h0_tree([2, 1]) == 4
    assert h0_tree([1, -1]) is None


def test_is_basic():
    d4 = build_singularity("D", 4)
    assert is_basic((0, 0, 0, 0), d4)
    assert is_basic((0, 3, 0, 0), d4)
    assert not is_basic((1, 0, 0, 0), d4)
    assert not is_basic((0, 1, 0, 1), d4)
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
    assert trace.validate(d4)


def test_reduce_to_nef_keeps_nef_input():
    d4 = build_singularity("D", 4)
    trace = reduce_to_nef((0, 1, 1, 0), d4)
    assert trace.steps == ()
    assert trace.terminal == (0, 1, 1, 0)
    assert trace.terminated


def test_add_chain_trace():
    d4 = build_singularity("D", 4)
    trace = reduce_nef_to_basic((0, 1, 1, 0), d4)
    assert [(s.kind, s.nodes, s.curves, s.degree_after) for s in trace.steps] == [
        ("AddChain", (1, 2), (1, 0, 2), (0, 0, 0, 1))
    ]
    assert trace.terminal == (0, 0, 0, 1)
    assert [str(m) for m in trace.measures] == ["1", "1"]
    assert trace.validate(d4)


def test_shift_trace_short_branch():
    d4 = build_singularity("D", 4)
    trace = reduce_nef_to_basic((1, 0, 0, 0), d4)
    assert [(s.kind, s.nodes, s.curves, s.degree_after) for s in trace.steps] == [
        ("ShiftToLeaf", (0, 3), (3,), (0, 0, 0, 2))
    ]
    assert trace.terminal == (0, 0, 0, 2)
    # the measure argument covers the add phase only, and there is none
    assert [str(m) for m in trace.measures] == ["1"]


def test_shift_trace_two_hops():
    d5 = build_singularity("D", 5)
    trace = reduce_nef_to_basic((1, 0, 0, 0, 0), d5)
    assert [(s.kind, s.nodes, s.curves, s.degree_after) for s in trace.steps] == [
        ("ShiftToLeaf", (0, 4), (3, 4), (0, 0, 0, 1, 1)),
        ("ShiftToLeaf", (3, 4), (4,), (0, 0, 0, 0, 3)),
    ]
    assert trace.terminal == (0, 0, 0, 0, 3)
    assert trace.validate(d5)


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
    # adding a (-3)-curve at coordinate 2 leaves -1 behind: (-1, 2) has a
    # single coordinate >= 2, at a leaf, but is not basic
    graph = ResolutionGraph([1, 2], [(1, 2)], {1: -3}, [("x1", 1), ("x2", 2)])
    capped = reduce_nef_to_basic((2, 1), graph, 1)
    assert not capped.terminated
    assert capped.terminal == (-1, 2)
    assert not is_basic(capped.terminal, graph)
    with pytest.raises(HypothesisViolationError, match="AddCurve needs a nef degree"):
        reduce_nef_to_basic((2, 1), graph)


def test_trace_validate_catches_tampering():
    d4 = build_singularity("D", 4)
    trace = reduce_to_nef((-1, 0, 0, 0), d4)
    bad = ReductionStep(
        trace.steps[0].kind,
        trace.steps[0].nodes,
        trace.steps[0].curves,
        trace.steps[0].degree_before,
        tuple(c + 1 for c in trace.steps[0].degree_after),
    )
    broken = reduction.ReductionTrace(
        trace.initial, trace.terminal, (bad,) + trace.steps[1:], True
    )
    with pytest.raises(ParameterError):
        broken.validate(d4)


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
        "stabilized",
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
        assert nef.validate(graph)
        basic = reduce_nef_to_basic(nef.terminal, graph)
        assert basic.terminated
        assert is_basic(basic.terminal, graph)
        assert basic.validate(graph)
        if family == "D":
            ms = basic.measures
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
    assert trace.validate(d5)
    kinds = {s.kind for s in trace.steps}
    assert kinds <= {"SubtractCurve", "AddCurve", "AddChain", "ShiftToLeaf"}
    if step_cap == reduction.DEFAULT_STEP_CAP:
        assert trace.terminated
    if trace.terminated:
        assert is_basic(trace.terminal, d5)
        ms = trace.measures
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
        for cap in range(9):
            capped = run(start, graph, cap)
            kept = min(cap, n)
            assert [_step_key(s) for s in capped.steps] == [
                _step_key(s) for s in full.steps[:kept]
            ]
            assert capped.terminated == (n <= cap)
            assert capped.terminal == (full.steps[kept - 1].degree_after if kept else start)
            adds = sum(s.adds_curves() for s in full.steps[:kept])
            assert capped.measures == full.measures[:adds + 1]


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
    expected = [s_measure(trace.initial, graph)] + [
        s_measure(s.degree_after, graph)
        for s in trace.steps
        if s.kind in ("AddCurve", "AddChain")
    ]
    assert list(trace.measures) == expected
    assert all(type(m) is Fraction for m in trace.measures)


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
    assert report["cap"] == 24


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
    assert report["cap"] == 36


def test_audit_wide_add_curve_at_default_cap():
    d6 = build_singularity("D", 6)
    pres = presentation_from_graph(d6)
    step = _step(d6, "AddCurve", (5,), (5,), (1, 1, 1, 0, 1, 2))
    report = audit_step(pres, step, d6)
    assert report["ok"]
    assert report["expected"] == 1 and report["actual"] == 1
    assert report["cap"] == 24


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
    budget = cap - mono.total()
    for s in graded_piece_basis(pres, source, budget) if budget >= 0 else ():
        form = normal_form(Polynomial.from_monomial(s * mono), pres)
        row = {index.setdefault(m, len(index)): int(c) for m, c in form.terms.items()}
        rows.append(row)
        if s.total() < budget:
            inner_rows.append(row)
    inner_std = sum(1 for m in std if m.total() < cap)
    return inner_std - rank_sparse(inner_rows), len(std) - rank_sparse(rows)


@pytest.mark.parametrize("case", ["A4", "D5", "E6", "custom:2,2,3", "custom:1,2,5"])
def test_cokernel_count_matches_elimination(case):
    # the AddCurve steps from 2*e_leaf and the steps of four sampled
    # degrees; a pass on a star that is not negative definite may not
    # terminate, so each pass stops after 12 steps
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
    for step in steps.values():
        for cap in range(8, 29, 4):
            previous, current = _eliminated_dims(pres, step, graph, cap)
            expected = (current, previous == current)
            assert cokernel_dimension(pres, step, cap) == expected, (step, cap)


def test_cokernel_cap_limit():
    d4 = build_singularity("D", 4)
    pres = presentation_from_graph(d4)
    step = _step(d4, "AddCurve", (1,), (1,), (0, 2, 0, 0))
    with pytest.raises(ResourceCapError):
        cokernel_dimension(pres, step, cap=44)


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


def test_quotient_presentation_d4():
    d4 = build_singularity("D", 4)
    qp = quotient_presentation(d4, 1)
    assert qp.grading.variables == ("x2", "x3", "y0", "y1", "y2", "y3")
    assert qp.grading.format_polynomial(qp.relation) == "x3^2*y3 + x2^2*y2"
    assert qp.grading.format_monomial(qp.lead) == "x2^2*y2"


def test_quotient_presentation_d5_long_leaf():
    d5 = build_singularity("D", 5)
    qp = quotient_presentation(d5, 4)
    assert qp.grading.format_polynomial(qp.relation) == "x2^2*y2 + x1^2*y1"
    assert qp.grading.format_monomial(qp.lead) == "x1^2*y1"


def test_quotient_presentation_chain_is_free():
    a3 = build_singularity("A", 3)
    qp = quotient_presentation(a3, 1)
    assert qp.relation is None
    assert qp.grading.variables == ("x3", "y1", "y2", "y3")


def test_quotient_presentation_rejects_center():
    d4 = build_singularity("D", 4)
    with pytest.raises(ParameterError):
        quotient_presentation(d4, 0)


def test_base_case_family_frozen():
    d4 = build_singularity("D", 4)
    fam = base_case_family(d4, 1, 1)
    qp = quotient_presentation(d4, 1)
    assert qp.grading.format_monomial(fam.seed) == "x2*x3*y0*y2*y3"
    assert qp.grading.format_monomial(fam.period) == "x3^2*y0^2*y1*y2*y3^2"
    with pytest.raises(ParameterError):
        base_case_family(d4, 1, 0)


def test_base_case_audit_d4_frozen():
    d4 = build_singularity("D", 4)
    report = base_case_audit(d4, 1, 1)
    assert report["ok"]
    assert report["seed"] == "x2*x3*y0*y2*y3"
    assert report["period"] == "x3^2*y0^2*y1*y2*y3^2"
    assert report["family"] == [
        "x2*x3*y0*y2*y3",
        "x2*x3^3*y0^3*y1*y2^2*y3^3",
        "x2*x3^5*y0^5*y1^2*y2^3*y3^5",
        "x2*x3^7*y0^7*y1^3*y2^4*y3^7",
    ]
    assert set(report["basis"]) == set(report["family"])


def test_base_case_audit_d5_long_leaf():
    d5 = build_singularity("D", 5)
    report = base_case_audit(d5, 4, 1)
    assert report["ok"]
    assert report["seed"] == "x2^2*y0^2*y1*y2^2*y3"
    assert report["period"] == "x1*x2*y0^3*y1^2*y2^2*y3^2*y4"


@pytest.mark.parametrize("leaf", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2])
def test_base_case_audit_d4_all_leaves(leaf, k):
    d4 = build_singularity("D", 4)
    assert base_case_audit(d4, leaf, k)["ok"]


def test_passes_and_audits_read_the_graph_columns(monkeypatch):
    d5 = build_singularity("D", 5)

    def rebuilt(self):
        raise AssertionError("intersection matrix rebuilt")

    monkeypatch.setattr(ResolutionGraph, "intersection_matrix", rebuilt)
    trace = reduction.reduce(d5, (-1, 2, 0, -2, 1))
    assert trace.terminated and trace.validate(d5)
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


def test_full_equivalence_audit_skips_base_case_off_d_type():
    e6 = build_singularity("E", 6)
    report = full_equivalence_audit(e6, (0, -1, 0, 0, 0, 0))
    assert report["ok"]
    assert len(report["steps"]) == 11
    assert report["terminal"] == [0, 0, 0, 0, 0, 0]
    assert report["base_case"] is None


@pytest.mark.parametrize("label,has_base_case", [("D4", True), (None, False), ("custom:1,1,1", False)])
def test_full_equivalence_audit_reads_the_family_off_the_label(label, has_base_case):
    data = build_singularity("D", 4).to_dict()
    data["label"] = label
    graph = ResolutionGraph.from_dict(json.loads(json.dumps(data)))
    report = full_equivalence_audit(graph, (0, -1, 0, 0))
    assert report["ok"]
    assert (report["base_case"] is not None) is has_base_case


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
    assert report["cap"] == 40


@pytest.mark.parametrize("node", [2, 4])
def test_wide_branch_short_leaves_still_pass(node):
    graph = build_custom_tree((2, 2, 3))
    report = audit_add_curve(graph, node, k=2)
    assert report["ok"]
    assert report["expected"] == 1 and report["actual"] == 1
    assert report["cap"] == 24
