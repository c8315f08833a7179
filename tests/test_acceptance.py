"""Acceptance suite: one test per criterion, each printing a single
pass line with its runtime. Stated time budgets are asserted with
wall-clock measurements, exact claims with exact equality."""

import time

import oracle
import pytest

from coxforge import cli, reduction, sections
from coxforge.cox import presentation_from_graph, verify_presentation
from coxforge.graphs import build_custom_tree, build_singularity
from coxforge.invariants import verify_invariant_table
from coxforge.rings import solve_degree_system

FROZEN_RELATIONS = {
    ("D", 4): "x3^2*y3 + x2^2*y2 + x1^2*y1",
    ("D", 5): "x2^2*y2 + x1^2*y1 + x4^3*y3*y4^2",
    ("D", 6): "x2^2*y2 + x1^2*y1 + x5^4*y3*y4^2*y5^3",
    ("E", 6): "x1^2*y1 + x5^3*y4*y5^2 + x3^3*y2*y3^2",
    ("E", 7): "x1^2*y1 + x3^3*y2*y3^2 + x6^4*y4*y5^2*y6^3",
    ("E", 8): "x1^2*y1 + x3^3*y2*y3^2 + x7^5*y4*y5^2*y6^3*y7^4",
}


class Budget:
    def __init__(self, label, seconds):
        self.label = label
        self.seconds = seconds
        self.start = time.monotonic()

    def done(self, detail=""):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.seconds, (
            "%s took %.1fs, budget %ds" % (self.label, elapsed, self.seconds)
        )
        suffix = " (%s)" % detail if detail else ""
        print("PASS %s in %.1fs%s" % (self.label, elapsed, suffix))


def test_criterion_01_chain_invariants():
    budget = Budget("criterion 1: chain invariant rings", 5)
    for n in range(1, 9):
        report = verify_invariant_table(build_singularity("A", n))
        assert report["ok"], report
        assert len(report["generators"]) == 3
        assert all(row["match"] for row in report["generators"])
        assert report["relations"]["computed"] == ["W^%d = Z1*Z2" % (n + 1)]
    budget.done("A1..A8 exact")


def test_criterion_02_even_fork_invariants():
    budget = Budget("criterion 2: even fork invariant rings", 30)
    for n in (4, 6, 8, 10, 12):
        report = verify_invariant_table(build_singularity("D", n))
        assert report["ok"], report
        assert len(report["generators"]) == 4
        assert report["relations"]["computed"] == ["W^2 = Z1*Z2*Z3"]
    budget.done("D4..D12 exact")


def test_criterion_03_odd_fork_invariants():
    budget = Budget("criterion 3: odd fork invariant rings", 60)
    for n in (5, 7, 9, 11):
        report = verify_invariant_table(build_singularity("D", n))
        assert report["ok"], report
        assert len(report["generators"]) == 6
        assert len(report["relations"]["computed"]) == 6
        assert report["relations"]["match"]
    budget.done("D5..D11, six relations each, matched unordered")


def test_criterion_04_exceptional_invariants():
    budget = Budget("criterion 4: exceptional invariant rings", 30)
    expected = {
        6: (4, ["Z3*Z4 = Z2^3"]),
        7: (4, ["Z3^2 = Z2*Z4"]),
        8: (3, []),
    }
    for n, (gens, rels) in expected.items():
        report = verify_invariant_table(build_singularity("E", n))
        assert report["ok"], report
        assert len(report["generators"]) == gens
        assert report["relations"]["computed"] == rels
    budget.done("E6/E7/E8 tables exact")


def test_criterion_05_candidate_relations():
    budget = Budget("criterion 5: candidate relations", 60)
    for family, ns in (("D", range(4, 13)), ("E", (6, 7, 8))):
        for n in ns:
            graph = build_singularity(family, n)
            grading = graph.grading()
            pres = presentation_from_graph(graph)
            rel = pres.relation
            assert rel is not None
            target = graph.unit_degree(graph.center())
            assert len(rel) == len(graph.branches())
            # distinct terms: each has coefficient 1
            assert len(set(rel)) == len(rel)
            for mono in rel:
                assert grading.degree_of(mono) == target
            assert pres.lead in rel
            frozen = FROZEN_RELATIONS.get((family, n))
            if frozen is not None:
                assert grading.format_polynomial(rel) == frozen
    for n in range(1, 9):
        assert presentation_from_graph(build_singularity("A", n)).relation is None
    budget.done("D4..D12 + E6..E8 homogeneous, A-chains empty")


def test_criterion_06_pullback_factorization():
    budget = Budget("criterion 6: pull-back factorization", 10)
    for family, ns in (("D", range(4, 13)), ("E", (6, 7, 8))):
        for n in ns:
            report = verify_presentation(build_singularity(family, n))
            assert report["ok"], report
            assert report["cuts"], report
            principal = [cut for cut in report["cuts"] if cut["principal"]]
            assert principal
            for cut in report["cuts"]:
                assert cut["matches_candidate"], (family, n, cut)
            if (family, n) == ("D", 4):
                assert principal[0]["gcd"] == "y0^2*y1*y2*y3"
    budget.done("all cuts factor through the candidate relation")


def test_criterion_07_reduction_termination():
    budget = Budget("criterion 7: reduction termination", 300)
    cells_total = 0
    for family, n in (("D", 4), ("D", 5), ("E", 6)):
        graph = build_singularity(family, n)
        cells = sections.grid_sample(n, 2000)
        assert len(cells) >= 2000
        cells_total += len(cells)
        for d in cells:
            nef = reduction.reduce_to_nef(d, graph)
            assert nef.terminated and len(nef.steps) <= 10000
            basic = reduction.reduce_nef_to_basic(nef.terminal, graph)
            assert basic.terminated and len(basic.steps) <= 10000
            assert reduction.is_basic(basic.terminal, graph)
            if family == "D":
                ms = basic.twice_measures
                assert all(a >= b for a, b in zip(ms, ms[1:])), (d, ms)
    budget.done("%d cells, terminal always basic" % cells_total)


def test_criterion_08_cokernel_audits():
    budget = Budget("criterion 8: cokernel audits", 600)
    audited = 0
    kinds = set()
    for n in (4, 5, 6):
        graph = build_singularity("D", n)
        pres = presentation_from_graph(graph)
        seeds = [
            tuple((i * j * j + 3 * j - i) % 7 - 3 for j in range(1, n + 1))
            for i in range(12)
        ]
        for d in seeds:
            nef = reduction.reduce_to_nef(d, graph)
            basic = reduction.reduce_nef_to_basic(nef.terminal, graph)
            for step in list(nef.steps) + list(basic.steps):
                report = reduction.audit_step(pres, step, graph)
                assert report["ok"], (n, d, report)
                kinds.add(step.kind)
                audited += 1
    assert audited >= 200
    assert kinds == {"SubtractCurve", "AddCurve", "AddChain", "ShiftToLeaf"}
    budget.done("%d steps, exact count == expected on every one" % audited)


def test_criterion_09_base_cases():
    budget = Budget("criterion 9: base cases", 120)
    checked = 0
    cases = [("D", n) for n in range(4, 13)] + [("E", n) for n in (6, 7, 8)]
    for family, n in cases:
        graph = build_singularity(family, n)
        for leaf in graph.basic_leaves():
            for k in (1, 2, 3):
                report = sections.base_case_audit(graph, leaf, k)
                assert report["ok"], report
                checked += 1
    assert checked == 108
    # the first nonzero slice, y0 = k * arm, of two known pieces
    for n, leaf, seed in ((4, 1, "x2*x3*y0*y2*y3"), (5, 4, "x2^2*y0^2*y1*y2^2*y3")):
        graph = build_singularity("D", n)
        qp = presentation_from_graph(graph, leaf)
        arm = len(graph.branch_of(leaf))
        j = qp.grading.index("y0")
        basis = reduction._slice_basis(qp.grading.matrix, graph.unit_degree(leaf), j, arm, qp.lead)
        assert [qp.grading.format_monomial(s) for s in basis] == [seed]
    budget.done("108 pieces count t^(k*arm) / (1 - t^(arm + 1)) slice by slice")


def test_criterion_10_counterexample(capsys):
    budget = Budget("criterion 10: counterexample tree", 120)
    graph = build_custom_tree((2, 2, 3))
    report = sections.audit_add_curve(graph, graph.nodes[-1], k=2)
    assert report["expected"] == 1
    assert report["actual"] == 0
    assert not report["ok"]
    code = cli.main(["verify", "--case", "custom:2,2,3"])
    out = capsys.readouterr().out
    assert code == 0
    assert '"rule-fails-as-predicted"' in out
    with capsys.disabled():
        budget.done("deep-branch AddCurve audit fails as predicted, exit 0")


def test_criterion_11_hilbert_basis_oracle():
    budget = Budget("criterion 11: Hilbert basis against brute force", 300)
    cases = (
        [("A", n) for n in range(1, 9)]
        + [("D", n) for n in range(4, 13)]
        + [("E", n) for n in (6, 7, 8)]
    )
    total = 0
    for family, n in cases:
        graph = build_singularity(family, n)
        basis = list(solve_degree_system(graph.grading()))
        vecs = [
            v
            for v in oracle.box_exponent_tuples(graph, (0,) * len(graph.nodes), 20)
            if sum(v) <= 20
        ]
        for v in vecs:
            assert oracle.decomposes(v, basis), (family, n, v)
        for b in basis:
            assert oracle.is_irreducible(graph, b), (family, n, b)
        total += len(vecs)
    budget.done("%d box monomials decompose, basis irreducible" % total)
