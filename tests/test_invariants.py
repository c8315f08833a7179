import json

import pytest

from coxforge import cli, diophantine, invariants
from coxforge.errors import ParameterError
from coxforge.graphs import build_singularity
from coxforge.rings import solve_degree_system

import oracle

ALL_CASES = (
    [("A", n) for n in range(1, 9)]
    + [("D", n) for n in range(4, 13)]
    + [("E", n) for n in (6, 7, 8)]
)
# the A and D reference tables are closed-form in n, so the cases past
# ALL_CASES pin the relation search's degree bound independently
EXACT_CASES = ALL_CASES + [("A", n) for n in range(9, 13)] + [("D", n) for n in range(13, 17)]


def _sides(relations):
    return sorted(tuple(sorted(rel.split(" = "))) for rel in relations)


@pytest.mark.parametrize("family,n", EXACT_CASES)
def test_reference_tables_verify(family, n):
    report = invariants.verify_invariant_table(build_singularity(family, n))
    assert report["ok"], report
    rels = report["relations"]
    assert _sides(rels["computed"]) == _sides(rels["expected"])


def test_a_dropped_generator_fails_verify(monkeypatch, capsys):
    # the invariants section can be false: lose the first computed
    # generator, and its ok, the top-level ok and the exit code turn
    solve = invariants.solve_degree_system
    monkeypatch.setattr(invariants, "solve_degree_system", lambda grading: solve(grading)[1:])
    code = cli.main(["verify", "--case", "D5"])
    payload = json.loads(capsys.readouterr().out)
    section = payload["sections"]["invariants"]
    assert [row["name"] for row in section["generators"] if not row["match"]] == ["Z1"]
    assert section["ok"] is False
    assert payload["ok"] is False
    assert code == 1


@pytest.mark.parametrize("family,n", ALL_CASES)
def test_golden_generators_have_degree_zero(family, n):
    grading = build_singularity(family, n).grading()
    for name, mono in invariants.golden_generators(build_singularity(family, n)):
        assert grading.degree_of(mono) == (0,) * n, (family, n, name)


@pytest.mark.parametrize("family,n", ALL_CASES)
def test_golden_relations_balance(family, n):
    gens = dict(invariants.golden_generators(build_singularity(family, n)))
    width = len(next(iter(gens.values())))
    for lhs, rhs in invariants.golden_relations(build_singularity(family, n)):
        def substitute(side):
            out = (0,) * width
            for name, e in side.items():
                out = tuple(a + e * b for a, b in zip(out, gens[name]))
            return out
        assert substitute(lhs) == substitute(rhs), (family, n, lhs, rhs)


def test_toric_relations_on_free_gens():
    gens = [(1, 0), (0, 1)]
    assert invariants.toric_relations(gens) == []


def test_toric_relations_single_collision():
    gens = [(1, 0), (0, 1), (1, 1)]
    rels = invariants.toric_relations(gens)
    assert rels == [((0, 0, 1), (1, 1, 0))]


def test_toric_relations_reject_a_constant_generator():
    # a generator of weight zero would leave the degree bound unbounded
    with pytest.raises(ParameterError):
        invariants.toric_relations([(1, 0), (0, 0)])


def test_toric_relations_chain_case():
    gens = [m for _, m in invariants.golden_generators(build_singularity("A", 3))]
    rels = invariants.toric_relations(gens)
    # Z1*Z2 = W^4 over (Z1, Z2, W)
    assert rels == [((0, 0, 4), (1, 1, 0))]


@pytest.mark.parametrize("family,n", [("A", 4), ("D", 4), ("D", 5), ("E", 6)])
def test_hilbert_basis_elements_are_irreducible(family, n):
    graph = build_singularity(family, n)
    basis = solve_degree_system(graph.grading())
    for m in basis:
        assert oracle.is_irreducible(graph, m)


@pytest.mark.parametrize("family,n", [("A", 3), ("D", 4), ("E", 6)])
def test_box_monoid_decomposes_over_basis(family, n):
    graph = build_singularity(family, n)
    basis = list(solve_degree_system(graph.grading()))
    for v in oracle.box_exponent_tuples(graph, (0,) * len(graph.nodes), 8):
        assert oracle.decomposes(v, basis), v


def _cone_view(graph):
    """The three-parameter cone of a fork D_n: coordinates (a, b, c) with
    the section exponent at the long-branch end a, the y1 exponent c,
    and every other exponent linear in the three. Returns its Hilbert
    basis from diophantine.hilbert_basis_inequalities, the map to
    monomials, and the reference generator each basis point maps to."""
    n = graph.rank
    ineqs = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, n, -2], [-1, -(n - 2), 2]]

    def to_monomial(pt):
        a, b, c = pt
        exps = {
            "x%d" % (n - 1): a,
            "y1": c,
            "y0": a + (n - 2) * b,
            "y2": a + (n - 1) * b - c,
            "x2": a + n * b - 2 * c,
            "x1": -a - (n - 2) * b + 2 * c,
        }
        for j in range(3, n):
            exps["y%d" % j] = a + (n - j) * b
        return graph.grading().monomial(exps)

    basis = diophantine.hilbert_basis_inequalities(ineqs, 3)
    by_exps = {m: name for name, m in invariants.golden_generators(graph)}
    return basis, to_monomial, {pt: by_exps.get(to_monomial(pt)) for pt in basis}


def test_cone_view_frozen_fork():
    basis, _, generators = _cone_view(build_singularity("D", 4))
    assert basis == [(0, 1, 1), (0, 1, 2), (1, 1, 2), (2, 0, 1)]
    assert generators == {
        (0, 1, 1): "Z2",
        (0, 1, 2): "Z1",
        (1, 1, 2): "W",
        (2, 0, 1): "Z3",
    }


def test_cone_view_frozen_odd_fork():
    _, _, generators = _cone_view(build_singularity("D", 5))
    assert generators == {
        (0, 1, 2): "Z2",
        (0, 2, 3): "Z5",
        (0, 2, 5): "Z6",
        (1, 1, 2): "Z3",
        (1, 1, 3): "Z4",
        (2, 0, 1): "Z1",
    }


@pytest.mark.parametrize("n", [6, 7, 8, 9])
def test_cone_view_bijection(n):
    graph = build_singularity("D", n)
    basis, _, generators = _cone_view(graph)
    names = set(generators.values())
    assert len(names) == len(basis)
    assert names == {name for name, _ in invariants.golden_generators(graph)}
    # the b = 0 face is the ray of the short doubled generator
    assert [pt for pt in basis if pt[1] == 0] == [(2, 0, 1)]


def test_cone_view_monomial_map_has_degree_zero():
    graph = build_singularity("D", 6)
    basis, to_monomial, _ = _cone_view(graph)
    for pt in basis:
        assert graph.grading().degree_of(to_monomial(pt)) == (0,) * 6
