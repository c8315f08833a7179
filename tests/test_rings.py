import itertools
import operator

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coxforge.cli import parse_case
from coxforge.cox import presentation_from_graph
from coxforge.errors import ParameterError
from coxforge.graphs import build_singularity
from coxforge.rings import (
    Grading,
    RingPresentation,
    graded_piece_basis,
    monomials_of_degree,
    normal_form,
    solve_degree_system,
)

import oracle


def _divides(a, b):
    return all(map(operator.le, a, b))


def _minus(p, q):
    return {m: p.get(m, 0) - q.get(m, 0) for m in p.keys() | q.keys()}


def test_monomial_ordering_is_by_total_then_exps():
    # format_polynomial writes its terms by total degree, then exponents
    g = Grading(("a", "b"), ((1, 1),))
    terms = [(0, 2), (1, 0), (2, 0), (0, 1)]
    assert g.format_polynomial(terms) == "b + a + b^2 + a^2"


def _fork_grading():
    return build_singularity("D", 4).grading()


def test_grading_degree_and_formatting():
    g = _fork_grading()
    m = g.monomial({"x1": 2, "y0": 1})
    assert m == (2, 0, 0, 1, 0, 0, 0)
    assert g.degree_of(m) == (-2, 3, 1, 1)
    assert g.format_monomial(m) == "x1^2*y0"
    assert g.format_monomial((0,) * g.width) == "1"
    with pytest.raises(ParameterError):
        g.degree_of((1, 2))
    with pytest.raises(ParameterError):
        g.monomial({"z9": 1})


def test_grading_drop():
    g = _fork_grading()
    sub = g.drop(["y1"])
    assert sub.variables == ("x1", "x2", "x3", "y0", "y2", "y3")
    with pytest.raises(ParameterError):
        g.drop(["nope"])


def test_monomials_of_degree_drop_example():
    g = _fork_grading().drop(["y1"])
    piece = monomials_of_degree(g, (1, 0, 0, 0), 50)
    assert sorted(g.format_monomial(m) for m in piece) == ["x2^2*y2", "x3^2*y3"]
    assert monomials_of_degree(g, (0, 0, 0, 0), 50) == [(0,) * g.width]
    assert solve_degree_system(g) == ()


def test_monomials_of_degree_inconsistent_lattice():
    # 2a = 1 has no integer solution
    g = Grading(("a",), ((2,),))
    assert monomials_of_degree(g, (1,), 20) == []
    assert monomials_of_degree(g, (4,), 20) == [(2,)]
    # a dependent row must agree with the rows it depends on
    g = Grading(("a", "b"), ((1, 1), (2, 2)))
    assert monomials_of_degree(g, (1, 1), 20) == []
    assert monomials_of_degree(g, (1, 2), 20) == [(0, 1), (1, 0)]


def test_monomials_of_degree_negative_only_solution():
    # a - b = -1: b times powers of the degree-zero generator a*b
    g = Grading(("a", "b"), ((1, -1),))
    assert monomials_of_degree(g, (-1,), 5) == [(0, 1), (1, 2), (2, 3)]
    assert solve_degree_system(g) == ((1, 1),)


@st.composite
def _small_gradings(draw):
    """(matrix, degree, cap) with 1-3 rows, 1-5 columns, entries in
    [-3, 3], degree in [-4, 4] and cap <= 6; a zero row, a row that
    repeats another up to sign, or a square full-rank matrix on demand."""
    shape = draw(st.sampled_from(["any", "zero row", "dependent row", "square"]))
    n_rows = draw(st.integers(2 if shape == "dependent row" else 1, 3))
    width = n_rows if shape == "square" else draw(st.integers(1, 5))
    row = st.lists(st.integers(-3, 3), min_size=width, max_size=width)
    matrix = draw(st.lists(row, min_size=n_rows, max_size=n_rows))
    degree = draw(st.lists(st.integers(-4, 4), min_size=n_rows, max_size=n_rows))
    if shape == "square":
        assume(sympy.Matrix(matrix).det() != 0)
    elif shape == "zero row":
        k = draw(st.integers(0, n_rows - 1))
        matrix[k] = [0] * width
    elif shape == "dependent row":
        k, i = draw(st.permutations(range(n_rows)))[:2]
        sign = draw(st.sampled_from([1, -1]))
        matrix[k] = [sign * x for x in matrix[i]]
        if draw(st.booleans()):
            degree[k] = sign * degree[i]
    return matrix, tuple(degree), draw(st.integers(0, 6))


@settings(max_examples=150, deadline=None)
@given(_small_gradings())
def test_monomials_of_degree_matches_product_enumeration(case):
    matrix, degree, cap = case
    width = len(matrix[0])
    g = Grading(["v%d" % i for i in range(width)], matrix)
    expected = sorted(
        (
            e
            for e in itertools.product(range(cap + 1), repeat=width)
            if sum(e) <= cap
            and all(sum(a * x for a, x in zip(r, e)) == d for r, d in zip(matrix, degree))
        ),
        key=lambda e: (sum(e), e),
    )
    assert monomials_of_degree(g, degree, cap) == expected


ORACLE_CASES = ["A3", "A1", "D4", "D5", "E6", "E7", "custom:2,2,2", "custom:1,2,5"]
# indefinite trees: the total degree does not bound every free exponent
# of the enumerator, and some of the pieces below are empty
INDEFINITE_CASES = ["custom:2,2,3", "custom:2,3,7", "custom:3,3,3"]


@pytest.mark.parametrize("case", ORACLE_CASES + INDEFINITE_CASES)
def test_monomials_of_degree_matches_box_enumeration(case):
    # custom:2,2,2 and custom:1,2,5 (affine E6 and E8) have a singular
    # intersection matrix, so a section column is a pivot
    graph = parse_case(case)
    g = graph.grading()
    unit = graph.unit_degree(graph.nodes[0])
    degrees = [
        (0,) * len(graph.nodes),
        unit,
        tuple(-x for x in unit),
        tuple(1 for _ in graph.nodes),
    ]
    # the oracle box has every exponent <= 7; a total-degree cap of
    # 7 * width reaches all of it
    bound = 7
    for d in degrees:
        piece = monomials_of_degree(g, d, bound * g.width)
        got = {m for m in piece if max(m) <= bound}
        box = oracle.box_exponent_tuples(graph, d, bound)
        assert got == box, (case, d)
        if case in INDEFINITE_CASES:
            continue
        if case.startswith("custom:") and d == degrees[2]:
            # the positive null vector of M pairs to < 0 with -e_0 and to
            # >= 0 with every monomial's degree: the piece is empty
            assert piece == [], (case, d)
        elif (case, d) == ("E7", degrees[2]):
            # each monomial of degree -e_0 on E7 has an exponent >= 12,
            # outside the box
            assert piece, (case, d)
        else:
            assert got, (case, d)


@pytest.mark.parametrize("case", ["A3", "D5", "custom:2,2,2", "custom:2,3,7"])
def test_quotient_pieces_are_full_pieces_without_the_section(case):
    graph = parse_case(case)
    g = graph.grading()
    degrees = [(0,) * len(graph.nodes)] + [
        tuple(v * x for x in graph.unit_degree(node)) for node in graph.nodes for v in (-1, 2)
    ]
    for name, _ in graph.leaf_variables:
        sub = g.drop([name])
        cut = g.index(name)
        for d in degrees:
            lifted = [
                g.monomial(dict(zip(sub.variables, m))) for m in monomials_of_degree(sub, d, 14)
            ]
            full = [m for m in monomials_of_degree(g, d, 14) if m[cut] == 0]
            assert lifted == full, (case, name, d)


@pytest.mark.parametrize("cap", [4, 8, 12])
def test_monomials_of_degree_matches_box_oracle(cap):
    graph = build_singularity("D", 4)
    g = graph.grading()
    for degree in [(1, 0, 0, 0), (0, 0, 0, 0), (0, 1, 0, 0)]:
        got = set(monomials_of_degree(g, degree, cap))
        box = oracle.box_exponent_tuples(graph, degree, cap)
        expected = {v for v in box if sum(v) <= cap}
        assert got == expected


def test_monomials_of_degree_prefix_stable():
    g = _fork_grading()
    small = monomials_of_degree(g, (1, 0, 0, 0), 10)
    big = monomials_of_degree(g, (1, 0, 0, 0), 16)
    assert big[: len(small)] == small


def _fork_presentation():
    g = _fork_grading()
    rel = (
        g.monomial({"y1": 1, "x1": 2}),
        g.monomial({"y2": 1, "x2": 2}),
        g.monomial({"y3": 1, "x3": 2}),
    )
    return RingPresentation(g, rel, g.monomial({"y1": 1, "x1": 2}))


def test_presentation_rejects_inhomogeneous_relation():
    g = _fork_grading()
    rel = (g.monomial({"y1": 1, "x1": 2}), g.monomial({"x1": 1}))
    with pytest.raises(ParameterError, match="relation is not homogeneous"):
        RingPresentation(g, rel, g.monomial({"y1": 1, "x1": 2}))


def test_presentation_rejects_bad_lead():
    # a lead must be a term of the relation: neither a monomial of the
    # relation's degree nor one of another degree will do
    g = _fork_grading()
    rel = (g.monomial({"y1": 1, "x1": 2}), g.monomial({"y2": 1, "x2": 2}))
    with pytest.raises(ParameterError, match="lead term must be a term"):
        RingPresentation(g, rel, g.monomial({"y3": 1, "x3": 2}))
    with pytest.raises(ParameterError, match="lead term must be a term"):
        RingPresentation(g, rel, g.monomial({"x1": 1}))


def test_presentation_rejects_lead_sharing_a_variable():
    # lead * z has the degree of the lead for a degree-zero z, and
    # shares the variables of the lead
    g = _fork_grading()
    lead = g.monomial({"y1": 1, "x1": 2})
    z = solve_degree_system(g)[0]
    rel = (lead, tuple(map(operator.add, lead, z)))
    with pytest.raises(ParameterError, match="shares a variable"):
        RingPresentation(g, rel, lead)


def test_presentation_rejects_one_term_relation():
    g = _fork_grading()
    lead = g.monomial({"y1": 1, "x1": 2})
    with pytest.raises(ParameterError, match="at least two terms"):
        RingPresentation(g, (lead,), lead)


def test_presentation_rejects_repeated_terms():
    # a relation is a sum of distinct terms with coefficient 1, so a
    # repeated term is an error, not a coefficient of 2
    g = _fork_grading()
    lead = g.monomial({"y1": 1, "x1": 2})
    other = g.monomial({"y2": 1, "x2": 2})
    for rel in [(lead, lead), (lead, other, other), (other, lead, lead)]:
        with pytest.raises(ParameterError, match="repeats a term"):
            RingPresentation(g, rel, lead)


def test_normal_form_rewrites_lead():
    pres = _fork_presentation()
    g = pres.grading
    nf = normal_form({g.monomial({"y1": 1, "x1": 2}): 1}, pres)
    assert nf == {g.monomial({"y2": 1, "x2": 2}): -1, g.monomial({"y3": 1, "x3": 2}): -1}
    nf2 = normal_form({g.monomial({"y1": 2, "x1": 4}): 1}, pres)
    assert nf2 == {
        g.monomial({"y2": 2, "x2": 4}): 1,
        g.monomial({"y2": 1, "x2": 2, "y3": 1, "x3": 2}): 2,
        g.monomial({"y3": 2, "x3": 4}): 1,
    }
    assert all(type(c) is int for c in nf2.values())


def test_normal_form_fixes_reduced_terms():
    pres = _fork_presentation()
    g = pres.grading
    p = {g.monomial({"y2": 1, "x2": 2}): 3, g.monomial({"y0": 1}): 1}
    assert normal_form(p, pres) == p
    assert normal_form(dict.fromkeys(pres.relation, 1), pres) == {}
    # zero terms are dropped, with or without a relation
    assert normal_form({**p, g.monomial({"x1": 1}): 0}, pres) == p
    assert normal_form({**p, g.monomial({"x1": 1}): 0}, RingPresentation(g)) == p


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_normal_form_is_idempotent_and_ideal_stable(data):
    pres = _fork_presentation()
    g = pres.grading
    pool = monomials_of_degree(g, (1, 0, 0, 0), 12)
    coeffs = data.draw(
        st.lists(st.integers(-3, 3), min_size=len(pool), max_size=len(pool))
    )
    p = dict(zip(pool, coeffs))
    nf = normal_form(p, pres)
    assert normal_form(nf, pres) == nf
    # the reduction moved p by an ideal member only
    assert normal_form(_minus(p, nf), pres) == {}
    # homogeneity is preserved
    for m in nf:
        assert g.degree_of(m) == (1, 0, 0, 0)


def _reduce_heaviest_first(poly, pres):
    # a fixed rewrite order: the lead multiple of largest weighted degree
    # first, with the lead's variables weighted above every other
    # relation term's total degree
    lead = pres.lead
    rest = [m for m in pres.relation if m != lead]
    boost = 1 + max(sum(m) for m in rest)
    weights = [boost if e else 1 for e in lead]
    work = {m: c for m, c in poly.items() if c}
    while True:
        hits = [m for m in work if _divides(lead, m)]
        if not hits:
            return work
        m = max(hits, key=lambda m: (sum(map(operator.mul, weights, m)), m))
        c = work[m]
        q = tuple(map(operator.sub, m, lead))
        rewrite = {m: c}
        for r in rest:
            rewrite[tuple(map(operator.add, q, r))] = c
        work = {t: e for t, e in _minus(work, rewrite).items() if e}


ORDER_CASES = (
    [("D%d" % n, None) for n in range(4, 13)]
    + [(case, None) for case in ("E6", "E7", "E8", "custom:2,2,3", "custom:1,2,5", "custom:2,3,4")]
    + [("D%d" % n, leaf) for n in range(4, 9) for leaf in (1, 2, n - 1)]
)


@pytest.mark.parametrize("case,leaf", ORDER_CASES)
def test_normal_form_does_not_depend_on_the_rewrite_order(case, leaf):
    # {relation} is a Groebner basis, so any rewrite order ends at the
    # same remainder; the products of three relation terms need rewrites
    # at lead powers 3, 2 and 1. A leaf means the base case's quotient.
    graph = parse_case(case)
    pres = presentation_from_graph(graph, leaf)
    terms = sorted(pres.relation, key=lambda m: (sum(m), m))
    products = itertools.combinations_with_replacement(terms, 3)
    poly = {
        tuple(map(sum, zip(a, b, c))): (-1) ** i * (i + 1) for i, (a, b, c) in enumerate(products)
    }
    nf = normal_form(poly, pres)
    assert nf == _reduce_heaviest_first(poly, pres)
    assert not any(_divides(pres.lead, m) for m in nf)
    assert normal_form(_minus(poly, nf), pres) == {}


def test_graded_piece_basis_drops_lead_multiples():
    pres = _fork_presentation()
    g = pres.grading
    basis = graded_piece_basis(pres, (1, 0, 0, 0), 6)
    assert [g.format_monomial(m) for m in basis] == ["x3^2*y3", "x2^2*y2"]
