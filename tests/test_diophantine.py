from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coxforge import diophantine, linalg
from coxforge.graphs import build_singularity

import oracle


def test_cone_rays_quadrant():
    rays = diophantine.cone_rays([[1, 0], [0, 1]], 2)
    assert rays == [(0, 1), (1, 0)]


def test_cone_rays_slanted():
    rays = diophantine.cone_rays([[1, 0], [-1, 3]], 2)
    assert rays == [(0, 1), (3, 1)]


def test_cone_rays_rejects_halfplane():
    with pytest.raises(ValueError):
        diophantine.cone_rays([[1, 0]], 2)


def test_hilbert_basis_square_cone():
    # four rays, so the cone is not simplicial
    ineqs = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, -1]]
    assert diophantine.cone_rays(ineqs, 3) == [(0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1)]
    hb = diophantine.hilbert_basis_inequalities(ineqs, 3)
    assert hb == [(0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1)]


def test_hilbert_basis_quadrant():
    hb = diophantine.hilbert_basis_inequalities([[1, 0], [0, 1]], 2)
    assert sorted(hb) == [(0, 1), (1, 0)]


def test_hilbert_basis_slanted():
    hb = diophantine.hilbert_basis_inequalities([[1, 0], [-1, 3]], 2)
    assert sorted(hb) == [(0, 1), (1, 1), (2, 1), (3, 1)]


def test_hilbert_basis_unsaturated_slack_lattice():
    # the slack map x -> B x has index 2 and 4 here: the minimal nonzero
    # slack vectors (1, 0), (0, 1) come from no integer point
    hb = diophantine.hilbert_basis_inequalities([[1, 1], [1, -1]], 2)
    assert hb == [(1, -1), (1, 0), (1, 1)]
    assert diophantine.hilbert_basis_inequalities([[2, 0], [0, 2]], 2) == [(0, 1), (1, 0)]


def test_hilbert_basis_octant():
    hb = diophantine.hilbert_basis_inequalities(
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3
    )
    assert sorted(hb) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def _assert_minimal_and_complete(basis, member, box):
    """No basis element lies above another (their difference would be a
    monoid element), and every monoid point of the box is a sum of
    basis elements with every partial sum in the monoid."""
    for h in basis:
        for c in basis:
            diff = tuple(a - b for a, b in zip(h, c))
            if c != h:
                assert not member(diff)
    memo = {}

    def decomposable(v):
        if not any(v):
            return True
        if v not in memo:
            memo[v] = False
            for h in basis:
                w = tuple(a - b for a, b in zip(v, h))
                if member(w) and decomposable(w):
                    memo[v] = True
                    break
        return memo[v]

    for v in box:
        if member(v):
            assert decomposable(v), v


def _inside_cone(ineqs, v):
    # B v >= 0, written out here so the check does not lean on linalg
    return all(sum(a * b for a, b in zip(row, v)) >= 0 for row in ineqs)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
        min_size=2,
        max_size=4,
    )
)
def test_hilbert_basis_planar_cones(rows):
    ineqs = [list(r) for r in rows]
    assume(linalg.rank(ineqs) == 2)
    hb = diophantine.hilbert_basis_inequalities(ineqs, 2)
    for h in hb:
        assert _inside_cone(ineqs, h)
    _assert_minimal_and_complete(
        hb, lambda v: _inside_cone(ineqs, v), product(range(-6, 7), repeat=2)
    )


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2)),
        min_size=3,
        max_size=5,
    )
)
def test_hilbert_basis_spatial_cones(rows):
    ineqs = [list(r) for r in rows]
    assume(linalg.rank(ineqs) == 3)
    hb = diophantine.hilbert_basis_inequalities(ineqs, 3)
    assert hb == sorted(set(hb))
    for h in hb:
        assert any(h) and _inside_cone(ineqs, h)
    for r in diophantine.cone_rays(ineqs, 3):
        assert r in hb
    _assert_minimal_and_complete(
        hb, lambda v: _inside_cone(ineqs, v), product(range(-4, 5), repeat=3)
    )


@st.composite
def _small_systems(draw):
    """1-3 rows, 1-5 columns, entries in [-3, 3]; a zero column, a row
    repeated, or a row of positive entries (no nonzero solution) on
    demand."""
    shape = draw(st.sampled_from(["any", "zero column", "repeated row", "positive row"]))
    n_rows = draw(st.integers(2 if shape == "repeated row" else 1, 3))
    width = draw(st.integers(1, 5))
    row = st.lists(st.integers(-3, 3), min_size=width, max_size=width)
    matrix = draw(st.lists(row, min_size=n_rows, max_size=n_rows))
    if shape == "zero column":
        j = draw(st.integers(0, width - 1))
        for r in matrix:
            r[j] = 0
    elif shape == "repeated row":
        k, i = draw(st.permutations(range(n_rows)))[:2]
        matrix[k] = list(matrix[i])
    elif shape == "positive row":
        k = draw(st.integers(0, n_rows - 1))
        matrix[k] = draw(st.lists(st.integers(1, 3), min_size=width, max_size=width))
    return matrix


@settings(max_examples=80, deadline=None)
@given(_small_systems())
def test_solve_nonneg_random_systems(matrix):
    basis = diophantine.solve_nonneg(matrix)
    assert basis == sorted(set(basis), key=lambda v: (sum(v), v))
    for h in basis:
        assert any(h) and all(x >= 0 for x in h)
        assert all(x == 0 for x in linalg.mat_vec(matrix, list(h)))

    def member(v):
        return all(x >= 0 for x in v) and not any(linalg.mat_vec(matrix, list(v)))

    box = product(range(5), repeat=len(matrix[0]))
    _assert_minimal_and_complete(basis, member, box)


def _expand(recession, width, bound):
    """Sums of recession elements with every exponent <= bound."""
    out = {(0,) * width}
    frontier = set(out)
    while frontier:
        nxt = set()
        for v in frontier:
            for r in recession:
                w = tuple(a + b for a, b in zip(v, r))
                if all(x <= bound for x in w) and w not in out:
                    out.add(w)
                    nxt.add(w)
        frontier = nxt
    return out


CASES = [
    ("A", 3),
    ("A", 1),
    ("D", 4),
    ("D", 5),
    ("E", 6),
]


@pytest.mark.parametrize("family,n", CASES)
def test_solve_nonneg_matches_box_enumeration(family, n):
    # degree zero only: nonzero degrees are checked on
    # rings.monomials_of_degree in test_rings
    graph = build_singularity(family, n)
    g = graph.grading()
    recs = diophantine.solve_nonneg([list(r) for r in g.matrix])
    bound = 7
    got = _expand(recs, g.width, bound)
    expected = oracle.box_exponent_tuples(graph, (0,) * len(graph.nodes), bound)
    assert got == expected, (family, n)


def test_degree_zero_fork_recession_is_frozen_quadruple():
    graph = build_singularity("D", 4)
    g = graph.grading()
    recs = diophantine.solve_nonneg([list(r) for r in g.matrix])
    assert set(recs) == {
        (2, 0, 0, 2, 2, 1, 1),
        (0, 2, 0, 2, 1, 2, 1),
        (0, 0, 2, 2, 1, 1, 2),
        (1, 1, 1, 3, 2, 2, 2),
    }
