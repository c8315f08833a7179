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


def test_parallelepiped_unit_square():
    assert diophantine.parallelepiped_points([(1, 0), (0, 1)]) == [(0, 0)]


def test_parallelepiped_index_three():
    pts = diophantine.parallelepiped_points([(0, 1), (3, 1)])
    assert sorted(pts) == [(0, 0), (1, 1), (2, 1)]


def test_parallelepiped_lower_dimensional():
    pts = diophantine.parallelepiped_points([(2, 4)])
    assert sorted(pts) == [(0, 0), (1, 2)]


def test_triangulate_square_cone():
    rays = [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)]
    simplices = diophantine.triangulate_cone(rays)
    assert len(simplices) == 2
    for s in simplices:
        assert len(s) == 3
        assert linalg.rank([rays[i] for i in s]) == 3
    # the common ray of the two simplices is the pulling vertex
    assert set(simplices[0]) & set(simplices[1])


def test_hilbert_basis_quadrant():
    hb = diophantine.hilbert_basis_inequalities([[1, 0], [0, 1]], 2)
    assert sorted(hb) == [(0, 1), (1, 0)]


def test_hilbert_basis_slanted():
    hb = diophantine.hilbert_basis_inequalities([[1, 0], [-1, 3]], 2)
    assert sorted(hb) == [(0, 1), (1, 1), (2, 1), (3, 1)]


def test_hilbert_basis_octant():
    hb = diophantine.hilbert_basis_inequalities(
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3
    )
    assert sorted(hb) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


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
        assert diophantine.in_cone(ineqs, h)
    # minimality: no element is another plus a monoid element
    for h in hb:
        for c in hb:
            diff = tuple(a - b for a, b in zip(h, c))
            if c != h and any(x != 0 for x in diff):
                assert not diophantine.in_cone(ineqs, diff)
    # completeness on a small box: every monoid point is a sum of basis
    # elements, all partial sums staying in the monoid
    memo = {}

    def decomposable(v):
        if all(x == 0 for x in v):
            return True
        if v in memo:
            return memo[v]
        memo[v] = False
        for h in hb:
            w = tuple(a - b for a, b in zip(v, h))
            if diophantine.in_cone(ineqs, w) and decomposable(w):
                memo[v] = True
                break
        return memo[v]

    for x in range(-6, 7):
        for y in range(-6, 7):
            if diophantine.in_cone(ineqs, (x, y)):
                assert decomposable((x, y))


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
    expected = oracle.box_exponent_tuples(graph, graph.zero_degree(), bound)
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
