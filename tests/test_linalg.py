from __future__ import annotations

import random
from math import gcd, prod

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from coxforge import linalg
from coxforge.graphs import build_singularity


def _random_matrix(rng: random.Random, m: int, n: int, lo=-5, hi=5):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


small_matrices = st.integers(1, 4).flatmap(
    lambda m: st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-6, 6), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_hnf_transform_is_unimodular_and_consistent(a):
    h, u, pivots = linalg.hnf_columns(a)
    assert linalg.hnf_columns(tuple(map(tuple, a))) == (h, u, pivots)
    n = len(a[0])
    assert abs(sympy.Matrix(u).det()) == 1
    assert sympy.Matrix(a) * sympy.Matrix(u) == sympy.Matrix(h)
    rk = len(pivots)
    for j in range(rk, n):
        assert all(h[i][j] == 0 for i in range(len(a)))
    assert rk == sympy.Matrix(a).rank()


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_diagonalize_transforms(a):
    u, s, v = linalg.diagonalize(a)
    assert linalg.diagonalize(tuple(map(tuple, a))) == (u, s, v)
    assert abs(sympy.Matrix(u).det()) == 1
    assert abs(sympy.Matrix(v).det()) == 1
    assert sympy.Matrix(u) * sympy.Matrix(a) * sympy.Matrix(v) == sympy.Matrix(s)
    for i in range(len(s)):
        for j in range(len(s[0])):
            if i != j:
                assert s[i][j] == 0
            else:
                assert s[i][j] >= 0


def _invariant_factors(diagonal):
    """The invariant factors > 1 of Z^n / diag Z^n, by replacing each
    pair of entries with their gcd and lcm."""
    d = list(diagonal)
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] * d[j] // g
    return [x for x in d if x != 1]


CLASS_GROUPS = (
    [(("A", n), [n + 1]) for n in range(1, 9)]
    + [(("D", n), [2, 2] if n % 2 == 0 else [4]) for n in range(4, 13)]
    + [(("E", 6), [3]), (("E", 7), [2]), (("E", 8), [])]
)


@pytest.mark.parametrize("case,factors", CLASS_GROUPS, ids=["%s%d" % c for c, _ in CLASS_GROUPS])
def test_diagonalize_reads_the_class_group(case, factors):
    # Cl(X) = Z^n / M Z^n for the intersection matrix M
    m = build_singularity(*case).intersection_matrix()
    s = linalg.diagonalize(m)[1]
    diagonal = [s[i][i] for i in range(len(s))]
    assert prod(diagonal) == abs(sympy.Matrix(m).det())
    assert _invariant_factors(diagonal) == factors


def test_int_inverse_round_trip():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 4)
        # build a unimodular matrix from random elementary operations
        m = linalg.identity_matrix(n)
        for _ in range(8):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                q = rng.randint(-3, 3)
                for r in range(n):
                    m[r][i] += q * m[r][j]
        inv = linalg.int_inverse(m)
        assert sympy.Matrix(m) * sympy.Matrix(inv) == sympy.eye(n)
    for m in ([[2, 0], [0, 1]], [[1, 2], [2, 4]]):
        with pytest.raises(ValueError, match="matrix is not unimodular"):
            linalg.int_inverse(m)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=n, max_size=n
        )
    ),
    st.integers(0, 3),
    st.integers(-2, 2),
)
def test_adjugate_matches_sympy(a, copies, factor):
    # overwrite the last columns with multiples of the first, so that
    # singular matrices are drawn on purpose
    n = len(a)
    for j in range(max(1, n - copies), n):
        for row in a:
            row[j] = factor * row[0]
    adj, d = linalg.adjugate(a)
    m = sympy.Matrix(a)
    if m.det() == 0:
        assert (adj, d) == (None, 0)
        return
    assert d == m.det()
    assert sympy.Matrix(adj) == m.adjugate()
    assert m * sympy.Matrix(adj) == d * sympy.eye(n)


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_det_and_rank_match_sympy(a):
    # every pivot entry of row_reduce is the determinant of a
    # nonsingular square input
    work, pivots = linalg.row_reduce(a)
    m = sympy.Matrix(a)
    if len(pivots) == len(a) == len(a[0]):
        assert {work[r][c] for r, c in enumerate(pivots)} == {m.det()}
    assert linalg.rank(a) == m.rank()


@settings(max_examples=40, deadline=None)
@given(small_matrices)
def test_nullspace_is_correct(a):
    ns = linalg.nullspace(a)
    m = sympy.Matrix(a)
    assert len(ns) == len(a[0]) - m.rank()
    for v in ns:
        assert m * sympy.Matrix(v) == sympy.zeros(len(a), 1)


def test_rank_sparse_agrees_with_dense():
    rng = random.Random(11)
    for _ in range(30):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a = _random_matrix(rng, m, n, -3, 3)
        rows = [{j: x for j, x in enumerate(row) if x} for row in a]
        assert linalg.rank_sparse(rows) == sympy.Matrix(a).rank()
    # any hashable column keys
    rows = [{"y0": 2, (1, 0): -1}, {"y0": 4, (1, 0): -2}, {"x": 1}]
    assert linalg.rank_sparse(rows) == 2


def test_primitive_vectors():
    assert linalg.primitive([2, 4, -6]) == (1, 2, -3)
    assert linalg.primitive([-1, 2]) == (1, -2)
    assert linalg.primitive([0, 0]) == (0, 0)
