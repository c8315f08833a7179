"""Nonnegative integer solutions of A s = t, and the Hilbert bases built
from them.

fiber_points is the one lattice-point algorithm: it lists {s >= 0 :
A s = t}, under a cap on the total or with none. Once the free
exponents are fixed, t determines the pivot exponents, and each free
exponent runs over the interval that the linear conditions on it leave
open. With no cap, the conditions that the pivot exponents be >= 0
bound each free exponent in turn, in column order, where they can; the
zero slices s_j = 0 that the cokernel counts read
(reduction._slice_basis) are listed that way, on A without column j.
rings.monomials_of_degree wraps it for graded pieces, but only the
benchmark's tracer keeps that wrapper: nothing in the package calls it
but rings.graded_piece_basis, which nothing calls.

The Hilbert basis is the set of minimal nonzero solutions below an
exact bound. By Caratheodory's theorem, an element h of the Hilbert
basis of a pointed cone of dimension at most k is a sum of lambda_i r_i
over at most k independent primitive extreme rays. If some lambda_i >=
1, then h - r_i lies in the monoid, so h is that ray. Otherwise every
lambda_i < 1, and the total of h is below the sum of the k largest ray
totals. hilbert_basis_inequalities applies this to the slack vectors s
= B x of {x : B x >= 0}, which satisfy C s = 0 for the left nullspace C
of B. solve_nonneg reads {v >= 0 : A v = 0} as that cone for B = K, a
lattice basis of the integer kernel of A from linalg.hnf_columns: it is
{K x : K x >= 0}.
"""

from functools import lru_cache
from itertools import combinations

from . import linalg


def cone_rays(ineqs, dim):
    """Extreme rays of the pointed cone {x in R^dim : B x >= 0}.

    Primitive integer vectors, sorted. Raises ValueError when the cone
    contains a line.
    """
    if dim == 0:
        return []
    if linalg.rank(ineqs) < dim:
        raise ValueError("cone is not pointed")
    rays = set()
    for sub in combinations(range(len(ineqs)), dim - 1):
        ns = linalg.nullspace([ineqs[i] for i in sub], width=dim)
        if len(ns) != 1:
            continue
        v = ns[0]
        vals = [linalg.dot(row, v) for row in ineqs]
        if all(x >= 0 for x in vals):
            rays.add(tuple(v))
        elif all(x <= 0 for x in vals):
            rays.add(tuple(-c for c in v))
    rays.discard(tuple(0 for _ in range(dim)))
    return sorted(rays)


def _independent(vectors, order):
    """Greedy maximal independent subset of the vectors, tried in order:
    the pivot columns of one elimination on the vectors as columns, since
    a column is a pivot exactly when the columns before it miss it."""
    order = list(order)
    columns = [[vectors[i][k] for i in order] for k in range(len(vectors[0]))]
    return [order[c] for c in linalg.row_reduce(columns)[1]]


@lru_cache(maxsize=None)
def _pivot_system(matrix):
    """Split the integer matrix A (a tuple of row tuples) for fiber_points.

    Pivot columns P are a maximal independent set tried from the last
    column back, so on graph gradings they are the curve columns (one
    section column joins them when the intersection matrix is singular);
    the other columns are free. Rows R are independent rows of A[:, P],
    so B = A[R][P] is invertible; with den = |det B| and adj = den B^-1
    the pivot exponents are adj (t_R - F s) / den.

    Every condition on the free exponents s is linear, a . s <= b: each
    pivot exponent being >= 0 (a_j = (adj F_j)_i, b = (adj t_R)_i), then
    under a cap the total (a_j = den - sum(adj F_j), b = den cap -
    sum(adj t_R)) and the plain sum (a_j = 1, b = cap); coeffs[j] holds
    the a_j in that order. Returns (R, P, free, den, adj, coeffs, levels,
    bounded, dependent): levels[j] lists the conditions whose
    coefficients on the later free exponents are all >= 0, so that each
    with a_j > 0 bounds s_j by its slack b - a . s_prefix; bounded says
    whether a pivot condition does so at every level; dependent holds
    (k, w) with den * A[k] = w . A[R] for each other row.
    """
    width = len(matrix[0])
    cols = list(zip(*matrix))
    pivots = _independent(cols, range(width - 1, -1, -1))
    on_pivots = [[row[c] for c in pivots] for row in matrix]
    rows = _independent(on_pivots, range(len(matrix)))
    adj, det = linalg.adjugate([on_pivots[i] for i in rows])
    den = abs(det)
    if det < 0:
        adj = [[-x for x in row] for row in adj]
    free = [c for c in range(width) if c not in pivots]
    coeffs = []
    for c in free:
        image = linalg.mat_vec(adj, [cols[c][i] for i in rows])
        coeffs.append(image + [den - sum(image), 1])
    levels = [
        [i for i in range(len(rows) + 2) if all(b[i] >= 0 for b in coeffs[j + 1 :])]
        for j in range(len(free))
    ]
    bounded = all(
        any(i < len(rows) and a[i] > 0 for i in level) for a, level in zip(coeffs, levels)
    )
    dependent = [
        (k, linalg.mat_vec(linalg.transpose(adj), on_pivots[k]))
        for k in range(len(matrix))
        if k not in rows
    ]
    return rows, pivots, free, den, adj, coeffs, levels, bounded, dependent


def _total_key(s):
    return (sum(s), s)


def fiber_points(matrix, target, cap=None):
    """Exponent tuples s >= 0 with A s = target and, under a cap, total
    <= cap, sorted by total and then exponents.

    Each free exponent runs over the interval that its qualifying
    conditions (see _pivot_system) leave open, given the exponents
    before it; at the last free exponent every condition qualifies. The
    pivot exponents follow from the target, and a point is kept when
    they are nonnegative integers and the total stays within cap. With
    no cap the pivot conditions alone bound each free exponent; raises
    ValueError when they do not bound every one, in column order, as
    the fiber need not be finite. A finite fiber that they do not bound
    raises too: every curve-column slice of the graphs that coxforge
    counts is bounded (tests/test_diophantine.py)."""
    matrix = tuple(tuple(row) for row in matrix)
    rows, pivots, free, den, adj, coeffs, levels, bounded, dependent = _pivot_system(matrix)
    if cap is None and not bounded:
        raise ValueError("the pivot conditions do not bound the fibers of the matrix")
    t_rows = [target[i] for i in rows]
    if any(den * target[k] != linalg.dot(w, t_rows) for k, w in dependent):
        return []
    width = len(rows)
    # without a cap the slack stops before the cap conditions, and a
    # pivot condition bounds each level; under one the plain sum does
    levels = [[i for i in level if i < width or cap is not None] for level in levels]
    exps = [0] * len(matrix[0])
    out = []

    def place(j, slack):
        # slack = [*num, den*cap - den*total, cap - plain sum], the last
        # two under a cap only; num / den are the pivot exponents once
        # every free exponent is placed
        if j == len(free):
            num = slack[:width]
            if any(x < 0 or x % den for x in num):
                return
            ys = [x // den for x in num]
            if cap is None or sum(ys) <= slack[-1]:
                for c, y in zip(pivots, ys):
                    exps[c] = y
                out.append(tuple(exps))
            return
        a = coeffs[j]
        lo, hi = 0, min(slack[i] // a[i] for i in levels[j] if a[i] > 0)
        for i in levels[j]:
            if a[i] < 0:
                lo = max(lo, -(slack[i] // -a[i]))
            elif slack[i] < 0:
                return
        slack = [x - lo * y for x, y in zip(slack, a)]
        for v in range(lo, hi + 1):
            exps[free[j]] = v
            place(j + 1, slack)
            slack = [x - y for x, y in zip(slack, a)]

    num = linalg.mat_vec(adj, t_rows)
    place(0, num if cap is None else num + [den * cap - sum(num), cap])
    return sorted(out, key=_total_key)


def _minimal(points):
    """The nonzero points, in the given order of rising total, that lie
    above no earlier kept point in every coordinate."""
    kept = []
    for p in points:
        if any(p) and not any(all(a <= b for a, b in zip(h, p)) for h in kept):
            kept.append(p)
    return kept


def hilbert_basis_inequalities(ineqs, dim):
    """Hilbert basis of the monoid {x in Z^dim : B x >= 0} (pointed), sorted.

    x is irreducible exactly when its slack s = B x is minimal among the
    nonzero slacks of integer points, which fill {s >= 0 : C s = 0}
    where the x = adj(B_R) s_R / det(B_R) of independent rows R is
    integral; so lattices that B does not saturate stay correct."""
    rays = cone_rays(ineqs, dim)
    if not rays:
        return []
    width = len(ineqs)
    left = linalg.nullspace(linalg.transpose(ineqs)) or [(0,) * width]
    # Caratheodory: every element's total is at most that of the dim
    # largest rays together
    totals = sorted((sum(linalg.mat_vec(ineqs, r)) for r in rays), reverse=True)
    cap = sum(totals[:dim])
    rows = _independent(ineqs, range(width))
    adj, det = linalg.adjugate([ineqs[i] for i in rows])
    xs = {}
    for s in fiber_points(left, (0,) * len(left), cap):
        num = linalg.mat_vec(adj, [s[i] for i in rows])
        if all(x % det == 0 for x in num):
            xs[s] = tuple(x // det for x in num)
    return sorted(xs[s] for s in _minimal(xs))


def solve_nonneg(a_rows):
    """Hilbert basis of the monoid {v >= 0 : A v = 0}, sorted by total
    degree then lexicographically: every nonnegative solution of the
    homogeneous system is a sum of its elements.

    The trailing columns K of the unimodular transform of
    linalg.hnf_columns(A) are a lattice basis of the integer kernel, so
    the monoid is {K x : K x >= 0}, and K maps the Hilbert basis of
    {x : K x >= 0} onto it."""
    if not a_rows:
        raise ValueError("empty system")
    _, u, pivots = linalg.hnf_columns(a_rows)
    kernel = [row[len(pivots) :] for row in u]
    basis = hilbert_basis_inequalities(kernel, len(kernel[0]))
    return sorted((tuple(linalg.mat_vec(kernel, x)) for x in basis), key=_total_key)
