"""Nonnegative integer solutions of A s = t, and the Hilbert bases built
from them.

fiber_points is the one lattice-point algorithm: it lists {s >= 0 :
A s = t, total <= cap}. Once the free exponents are fixed, t determines
the pivot exponents, and each free exponent runs over the interval that
the linear conditions on it leave open. rings.monomials_of_degree wraps
it for graded pieces.

Both Hilbert bases are the minimal nonzero solutions below an exact
bound. By Caratheodory's theorem, an element h of the Hilbert basis of
a pointed cone of dimension at most k is a sum of lambda_i r_i over at
most k independent primitive extreme rays. If some lambda_i >= 1, then
h - r_i lies in the monoid, so h is that ray. Otherwise every
lambda_i < 1, and the total of h is below the sum of the k largest ray
totals. solve_nonneg applies this to {s >= 0 : A s = 0}, and
hilbert_basis_inequalities to the slack vectors s = B x of {x : B x >=
0}, which satisfy C s = 0 for the left nullspace C of B.
"""

from functools import lru_cache
from itertools import combinations

from . import linalg


def in_cone(ineqs, v):
    return all(linalg.dot(row, v) >= 0 for row in ineqs)


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
    """Greedy maximal independent subset of the vectors, tried in order."""
    chosen = []
    for i in order:
        if linalg.rank([vectors[j] for j in chosen + [i]]) > len(chosen):
            chosen.append(i)
    return chosen


@lru_cache(maxsize=None)
def _pivot_system(matrix):
    """Split the integer matrix A (a tuple of row tuples) for fiber_points.

    Pivot columns P are a maximal independent set tried from the last
    column back, so on graph gradings they are the curve columns (one
    section column joins them when the intersection matrix is singular);
    the other columns are free. Rows R are independent rows of A[:, P],
    so B = A[R][P] is invertible; with den = |det B| and adj = den B^-1
    the pivot exponents are adj (t_R - F s) / den.

    Every condition on the free exponents s is linear, a . s <= b: the
    plain sum (a_j = 1, b = cap), the total (a_j = den - sum(adj F_j),
    b = den cap - sum(adj t_R)) and each pivot exponent being >= 0 (a_j
    = (adj F_j)_i, b = (adj t_R)_i). Returns (R, P, free, den, adj,
    coeffs, levels, dependent): coeffs[j] holds the a_j of every
    condition in that order; levels[j] lists the conditions whose
    coefficients on the later free exponents are all >= 0, so that each
    bounds s_j by its slack b - a . s_prefix; dependent holds (k, w)
    with den * A[k] = w . A[R] for each other row.
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
        coeffs.append([1, den - sum(image)] + image)
    levels = [
        [i for i in range(2 + len(rows)) if all(a[i] >= 0 for a in coeffs[j + 1 :])]
        for j in range(len(free))
    ]
    dependent = [
        (k, linalg.mat_vec(linalg.transpose(adj), on_pivots[k]))
        for k in range(len(matrix))
        if k not in rows
    ]
    return rows, pivots, free, den, adj, coeffs, levels, dependent


def _total_key(s):
    return (sum(s), s)


def fiber_points(matrix, target, cap):
    """Exponent tuples s >= 0 with A s = target and total <= cap, sorted
    by total and then exponents.

    Each free exponent runs over the interval that its qualifying
    conditions (see _pivot_system) leave open, given the exponents
    before it; at the last free exponent every condition qualifies. The
    pivot exponents follow from the target, and a point is kept when
    they are nonnegative integers and the total stays within cap."""
    matrix = tuple(tuple(row) for row in matrix)
    rows, pivots, free, den, adj, coeffs, levels, dependent = _pivot_system(matrix)
    t_rows = [target[i] for i in rows]
    if any(den * target[k] != linalg.dot(w, t_rows) for k, w in dependent):
        return []
    exps = [0] * len(matrix[0])
    out = []

    def place(j, slack):
        # slack = [cap - plain sum, den*cap - den*total, *num]; num / den
        # are the pivot exponents once every free exponent is placed
        if j == len(free):
            num = slack[2:]
            if any(x < 0 or x % den for x in num):
                return
            ys = [x // den for x in num]
            if sum(ys) <= slack[0]:
                for c, y in zip(pivots, ys):
                    exps[c] = y
                out.append(tuple(exps))
            return
        a = coeffs[j]
        lo, hi = 0, slack[0]  # the plain sum bounds every level
        for i in levels[j]:
            if a[i] > 0:
                hi = min(hi, slack[i] // a[i])
            elif a[i] < 0:
                lo = max(lo, -(slack[i] // -a[i]))
            elif slack[i] < 0:
                return
        slack = [x - lo * y for x, y in zip(slack, a)]
        for v in range(lo, hi + 1):
            exps[free[j]] = v
            place(j + 1, slack)
            slack = [x - y for x, y in zip(slack, a)]

    num = linalg.mat_vec(adj, t_rows)
    place(0, [cap, den * cap - sum(num)] + num)
    return sorted(out, key=_total_key)


def _minimal(points):
    """The nonzero points, in the given order of rising total, that lie
    above no earlier kept point in every coordinate."""
    kept = []
    for p in points:
        if any(p) and not any(all(a <= b for a, b in zip(h, p)) for h in kept):
            kept.append(p)
    return kept


def _ray_bound(totals, k):
    """Sum of the k largest ray totals: every Hilbert-basis element of a
    cone of dimension at most k has total at most this."""
    return sum(sorted(totals, reverse=True)[:k])


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
    cap = _ray_bound([sum(linalg.mat_vec(ineqs, r)) for r in rays], dim)
    rows = _independent(ineqs, range(width))
    adj, det = linalg.adjugate([ineqs[i] for i in rows])
    xs = {}
    for s in fiber_points(left, (0,) * len(left), cap):
        num = linalg.mat_vec(adj, [s[i] for i in rows])
        if all(x % det == 0 for x in num):
            xs[s] = tuple(x // det for x in num)
    basis = sorted(xs[s] for s in _minimal(xs))
    for x in basis:
        if not in_cone(ineqs, x):
            raise AssertionError("basis element escaped the cone")
    return basis


def solve_nonneg(a_rows):
    """Hilbert basis of the monoid {v >= 0 : A v = 0}, sorted by total
    degree then lexicographically: every nonnegative solution of the
    homogeneous system is a sum of its elements.

    The rays come from the cone of the free exponents u of fiber_points:
    u >= 0 and each pivot exponent -(adj F u)_i / den >= 0."""
    if not a_rows:
        raise ValueError("empty system")
    matrix = tuple(tuple(row) for row in a_rows)
    rows, pivots, free, den, adj, coeffs, levels, dependent = _pivot_system(matrix)
    pivot_rows = [[-a[2 + i] for a in coeffs] for i in range(len(rows))]
    ineqs = linalg.identity_matrix(len(free)) + pivot_rows
    totals = []
    for u in cone_rays(ineqs, len(free)):
        full = [den * x for x in u] + linalg.mat_vec(pivot_rows, u)
        totals.append(sum(linalg.primitive(full)))
    cap = _ray_bound(totals, len(free))
    basis = _minimal(fiber_points(matrix, (0,) * len(matrix), cap))
    for m in basis:
        if any(x < 0 for x in m) or any(x != 0 for x in linalg.mat_vec(a_rows, list(m))):
            raise AssertionError("bad Hilbert basis element")
    return basis
