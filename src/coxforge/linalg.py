"""Exact integer linear algebra.

Matrices are lists of rows of ints (tuple rows are read, list rows are
returned); no floating point anywhere. Two elimination cores serve
everything here. The fraction-free Gauss-Jordan core row_reduce
(Bareiss 1968) gives rank, nullspace, adjugate and int_inverse, and
rank_sparse is rank over the densified rows. The unimodular core is
one column Hermite pass, which carries its transform as rows stacked
under the matrix, as adjugate carries I beside it. hnf_columns runs it
on A over I, and the trailing columns of the transform are a lattice
basis of the integer kernel; each round of diagonalize runs it on S
over V and on S^T over U^T (Kannan and Bachem 1979).
primitive takes integer vectors only. rank_sparse, diagonalize and
int_inverse have no caller in the package; the benchmark's per-layer
tracer still names them, and diagonalize is kept for the class group
Z^n / M Z^n.
"""

from math import gcd


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def copy_matrix(m):
    return [list(row) for row in m]


def transpose(m):
    return [list(col) for col in zip(*m)] if m else []


def mat_vec(m, v):
    return [sum(row[j] * v[j] for j in range(len(v))) for row in m]


def dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def primitive(vec):
    """Divide an integer vector by the gcd of its entries, with the sign
    that makes the first nonzero entry positive. Returns a tuple; the
    zero vector is returned unchanged."""
    g = gcd(*vec)
    if g == 0:
        return tuple(vec)
    first = next(x for x in vec if x)
    if first < 0:
        g = -g
    return tuple(x // g for x in vec)


# ----- fraction-free elimination -----


def row_reduce(rows, ncols=None):
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968).

    Pivots are sought in the first ncols columns (all by default).
    Returns (work, pivots): work = E * rows for an invertible E, with
    row r holding its pivot in column pivots[r] and the rows past
    len(pivots) zero on the first ncols columns. On those columns work
    is d times the reduced row echelon form, and every pivot entry is
    the same integer d; for a nonsingular square input d = det(rows).
    Each entry is a minor of the input (up to sign), so every division
    by the previous pivot is exact.
    """
    work = [list(row) for row in rows]
    if ncols is None:
        ncols = len(work[0]) if work else 0
    pivots = []
    prev = sign = 1
    for c in range(ncols):
        r = len(pivots)
        if r == len(work):
            break
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            work[r], work[piv] = work[piv], work[r]
            sign = -sign
        top = work[r]
        p = top[c]
        for i, row in enumerate(work):
            if i != r:
                f = row[c]
                work[i] = [(p * a - f * b) // prev for a, b in zip(row, top)]
        prev = p
        pivots.append(c)
    if sign < 0:
        work = [[-x for x in row] for row in work]
    return work, pivots


def rank(rows):
    """Exact rank of an integer matrix."""
    return len(row_reduce(rows)[1])


def nullspace(rows, width=None):
    """Basis of the rational nullspace, as primitive integer tuples."""
    if not rows and width is None:
        raise ValueError("width required for empty matrix")
    ncols = len(rows[0]) if rows else width
    work, pivots = row_reduce(rows)
    d = work[0][pivots[0]] if pivots else 1
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [0] * ncols
        v[fc] = d
        for r, pc in enumerate(pivots):
            v[pc] = -work[r][fc]
        basis.append(primitive(v))
    return basis


def adjugate(m):
    """(adj, det) of a nonsingular square integer matrix:
    m * adj = adj * m = det * I. Row-reduces [m | I] to [det I | adj].
    A singular matrix gives (None, 0).
    """
    n = len(m)
    aug = [list(row) + e for row, e in zip(m, identity_matrix(n))]
    work, pivots = row_reduce(aug, n)
    if len(pivots) < n:
        return None, 0
    return [row[n:] for row in work], work[0][0] if n else 1


# ----- integer forms with transforms -----


def _hermite_pass(work, m):
    """Column Hermite pass in place on ``work``, pivoting on its first
    ``m`` rows, so that the rows below, a transform stacked under the
    matrix, take every column operation with it. Returns the (row,
    column) pivots, which come first among the columns."""
    n = len(work[0]) if work else 0
    pivots = []
    for i in range(m):
        r = len(pivots)
        top = work[i]
        while True:
            nz = [j for j in range(r, n) if top[j]]
            if not nz:
                break
            j = min(nz, key=lambda j: abs(top[j]))
            for row in work:
                row[j], row[r] = row[r], row[j]
            if len(nz) == 1:
                break
            qs = [(j, top[j] // top[r]) for j in range(r + 1, n) if top[j]]
            for row in work:
                x = row[r]
                for j, q in qs:
                    row[j] -= q * x
        if r < n and top[r]:
            if top[r] < 0:
                for row in work:
                    row[r] = -row[r]
            qs = [(j, top[j] // top[r]) for j in range(r)]
            for row in work:
                x = row[r]
                for j, q in qs:
                    row[j] -= q * x
            pivots.append((i, r))
    return pivots


def hnf_columns(a):
    """Column-style Hermite form: returns (H, U, pivots) with A*U = H, U
    unimodular, from one Hermite pass on A stacked over I.

    Pivot columns come first; the remaining columns of H are zero, so the
    matching columns of U are a lattice basis of the integer kernel.
    """
    m = len(a)
    work = copy_matrix(a) + identity_matrix(len(a[0]) if m else 0)
    pivots = _hermite_pass(work, m)
    return work[:m], work[m:], pivots


def diagonalize(a):
    """Integer diagonalization: returns (U, S, V) with U*A*V = S diagonal.

    U and V are unimodular. Each round runs a column Hermite pass on S
    stacked over V, then one on S^T stacked over U^T, until no entry is
    off the diagonal, after at least one round, so the diagonal entries
    are Hermite pivots or zeros and nonnegative ([[-3]] gives [[3]]).
    They are not forced into a divisibility chain (not needed for
    quotient enumeration). A needs at least one column: a transpose of
    rows of no entries loses their count.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    s, u, v = copy_matrix(a), identity_matrix(m), identity_matrix(n)
    while True:
        work = s + v
        _hermite_pass(work, m)
        s, v = work[:m], work[m:]
        work = transpose(s) + transpose(u)
        _hermite_pass(work, n)
        s, u = transpose(work[:n]), transpose(work[n:])
        if all(x == 0 for i, row in enumerate(s) for j, x in enumerate(row) if i != j):
            return u, s, v


def int_inverse(m):
    """Exact inverse of a unimodular integer matrix."""
    adj, d = adjugate(m)
    if d not in (1, -1):
        raise ValueError("matrix is not unimodular")
    return [[d * x for x in row] for row in adj]


def rank_sparse(rows):
    """Rank of a sparse integer matrix given as dicts {col: coeff}, with
    any hashable column keys: rank over the densified rows."""
    cols = list({c for row in rows for c in row})
    return rank([[row.get(c, 0) for c in cols] for row in rows])
