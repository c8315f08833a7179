"""Exact integer linear algebra.

Matrices are plain lists of lists of ints; no floating point anywhere.
One fraction-free Gauss-Jordan core, row_reduce (Bareiss 1968), serves
rank, nullspace, det, adjugate and int_inverse; primitive takes integer
vectors only. rank_sparse (its own elimination over dict rows),
hnf_columns, diagonalize and int_inverse have no caller in the package;
the benchmark's per-layer tracer still names them, and they go when it
stops.
"""

from math import gcd


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def copy_matrix(m):
    return [row[:] for row in m]


def transpose(m):
    return [list(col) for col in zip(*m)] if m else []


def mat_vec(m, v):
    return [sum(row[j] * v[j] for j in range(len(v))) for row in m]


def dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def vec_gcd(v):
    g = 0
    for x in v:
        g = gcd(g, x)
    return g


def primitive(vec):
    """Divide an integer vector by the gcd of its entries, with the sign
    that makes the first nonzero entry positive. Returns a tuple; the
    zero vector is returned unchanged."""
    g = vec_gcd(vec)
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


def _col_sub(m, j, k, q):
    """Column j -= q * column k."""
    for row in m:
        row[j] -= q * row[k]


def _col_swap(m, j, k):
    for row in m:
        row[j], row[k] = row[k], row[j]


def _col_neg(m, j):
    for row in m:
        row[j] = -row[j]


def hnf_columns(a):
    """Column-style Hermite form: returns (H, U) with A*U = H, U unimodular.

    Pivot columns come first; the remaining columns of H are zero, so the
    matching columns of U are a lattice basis of the integer kernel.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    h = copy_matrix(a)
    u = identity_matrix(n)
    r = 0
    pivots = []
    for i in range(m):
        if r == n:
            break
        while True:
            nz = [j for j in range(r, n) if h[i][j] != 0]
            if not nz:
                break
            j = min(nz, key=lambda j: abs(h[i][j]))
            if j != r:
                _col_swap(h, j, r)
                _col_swap(u, j, r)
            if len(nz) == 1:
                break
            for j2 in range(r + 1, n):
                if h[i][j2] != 0:
                    q = h[i][j2] // h[i][r]
                    if q:
                        _col_sub(h, j2, r, q)
                        _col_sub(u, j2, r, q)
        if h[i][r] != 0:
            if h[i][r] < 0:
                _col_neg(h, r)
                _col_neg(u, r)
            for j2 in range(r):
                q = h[i][j2] // h[i][r]
                if q:
                    _col_sub(h, j2, r, q)
                    _col_sub(u, j2, r, q)
            pivots.append((i, r))
            r += 1
    return h, u, pivots


def _row_sub(m, i, k, q):
    m[i] = [a - q * b for a, b in zip(m[i], m[k])]


def diagonalize(a):
    """Integer diagonalization: returns (U, S, V) with U*A*V = S diagonal.

    U and V are unimodular. Diagonal entries are nonnegative but not forced
    into a divisibility chain (not needed for quotient enumeration).
    """
    m = len(a)
    n = len(a[0]) if m else 0
    s = copy_matrix(a)
    u = identity_matrix(m)
    v = identity_matrix(n)
    t = 0
    while True:
        entries = [
            (abs(s[i][j]), i, j)
            for i in range(t, m)
            for j in range(t, n)
            if s[i][j] != 0
        ]
        if not entries:
            break
        _, pi, pj = min(entries)
        if pi != t:
            s[t], s[pi] = s[pi], s[t]
            u[t], u[pi] = u[pi], u[t]
        if pj != t:
            _col_swap(s, pj, t)
            _col_swap(v, pj, t)
        dirty = False
        for i in range(t + 1, m):
            if s[i][t] != 0:
                q = s[i][t] // s[t][t]
                if q:
                    _row_sub(s, i, t, q)
                    _row_sub(u, i, t, q)
                if s[i][t] != 0:
                    dirty = True
        for j in range(t + 1, n):
            if s[t][j] != 0:
                q = s[t][j] // s[t][t]
                if q:
                    _col_sub(s, j, t, q)
                    _col_sub(v, j, t, q)
                if s[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        if s[t][t] < 0:
            s[t] = [-x for x in s[t]]
            u[t] = [-x for x in u[t]]
        t += 1
        if t == min(m, n):
            break
    return u, s, v


def int_inverse(m):
    """Exact inverse of a unimodular integer matrix."""
    adj, d = adjugate(m)
    if d not in (1, -1):
        raise ValueError("matrix is not unimodular")
    return [[d * x for x in row] for row in adj]


def det(m):
    """Exact determinant of a square integer matrix."""
    work, pivots = row_reduce(m)
    if len(pivots) < len(m):
        return 0
    return work[-1][-1] if m else 1


def is_negative_definite(m):
    """Sylvester test: leading principal minors alternate, starting negative."""
    n = len(m)
    for i in range(n):
        if len(m[i]) != n:
            raise ValueError("matrix must be square")
        for j in range(n):
            if m[i][j] != m[j][i]:
                raise ValueError("matrix must be symmetric")
    for k in range(1, n + 1):
        minor = det([row[:k] for row in m[:k]])
        if (-1) ** k * minor <= 0:
            return False
    return True


def rank_sparse(rows):
    """Rank of a sparse integer matrix given as dicts {col: coeff}.

    Fraction-free elimination; rows are combined as r*pivot - p*r[c] and
    divided by their gcd, which keeps entries small for near-unit
    matrices.
    """
    work = [dict(r) for r in rows if r]
    rk = 0
    while work:
        work.sort(key=len)
        pivot_row = work.pop(0)
        pc = min(pivot_row, key=lambda c: (abs(pivot_row[c]), c))
        pv = pivot_row[pc]
        rk += 1
        reduced = []
        for r in work:
            if pc in r:
                f = r[pc]
                merged = {}
                for c in set(r) | set(pivot_row):
                    val = r.get(c, 0) * pv - pivot_row.get(c, 0) * f
                    if val:
                        merged[c] = val
                if merged:
                    g = vec_gcd(list(merged.values()))
                    if g > 1:
                        merged = {c: v // g for c, v in merged.items()}
                    reduced.append(merged)
            else:
                reduced.append(r)
        work = reduced
    return rk
