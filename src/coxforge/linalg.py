"""Exact integer and rational linear algebra.

Matrices are plain lists of lists of ints (Fractions where noted); no
floating point anywhere. The Hermite/diagonalization routines return the
unimodular transforms, which the lattice-point machinery needs.
"""

from fractions import Fraction
from math import gcd


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def copy_matrix(m):
    return [row[:] for row in m]


def transpose(m):
    return [list(col) for col in zip(*m)] if m else []


def mat_vec(m, v):
    return [sum(row[j] * v[j] for j in range(len(v))) for row in m]


def mat_mul(a, b):
    if not a or not b:
        return []
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def vec_gcd(v):
    g = 0
    for x in v:
        g = gcd(g, x)
    return g


def primitive(vec):
    """Scale a rational vector to a primitive integer vector.

    Sign is normalized so the first nonzero entry is positive. Returns a
    tuple; the zero vector is returned unchanged.
    """
    fr = [Fraction(x) for x in vec]
    if all(x == 0 for x in fr):
        return tuple(0 for _ in fr)
    denom = 1
    for x in fr:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in fr]
    g = vec_gcd(ints)
    ints = [x // g for x in ints]
    for x in ints:
        if x != 0:
            if x < 0:
                ints = [-y for y in ints]
            break
    return tuple(ints)


# ----- rational elimination -----


def rank(rows):
    """Exact rank of a matrix with int or Fraction entries."""
    work = [[Fraction(x) for x in row] for row in rows]
    if not work:
        return 0
    ncols = len(work[0])
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(work)):
            if work[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        pv = work[r][c]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c] / pv
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        r += 1
        if r == len(work):
            break
    return r


def nullspace(rows, width=None):
    """Basis of the rational nullspace, as primitive integer tuples."""
    if not rows:
        if width is None:
            raise ValueError("width required for empty matrix")
        return [tuple(1 if i == j else 0 for j in range(width)) for i in range(width)]
    ncols = len(rows[0])
    work = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(work)):
            if work[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        pv = work[r][c]
        work[r] = [a / pv for a in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for pr, pc in enumerate(pivots):
            v[pc] = -work[pr][fc]
        basis.append(primitive(v))
    return basis


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


def kernel_basis(a, width=None):
    """Lattice basis of {v in Z^n : A v = 0}, as a list of tuples."""
    if not a:
        if width is None:
            raise ValueError("width required for empty matrix")
        return [tuple(1 if i == j else 0 for j in range(width)) for i in range(width)]
    h, u, pivots = hnf_columns(a)
    n = len(a[0])
    rk = len(pivots)
    return [tuple(u[i][j] for i in range(n)) for j in range(rk, n)]


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


def inverse(m):
    """Exact inverse of a nonsingular square matrix, as Fractions."""
    n = len(m)
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        piv = None
        for i in range(c, n):
            if work[i][c] != 0:
                piv = i
                break
        if piv is None:
            raise ValueError("matrix is singular")
        work[c], work[piv] = work[piv], work[c]
        pv = work[c][c]
        work[c] = [x / pv for x in work[c]]
        for i in range(n):
            if i != c and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[c])]
    return [row[n:] for row in work]


def int_inverse(m):
    """Exact inverse of a unimodular integer matrix."""
    inv = inverse(m)
    if any(x.denominator != 1 for row in inv for x in row):
        raise ValueError("matrix is not unimodular")
    return [[int(x) for x in row] for row in inv]


def det(m):
    """Exact determinant via Bareiss."""
    n = len(m)
    if n == 0:
        return 1
    a = copy_matrix(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = None
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    swap = i
                    break
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


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
    divided by their gcd, which keeps entries small for the near-unit
    matrices produced by the cokernel audits.
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
