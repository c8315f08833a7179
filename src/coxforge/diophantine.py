"""Hilbert bases of pointed rational cones and of degree-zero monoids.

solve_nonneg gives the Hilbert basis of {v >= 0 : A v = 0}: it
parametrizes the integer kernel of A by a lattice basis L and takes the
Hilbert basis of the pointed cone {u : L u >= 0}. Graded pieces of
nonzero degree do not come through here; rings.monomials_of_degree
solves for them directly.

The Hilbert basis of a pointed cone B x >= 0 is found the classical way:
extreme rays by active-constraint enumeration, a pulling triangulation
into simplicial subcones, lattice points of each fundamental
parallelepiped via integer diagonalization transforms, then an
irreducibility filter over the collected candidates.
"""

from itertools import combinations, product

from . import linalg
from .errors import ResourceCapError

# safety valve for degenerate inputs; ADE cones stay tiny
_POINT_LIMIT = 500_000


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


def _facets(rays, idx):
    """Facets of cone(rays[i], i in idx), as frozensets of indices."""
    sub = [rays[i] for i in idx]
    dim = len(rays[0])
    # a normal inside span(sub) is orthogonal to the complement of that span
    perp = linalg.nullspace(sub)
    d = dim - len(perp)
    out = set()
    for comb in combinations(idx, d - 1):
        ns = linalg.nullspace([rays[i] for i in comb] + perp, width=dim)
        if len(ns) != 1:
            continue
        h = ns[0]
        vals = {i: linalg.dot(h, rays[i]) for i in idx}
        if any(v > 0 for v in vals.values()) and any(v < 0 for v in vals.values()):
            continue
        face = frozenset(i for i in idx if vals[i] == 0)
        if len(face) == len(idx):
            continue
        if linalg.rank([rays[i] for i in face]) == d - 1:
            out.add(face)
    return out


def triangulate_cone(rays):
    """Pulling triangulation into simplicial subcones; index tuples."""

    def rec(idx):
        sub = [rays[i] for i in idx]
        d = linalg.rank(sub)
        if len(idx) == d:
            return [tuple(idx)]
        v0 = idx[0]
        simplices = set()
        for face in _facets(rays, idx):
            if v0 in face:
                continue
            for s in rec(tuple(sorted(face))):
                simplices.add(tuple(sorted(s + (v0,))))
        return sorted(simplices)

    if not rays:
        return []
    return rec(tuple(range(len(rays))))


def parallelepiped_points(vectors):
    """Lattice points of the half-open parallelepiped of independent
    integer vectors, including the origin."""
    k = len(vectors)
    dim = len(vectors[0])
    r_cols = [[vectors[j][i] for j in range(k)] for i in range(dim)]
    u, s, _v = linalg.diagonalize(r_cols)
    uinv = linalg.int_inverse(u)
    # saturation basis: first k columns of U^{-1}; generator coordinates
    # in that basis: first k rows of U * R
    w_cols = [[uinv[i][j] for j in range(k)] for i in range(dim)]
    ur = linalg.mat_mul(u, r_cols)
    m = [ur[i][:] for i in range(k)]
    for i in range(k, dim):
        if any(x != 0 for x in ur[i]):
            raise ValueError("generators are not independent")
    u2, s2, _v2 = linalg.diagonalize(m)
    diag = [s2[i][i] for i in range(k)]
    count = 1
    for dd in diag:
        count *= dd
    if count == 0:
        raise ValueError("generators are not independent")
    if count > _POINT_LIMIT:
        raise ResourceCapError("parallelepiped holds %d lattice points" % count)
    u2inv = linalg.int_inverse(u2)
    adj, det = linalg.adjugate(m)
    if det < 0:
        adj, det = [[-x for x in row] for row in adj], -det
    points = set()
    for t in product(*(range(dd) for dd in diag)):
        y = [sum(u2inv[i][j] * t[j] for j in range(k)) for i in range(k)]
        # floor of m^-1 y
        floors = [linalg.dot(row, y) // det for row in adj]
        pk = [y[i] - sum(m[i][j] * floors[j] for j in range(k)) for i in range(k)]
        x = [sum(w_cols[i][j] * pk[j] for j in range(k)) for i in range(dim)]
        points.add(tuple(x))
    return sorted(points)


def hilbert_basis_inequalities(ineqs, dim):
    """Hilbert basis of the monoid {x in Z^dim : B x >= 0} (pointed)."""
    rays = cone_rays(ineqs, dim)
    if not rays:
        return []
    candidates = set(rays)
    for simplex in triangulate_cone(rays):
        vecs = [rays[i] for i in simplex]
        for p in parallelepiped_points(vecs):
            if any(x != 0 for x in p):
                candidates.add(p)
    for c in candidates:
        if not in_cone(ineqs, c):
            raise AssertionError("candidate escaped the cone")
    cand = sorted(candidates)
    basis = []
    for h in cand:
        reducible = False
        for c in cand:
            if c == h:
                continue
            diff = tuple(a - b for a, b in zip(h, c))
            if all(x == 0 for x in diff):
                continue
            if in_cone(ineqs, diff):
                reducible = True
                break
        if not reducible:
            basis.append(h)
    return basis


def _vec_key(v):
    return (sum(v), v)


def solve_nonneg(a_rows):
    """Hilbert basis of the monoid {v >= 0 : A v = 0}, sorted by total
    degree then lexicographically: every nonnegative solution of the
    homogeneous system is a sum of its elements."""
    if not a_rows:
        raise ValueError("empty system")
    n_vars = len(a_rows[0])
    kb = linalg.kernel_basis(a_rows, width=n_vars)
    r = len(kb)
    if r == 0:
        return []
    lrows = [[kb[a][i] for a in range(r)] for i in range(n_vars)]
    basis = [
        tuple(sum(lrows[i][a] * u[a] for a in range(r)) for i in range(n_vars))
        for u in hilbert_basis_inequalities(lrows, r)
    ]
    for m in basis:
        if any(x < 0 for x in m) or any(x != 0 for x in linalg.mat_vec(a_rows, list(m))):
            raise AssertionError("bad Hilbert basis element")
    return sorted(basis, key=_vec_key)
