"""Independent brute-force references: an enumeration that cross-checks
the cone pipeline, a plain walk of the reduction passes, and Sylvester's
criterion for negative definiteness (the last two at the end of this
file).

Degree conditions on a chain or star tree propagate linearly: fixing the
center exponent and the first exponent of each branch determines the
whole branch, and the section-variable exponents fall out at the ends.
Enumerating the few free values inside a box therefore lists every
monomial of a given degree with all exponents <= bound, with no Hilbert
basis machinery involved.
"""

from fractions import Fraction
from itertools import product


def _branch_assignment(graph, degree, e_center, first, branch, bound):
    """Exponents along one branch given the center value and the first
    branch value, or None when something leaves [0, bound]."""
    vals = {}
    prev, cur = e_center, first
    for t, node in enumerate(branch):
        if cur < 0 or cur > bound:
            return None
        vals[node] = cur
        d_node = degree[graph.nodes.index(node)]
        if t < len(branch) - 1:
            prev, cur = cur, 2 * cur + d_node - prev
        else:
            s = 2 * cur + d_node - prev
            if s < 0 or s > bound:
                return None
            vals["section"] = s
    return vals


def box_monomials(graph, degree, bound):
    """All exponent dicts {var name: exp} solving the degree system with
    every exponent in [0, bound]."""
    section_at = {}
    for name, node in graph.leaf_variables:
        section_at.setdefault(node, []).append(name)
    out = []
    center = graph.center()
    if center is None:
        out.extend(_chain_monomials(graph, degree, bound, section_at))
        return out
    branches = graph.branches()
    d_center = degree[graph.nodes.index(center)]
    for e_c in range(bound + 1):
        per_branch = []
        for branch in branches:
            options = {}
            for first in range(bound + 1):
                a = _branch_assignment(graph, degree, e_c, first, branch, bound)
                if a is not None:
                    options[first] = a
            per_branch.append(options)
        target = 2 * e_c + d_center
        # the center equation fixes the last branch's first value
        *heads, last = per_branch
        for head in product(*(sorted(o) for o in heads)):
            if target - sum(head) not in last:
                continue
            firsts = head + (target - sum(head),)
            exps = {graph.curve_variable(center): e_c}
            ok = True
            for branch, first, options in zip(branches, firsts, per_branch):
                a = options[first]
                for node in branch:
                    exps[graph.curve_variable(node)] = a[node]
                end = branch[-1]
                names = section_at.get(end, [])
                if len(names) != 1:
                    ok = False
                    break
                exps[names[0]] = a["section"]
            if ok:
                out.append(exps)
    return out


def _chain_monomials(graph, degree, bound, section_at):
    nodes = graph.nodes
    n = len(nodes)
    out = []
    if n == 1:
        node = nodes[0]
        names = section_at.get(node, [])
        d0 = degree[0]
        for e in range(bound + 1):
            total = 2 * e + d0
            if len(names) == 2:
                for s in range(min(bound, total) + 1):
                    sp = total - s
                    if 0 <= sp <= bound:
                        out.append({graph.curve_variable(node): e, names[0]: s, names[1]: sp})
            elif len(names) == 1:
                if 0 <= total <= bound:
                    out.append({graph.curve_variable(node): e, names[0]: total})
        return out
    first_name = section_at[nodes[0]][0]
    last_name = section_at[nodes[-1]][0]
    for e1 in range(bound + 1):
        for s1 in range(bound + 1):
            vals = [e1]
            # node t equation: e_{t-1} + e_{t+1} - 2 e_t (+ sections) = d_t
            nxt = 2 * e1 + degree[0] - s1
            ok = True
            for t in range(1, n):
                if nxt < 0 or nxt > bound:
                    ok = False
                    break
                vals.append(nxt)
                if t < n - 1:
                    nxt = 2 * vals[t] + degree[t] - vals[t - 1]
            if not ok:
                continue
            s_last = 2 * vals[-1] + degree[n - 1] - vals[-2]
            if s_last < 0 or s_last > bound:
                continue
            exps = {graph.curve_variable(node): v for node, v in zip(nodes, vals)}
            exps[first_name] = s1
            exps[last_name] = s_last
            out.append(exps)
    return out


def box_exponent_tuples(graph, degree, bound):
    """Same enumeration, as exponent tuples in grading variable order."""
    variables = graph.grading().variables
    return {
        tuple(exps.get(v, 0) for v in variables) for exps in box_monomials(graph, degree, bound)
    }


def is_irreducible(graph, vec):
    """A degree-zero monomial is irreducible exactly when the only monoid
    elements inside its componentwise box are 0 and itself."""
    g = graph.grading()
    zero = (0,) * len(graph.nodes)
    inside = box_exponent_tuples(graph, zero, max(vec))
    box = {c for c in inside if all(a <= b for a, b in zip(c, vec))}
    return box <= {(0,) * len(vec), tuple(vec)}


def decomposes(vec, basis):
    """Whether vec is a (possibly empty) nonnegative sum of basis vectors."""
    basis = [tuple(b) for b in basis]
    seen = set()

    def rec(v):
        if all(x == 0 for x in v):
            return True
        if v in seen:
            return False
        seen.add(v)
        for b in basis:
            if all(a >= c for a, c in zip(v, b)):
                if rec(tuple(a - c for a, c in zip(v, b))):
                    return True
        return False

    return rec(tuple(vec))


# ------------------------------------------------------- reduction walk
#
# A plain walk of the two reduction passes, written from their rules
# alone: every step rescans the degree from the first curve, every chain
# is found by breadth-first search, and every column is read off the
# edges, with -2 on the diagonal, and summed directly. It keeps nothing
# between steps but the degree. A step is (kind, nodes, curves,
# degree_before, degree_after, expected_dim).


def _column(graph, node):
    col = [0] * len(graph.nodes)
    # every curve of a chain or a star is a (-2)-curve
    col[graph.nodes.index(node)] = -2
    for a, b in graph.edges:
        if node in (a, b):
            col[graph.nodes.index(b if a == node else a)] = 1
    return col


def _moved(graph, degree, curves, sign):
    out = list(degree)
    for v in curves:
        out = [x + sign * c for x, c in zip(out, _column(graph, v))]
    return tuple(out)


def _bfs_path(graph, a, b):
    parent = {a: None}
    queue = [a]
    for n in queue:
        for m in graph.neighbors(n):
            if m not in parent:
                parent[m] = n
                queue.append(m)
    path = [b]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return tuple(reversed(path))


def _at(graph, degree, node):
    return degree[graph.nodes.index(node)]


def twice_s(graph, degree):
    """The S-measure doubled: weight 1 on the nodes of the first two arms
    of length 1 of a three-arm star with at least two such arms, on
    nodes 1 and 2 of every other graph, and 2 elsewhere."""
    light = [1, 2]
    if graph.center() is not None and len(graph.branches()) == 3:
        short = [arm[0] for arm in graph.branches() if len(arm) == 1]
        if len(short) >= 2:
            light = short[:2]
    return sum(c * (1 if v in light else 2) for v, c in zip(graph.nodes, degree))


def _walk_is_basic(graph, degree):
    nonzero = [(v, c) for v, c in zip(graph.nodes, degree) if c]
    if not nonzero:
        return True
    return len(nonzero) == 1 and nonzero[0][1] > 0 and nonzero[0][0] in graph.basic_leaves()


def _walk_shift_target(graph, node):
    if graph.center() is None:
        # a chain's nodes run 1..n along its path
        return graph.nodes[-1]
    if node == graph.center():
        longest = sorted(graph.branches(), key=lambda ch: (len(ch), ch[0]))[-1]
        return longest[-1]
    return next(ch for ch in graph.branches() if node in ch)[-1]


def walk_to_nef(graph, degree, step_cap):
    """(steps, terminal, terminated) of the nef pass."""
    d = tuple(degree)
    steps = []
    while True:
        negative = [v for v in graph.curve_order() if _at(graph, d, v) < 0]
        if not negative:
            return steps, d, True
        if len(steps) >= step_cap:
            return steps, d, False
        v = negative[0]
        after = _moved(graph, d, [v], -1)
        steps.append(("SubtractCurve", (v,), (v,), d, after, 0))
        d = after


def walk_to_basic(graph, degree, step_cap, known=()):
    """(steps, terminal, terminated, twice_measures) of the basic pass.
    The measures follow the add phase only."""
    d = tuple(degree)
    steps = []
    twice = [twice_s(graph, d)]
    order = graph.curve_order()
    while d not in known and not _walk_is_basic(graph, d):
        if len(steps) >= step_cap:
            return steps, d, False, twice
        big = [v for v in order if _at(graph, d, v) >= 2]
        ones = [v for v in order if _at(graph, d, v) == 1]
        if big:
            v = big[0]
            after = _moved(graph, d, [v], 1)
            steps.append(("AddCurve", (v,), (v,), d, after, _at(graph, d, v) - 1))
        elif len(ones) >= 2:
            u, w = next(
                (u, w)
                for a, u in enumerate(ones)
                for w in ones[a + 1:]
                if all(_at(graph, d, x) == 0 for x in _bfs_path(graph, u, w)[1:-1])
            )
            chain = _bfs_path(graph, u, w)
            after = _moved(graph, d, chain, 1)
            steps.append(("AddChain", (u, w), chain, d, after, _at(graph, d, w)))
        else:
            p = ones[0]
            j = _walk_shift_target(graph, p)
            while p != j:
                if len(steps) >= step_cap:
                    return steps, d, False, twice
                q = _bfs_path(graph, p, j)[1]
                chain = _bfs_path(graph, q, j)
                after = _moved(graph, d, chain, -1)
                dim = _at(graph, after, j) - 1 + (_at(graph, after, q) if q != j else 0)
                steps.append(("ShiftToLeaf", (p, j), chain, d, after, dim))
                d = after
                p = q
            continue
        d = after
        twice.append(twice_s(graph, d))
    return steps, d, True, twice


# ------------------------------------------------- Sylvester's criterion


def det(matrix):
    """The determinant of a square integer matrix, by Gaussian
    elimination over the rationals."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    out = Fraction(1)
    for c in range(len(rows)):
        p = next((r for r in range(c, len(rows)) if rows[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            out = -out
        top = rows[c]
        out *= top[c]
        for r in range(c + 1, len(rows)):
            f = rows[r][c] / top[c]
            rows[r] = [x - f * y for x, y in zip(rows[r], top)]
    return out


def is_negative_definite(matrix):
    """Sylvester's criterion: a symmetric matrix is negative definite
    exactly when its k-th leading principal minor has the sign of
    (-1)^k for every k."""
    return all(
        (-1) ** k * det([row[:k] for row in matrix[:k]]) > 0
        for k in range(1, len(matrix) + 1)
    )
