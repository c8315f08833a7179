"""Torus-invariant rings: the degree-zero part of a graded section ring.

The degree-zero monomials form a finitely generated normal monoid; its
Hilbert basis gives the invariant generators and the toric ideal between
them gives the relations. Normality makes the invariant ring
Cohen-Macaulay (Hochster 1972) with the interior ideal as its canonical
module (Danilov-Stanley), which bounds the degree of every minimal
relation, so toric_relations lists the fibers up to that bound in full
and its relations are exact, with no cap. For the classical graphs the
expected generators follow closed formulas (chains and forks) or a fixed reference table
(the three star shapes), and verify_invariant_table checks computation
against expectation exponent for exponent.

Every entry point takes the caller's ResolutionGraph and reads its
family, rank and grading; a custom tree has no reference table.
"""

import json
import os
from functools import lru_cache
from operator import add

from . import linalg
from .errors import ParameterError
from .rings import solve_degree_system


@lru_cache(maxsize=None)
def _tables():
    # read beside this file: importlib.resources would cost every
    # process its import, and the tables ship inside the package
    path = os.path.join(os.path.dirname(__file__), "data", "golden_tables.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _chain_generators(n, grading):
    top = "x1p" if n == 1 else "x%d" % n
    z1 = {top: n + 1}
    z2 = {"x1": n + 1}
    w = {"x1": 1, top: 1}
    for k in range(1, n + 1):
        z1["y%d" % k] = k
        z2["y%d" % k] = n + 1 - k
        w["y%d" % k] = 1
    return [
        ("Z1", grading.monomial(z1)),
        ("Z2", grading.monomial(z2)),
        ("W", grading.monomial(w)),
    ]


def _fork_generators(n, grading):
    last = "x%d" % (n - 1)
    if n % 2 == 0:
        k = n // 2
        z1 = {"x1": 2, "y0": 2 * k - 2, "y1": k, "y2": k - 1}
        z2 = {"x2": 2, "y0": 2 * k - 2, "y1": k - 1, "y2": k}
        z3 = {last: 2, "y0": 2, "y1": 1, "y2": 1}
        w = {"x1": 1, "x2": 1, last: 1, "y0": 2 * k - 1, "y1": k, "y2": k}
        for j in range(3, n):
            z1["y%d" % j] = 2 * k - j
            z2["y%d" % j] = 2 * k - j
            z3["y%d" % j] = 2
            w["y%d" % j] = 2 * k + 1 - j
        names = [("Z1", z1), ("Z2", z2), ("Z3", z3), ("W", w)]
    else:
        k = (n - 1) // 2
        z1 = {last: 2, "y0": 2, "y1": 1, "y2": 1}
        z2 = {"x1": 1, "x2": 1, "y0": 2 * k - 1, "y1": k, "y2": k}
        z3 = {"x2": 2, last: 1, "y0": 2 * k, "y1": k, "y2": k + 1}
        z4 = {"x1": 2, last: 1, "y0": 2 * k, "y1": k + 1, "y2": k}
        z5 = {"x2": 4, "y0": 4 * k - 2, "y1": 2 * k - 1, "y2": 2 * k + 1}
        z6 = {"x1": 4, "y0": 4 * k - 2, "y1": 2 * k + 1, "y2": 2 * k - 1}
        for j in range(3, n):
            z1["y%d" % j] = 2
            z2["y%d" % j] = 2 * k + 1 - j
            z3["y%d" % j] = 2 * k + 2 - j
            z4["y%d" % j] = 2 * k + 2 - j
            z5["y%d" % j] = 2 * (2 * k + 1 - j)
            z6["y%d" % j] = 2 * (2 * k + 1 - j)
        names = [("Z1", z1), ("Z2", z2), ("Z3", z3), ("Z4", z4), ("Z5", z5), ("Z6", z6)]
    return [(name, grading.monomial(e)) for name, e in names]


def golden_generators(graph):
    """Expected invariant generators of an A, D or E graph, as (name,
    Monomial) pairs in its grading."""
    family, n, grading = graph.family, graph.rank, graph.grading()
    if family == "A":
        return _chain_generators(n, grading)
    if family == "D":
        return _fork_generators(n, grading)
    if family == "E":
        table = _tables()["E"][str(n)]["generators"]
        return [(name, grading.monomial(e)) for name, e in table.items()]
    raise ParameterError("no reference invariant table for %s" % graph.label)


def golden_relations(graph):
    """Expected toric relations between the golden generators, each one a
    pair of exponent dicts over the generator names."""
    family, n = graph.family, graph.rank
    if family == "A":
        return [({"W": n + 1}, {"Z1": 1, "Z2": 1})]
    if family == "D":
        if n % 2 == 0:
            return [({"W": 2}, {"Z1": 1, "Z2": 1, "Z3": 1})]
        return [
            ({"Z2": 4}, {"Z5": 1, "Z6": 1}),
            ({"Z1": 1, "Z2": 2}, {"Z3": 1, "Z4": 1}),
            ({"Z2": 2, "Z4": 1}, {"Z3": 1, "Z6": 1}),
            ({"Z2": 2, "Z3": 1}, {"Z4": 1, "Z5": 1}),
            ({"Z4": 2}, {"Z1": 1, "Z6": 1}),
            ({"Z3": 2}, {"Z1": 1, "Z5": 1}),
        ]
    if family == "E":
        rels = _tables()["E"][str(n)]["relations"]
        return [tuple(dict(side) for side in pair) for pair in rels]
    raise ParameterError("no reference invariant table for %s" % graph.label)


def toric_relations(gens):
    """Minimal binomial relations among the monomials in gens, found
    exactly: every fiber of the substitution map up to a degree bound B
    is listed in full, and no minimal relation lies above B.

    Hypothesis: gens generate a normal monoid M, as any Hilbert basis of
    {s >= 0 : A s = 0} does. Weight the variable of each generator h_i
    by w_i = |h_i|, its total exponent, and let p be the rank of the
    relation lattice, k minus the rank of the exponent matrix. Over a
    field K, K[M] is Cohen-Macaulay (Hochster, Ann. Math. 1972), so by
    Auslander-Buchsbaum its minimal graded free resolution over
    K[Z_1..Z_k] has length p. The last module's shifts are sum(w) less
    the degrees of the generators of the canonical module, which is the
    ideal of the interior points (Danilov-Stanley; Bruns-Herzog,
    Cohen-Macaulay Rings, Thm 6.3.5) and so has none in degree 0: the
    largest shift there is at most sum(w) - 1. Dualised, a minimal resolution
    becomes a minimal resolution of the canonical module, whose least
    shift rises by at least min(w) from each module to the next; so from
    each module of the first to the one before it the largest shift drops
    by at least min(w). Every minimal relation thus has w-degree at most

        B = sum(w) - 1 - (p - 1) * min(w),

    and there is none when p = 0. A constant generator (w_i = 0) raises
    ParameterError, since it leaves no bound at all.

    Returns canonical pairs of exponent tuples over gens. Fibers of the
    substitution map are processed in ascending degree, and one new
    relation joins the least point of a fiber to the least point of each
    further component. Two points of a fiber that share a variable x_i
    differ by x_i times a binomial of a lower fiber, which is complete
    below the bound and so joined by the relations already accepted. A
    move along one of those, from a lower fiber, leaves a nonzero common
    factor of the two points it joins. So the components are the classes
    of "shares a variable", found by union-find with each root at the
    least point.
    """
    weights = [m.total() for m in gens]
    if 0 in weights:
        raise ParameterError("a constant generator bounds no relation degree")
    p = len(gens) - linalg.rank([m.exps for m in gens])
    if p == 0:
        return []
    bound = sum(weights) - 1 - (p - 1) * min(weights)
    k = len(gens)
    fibers = {}

    def grow(prefix, budget, subst):
        idx = len(prefix)
        if idx == k:
            fibers.setdefault(subst, []).append(prefix)
            return
        row, w = gens[idx].exps, weights[idx]
        for e in range(budget // w + 1):
            grow(prefix + (e,), budget - e * w, subst)
            subst = tuple(map(add, subst, row))

    def find(root, n):
        while root[n] != n:
            root[n] = root[root[n]]
            n = root[n]
        return n

    grow((), bound, (0,) * len(gens[0].exps))
    accepted = []
    for subst in sorted(fibers, key=lambda s: (sum(s), s)):
        pts = fibers[subst]
        if len(pts) < 2:
            continue
        pts.sort()
        root = list(range(len(pts)))
        holder = {}
        for n, pt in enumerate(pts):
            for i, e in enumerate(pt):
                if e:
                    a, b = find(root, n), find(root, holder.setdefault(i, n))
                    root[max(a, b)] = min(a, b)
        accepted += [(pts[0], pts[n]) for n in range(1, len(pts)) if find(root, n) == n]
    return sorted(tuple(sorted(pair)) for pair in accepted)


def relation_names(pair, names):
    """Render one relation pair over generator names as exponent dicts."""
    out = []
    for side in pair:
        out.append({names[i]: e for i, e in enumerate(side) if e})
    return tuple(out)


def format_relation(pair_dicts):
    sides = []
    for side in pair_dicts:
        factors = []
        for name in sorted(side):
            e = side[name]
            factors.append(name if e == 1 else "%s^%d" % (name, e))
        sides.append("*".join(factors) if factors else "1")
    return " = ".join(sides)


def _canonical_relation(pair_dicts):
    return tuple(sorted(tuple(sorted(side.items())) for side in pair_dicts))


def verify_invariant_table(graph):
    """Compare the computed invariant generators and relations of an A,
    D or E graph against the expected table. Returns a report dict with
    per-generator matches."""
    if graph.family is None:
        raise ParameterError("custom trees have no reference invariant table")
    grading = graph.grading()
    computed = list(solve_degree_system(grading))
    expected = golden_generators(graph)
    gen_rows = []
    matched = {}
    leftovers = list(computed)
    for name, want in expected:
        hit = next((m for m in leftovers if m == want), None)
        if hit is not None:
            leftovers.remove(hit)
            matched[name] = hit
        gen_rows.append(
            {
                "name": name,
                "expected": grading.format_monomial(want),
                "computed": grading.format_monomial(hit) if hit else None,
                "match": hit is not None,
            }
        )
    for i, extra in enumerate(leftovers, start=1):
        name = "G%d" % i
        matched[name] = extra
        gen_rows.append(
            {
                "name": name,
                "expected": None,
                "computed": grading.format_monomial(extra),
                "match": False,
            }
        )
    names = [row["name"] for row in gen_rows if row["computed"] is not None]
    gens = [matched[name] for name in names]
    found = [relation_names(pair, names) for pair in toric_relations(gens)]
    want_rels = golden_relations(graph)
    rel_match = {_canonical_relation(p) for p in found} == {
        _canonical_relation(p) for p in want_rels
    }
    ok = all(row["match"] for row in gen_rows) and rel_match
    return {
        "case": graph.label,
        "ok": ok,
        "generators": gen_rows,
        "relations": {
            "computed": [format_relation(p) for p in found],
            "expected": [format_relation(p) for p in want_rels],
            "match": rel_match,
        },
    }
