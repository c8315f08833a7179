"""Torus-invariant rings: the degree-zero part of a graded section ring.

The degree-zero monomials form a finitely generated monoid; its Hilbert
basis gives the invariant generators and the toric ideal between them
gives the relations. For the classical graphs the expected generators
follow closed formulas (chains and forks) or a fixed reference table
(the three star shapes), and verify_invariant_table checks computation
against expectation exponent for exponent.

Every entry point takes the caller's ResolutionGraph and reads its
family, rank and grading; a custom tree has no reference table.
"""

import json
from importlib import resources

from .errors import ParameterError
from .rings import solve_degree_system


def _load_reference_tables():
    path = resources.files("coxforge").joinpath("data/golden_tables.json")
    return json.loads(path.read_text())


_TABLES = None


def _tables():
    global _TABLES
    if _TABLES is None:
        _TABLES = _load_reference_tables()
    return _TABLES


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


def default_relation_cap(graph):
    if graph.family == "A":
        return graph.rank + 2
    if graph.family == "D":
        return 4 if graph.rank % 2 == 0 else 5
    return 8


def toric_relations(gens, cap):
    """Minimal binomial relations among the monomials in gens, searched
    over generator exponent vectors of total degree <= cap.

    Returns canonical pairs of exponent tuples over gens. Fibers of the
    substitution map are processed in ascending degree; inside a fiber,
    points already linked by accepted relations are merged, and one new
    relation is added per extra connected component.
    """
    k = len(gens)
    fibers = {}

    def grow(prefix, budget, idx):
        if idx == k:
            subst = tuple(
                sum(prefix[i] * gens[i].exps[j] for i in range(k))
                for j in range(len(gens[0].exps))
            )
            fibers.setdefault(subst, []).append(tuple(prefix))
            return
        for e in range(budget + 1):
            grow(prefix + [e], budget - e, idx + 1)

    grow([], cap, 0)
    accepted = []

    def linked(u, v):
        for p, q in accepted:
            for a, b in ((p, q), (q, p)):
                if all(x >= y for x, y in zip(u, a)):
                    if tuple(x - y + z for x, y, z in zip(u, a, b)) == v:
                        return True
        return False

    for subst in sorted(fibers, key=lambda s: (sum(s), s)):
        pts = sorted(fibers[subst])
        if len(pts) < 2:
            continue
        # connected components under moves by accepted relations
        comps = []
        for p in pts:
            merged = [c for c in comps if any(linked(p, q) or linked(q, p) for q in c)]
            rest = [c for c in comps if c not in merged]
            new = [p]
            for c in merged:
                new.extend(c)
            comps = rest + [sorted(new)]
        comps.sort()
        for other in comps[1:]:
            accepted.append((comps[0][0], other[0]))
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


def verify_invariant_table(graph, relation_cap=None):
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
    cap = relation_cap if relation_cap is not None else default_relation_cap(graph)
    found = [relation_names(pair, names) for pair in toric_relations(gens, cap)]
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
