"""Candidate section-ring presentations and their ambient models.

A star tree with one trivalent center carries a single candidate
relation: one term per branch, the curve variable at distance t from the
center raised to the t-th power, times the branch-end section variable
raised to (branch length + 1). Chains carry no relation. Trees with a
higher-valence node or several trivalent nodes are legal graphs, but no
candidate relation rule applies to them.

The ambient model of an A, D or E graph realizes the same ring inside
the invariant-ring ambient: the listed hyperplane cuts pull back, after
dividing out a monomial common factor, to exactly the candidate
relation. Every function takes the caller's ResolutionGraph, and
verify_presentation is the one report for every graph.
"""

from .errors import ParameterError, UnsupportedGraphError
from .invariants import golden_generators, golden_relations
from .rings import Monomial, Polynomial, RingPresentation, normal_form


def section_name_at(graph, node):
    names = [name for name, at in graph.leaf_variables if at == node]
    if len(names) != 1:
        raise ParameterError("branch end %d needs exactly one section variable" % node)
    return names[0]


def branch_term(graph, branch):
    """The candidate relation term of one branch."""
    exps = {}
    for t, node in enumerate(branch, start=1):
        exps[graph.curve_variable(node)] = t
    exps[section_name_at(graph, branch[-1])] = len(branch) + 1
    return graph.grading().monomial(exps)


def relation_from_graph(graph):
    """Candidate relation polynomial, or None for a chain.

    Raises UnsupportedGraphError when the tree has a node of valence
    four or more, or more than one trivalent node.
    """
    hubs = [v for v in graph.nodes if graph.valence(v) >= 3]
    if not hubs:
        return None
    if len(hubs) > 1:
        raise UnsupportedGraphError(
            "no candidate relation for a tree with %d branch points" % len(hubs)
        )
    if graph.valence(hubs[0]) > 3:
        raise UnsupportedGraphError(
            "no candidate relation at a node of valence %d" % graph.valence(hubs[0])
        )
    return Polynomial({branch_term(graph, br): 1 for br in graph.branches()})


def lead_term_of(graph):
    """Lead term choice: the term of the shortest branch, ties broken by
    the smaller first node id."""
    branch = min(graph.branches(), key=lambda br: (len(br), br[0]))
    return branch_term(graph, branch)


def presentation_from_graph(graph):
    """RingPresentation over the graph grading with the candidate
    relation (when one exists)."""
    grading = graph.grading()
    rel = relation_from_graph(graph)
    if rel is None:
        return RingPresentation(grading)
    return RingPresentation(grading, rel, lead_term_of(graph))


def ambient_model(graph):
    """Invariant-ring ambient data of an A, D or E graph: generators,
    toric relations, and the hyperplane cuts whose pullbacks recover the
    candidate relation."""
    family, n = graph.family, graph.rank
    gens = golden_generators(graph)
    rels = golden_relations(graph)
    if family == "A":
        cuts = []
    elif family == "D":
        if n % 2 == 0:
            k = n // 2
            cuts = [
                {
                    "name": "H",
                    "terms": [{"Z1": 1}, {"Z2": 1}, {"Z3": k - 1}],
                    "principal": True,
                }
            ]
        else:
            k = (n - 1) // 2
            cuts = [
                {
                    "name": "H1",
                    "terms": [{"Z1": k}, {"Z3": 1}, {"Z4": 1}],
                    "principal": False,
                },
                {
                    "name": "H2a",
                    "terms": [{"Z1": k - 1, "Z3": 1}, {"Z2": 2}, {"Z5": 1}],
                    "principal": True,
                },
                {
                    "name": "H2b",
                    "terms": [{"Z1": k - 1, "Z4": 1}, {"Z2": 2}, {"Z6": 1}],
                    "principal": True,
                },
            ]
    else:
        terms = {
            6: [{"Z1": 2}, {"Z3": 1}, {"Z4": 1}],
            7: [{"Z1": 3}, {"Z2": 1}, {"Z4": 2}],
            8: [{"Z2": 5}, {"Z3": 3}, {"Z1": 2}],
        }[n]
        cuts = [{"name": "H", "terms": terms, "principal": True}]
    return {
        "family": family,
        "n": n,
        "generators": gens,
        "relations": rels,
        "cuts": cuts,
    }


def _substitute_term(gens, grading, term):
    out = grading.one()
    for name, e in term.items():
        out = out * (gens[name] ** e)
    return out


def pullback_factorization(graph, cut_terms):
    """Substitute generator monomials into one cut, split off the
    greatest common monomial factor, and compare the residual with the
    candidate relation."""
    grading = graph.grading()
    gens = dict(golden_generators(graph))
    monos = [_substitute_term(gens, grading, term) for term in cut_terms]
    gcd = Monomial(tuple(min(m.exps[i] for m in monos) for i in range(grading.width)))
    residual = Polynomial({m / gcd: 1 for m in monos})
    candidate = relation_from_graph(graph)
    return {
        "gcd": gcd,
        "residual": residual,
        "matches_candidate": candidate is not None and residual == candidate,
    }


def verify_presentation(graph):
    """Full candidate-presentation report: the relation, its lead and
    the check that fits the graph. A chain's ambient hypersurface
    relation must vanish under substitution, the ambient cuts of a D or
    E graph must pull back to the candidate relation, and the relation
    of any other star must have normal form zero in its own
    presentation."""
    grading = graph.grading()
    rel = relation_from_graph(graph)
    report = {
        "case": graph.label,
        "variables": list(grading.variables),
        "relation": grading.format_polynomial(rel) if rel is not None else None,
        "lead": grading.format_monomial(lead_term_of(graph)) if rel is not None else None,
        "cuts": [],
    }
    ok = True
    if graph.family is None:
        if rel is not None:
            ok = normal_form(rel, presentation_from_graph(graph)).is_zero()
            report["normal_form_zero"] = ok
        report["ok"] = ok
        return report
    model = ambient_model(graph)
    gens = dict(model["generators"])
    if graph.family == "A":
        # the ambient is a hypersurface: its toric relation must vanish
        # identically under substitution
        (lhs, rhs), = model["relations"]
        ok = _substitute_term(gens, grading, lhs) == _substitute_term(gens, grading, rhs)
        report["hypersurface_substitution_zero"] = ok
    for cut in model["cuts"]:
        fact = pullback_factorization(graph, cut["terms"])
        report["cuts"].append(
            {
                "name": cut["name"],
                "principal": cut["principal"],
                "gcd": grading.format_monomial(fact["gcd"]),
                "residual": grading.format_polynomial(fact["residual"]),
                "matches_candidate": fact["matches_candidate"],
            }
        )
        ok = ok and fact["matches_candidate"]
    report["ok"] = ok
    return report
