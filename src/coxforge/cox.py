"""Candidate section-ring presentations and the one cox report.

A star with three arms carries a single candidate relation: one term
per arm, the curve variable at distance t from the center raised to the
t-th power, times the arm-end section variable raised to (arm length +
1), led by the first arm in curve order. Chains carry no relation. A
star with four or more arms is a legal graph, but no candidate relation
rule applies to it. presentation_from_graph builds the presentation,
and with a leaf the quotient that sets the leaf's section variable to
zero.

The invariant-ring ambient of an A, D or E graph realizes the same
ring: under the reference generators the ambient hypersurface relation
of a chain vanishes, and each hard-coded hyperplane cut of a D or E
graph (_cuts) pulls back, after dividing out the greatest common
monomial factor of its terms, to exactly the candidate relation. Every
function takes the caller's ResolutionGraph, and verify_presentation
is the one report for every graph.
"""

from .errors import ParameterError, UnsupportedGraphError
from .invariants import golden_generators, golden_relations
from .rings import Monomial, Polynomial, RingPresentation, normal_form


def section_name_at(graph, node):
    names = [name for name, at in graph.leaf_variables if at == node]
    if len(names) != 1:
        raise ParameterError("branch end %d needs exactly one section variable" % node)
    return names[0]


def _term_exponents(graph, branch):
    exps = {graph.curve_variable(node): t for t, node in enumerate(branch, start=1)}
    exps[section_name_at(graph, branch[-1])] = len(branch) + 1
    return exps


def _relation(graph, grading, leaf=None):
    """(relation, lead) over ``grading``, or None for a chain: a term per
    branch but the one ending at ``leaf``, led by the first branch left
    in curve order. Raises UnsupportedGraphError on a star with four or
    more arms."""
    center = graph.center()
    if center is None:
        return None
    if graph.valence(center) > 3:
        raise UnsupportedGraphError(
            "no candidate relation at a node of valence %d" % graph.valence(center)
        )
    arms = [br for br in graph.branches() if br[-1] != leaf]
    terms = {br[0]: grading.monomial(_term_exponents(graph, br)) for br in arms}
    lead = next(terms[v] for v in graph.curve_order() if v in terms)
    return Polynomial(dict.fromkeys(terms.values(), 1)), lead


def presentation_from_graph(graph, leaf=None):
    """RingPresentation over the graph grading with the candidate
    relation (when one exists) and its lead.

    With ``leaf``, a node of ``graph.basic_leaves()``, the presentation
    of the quotient that sets the leaf's section variable to zero: the
    variable leaves the grading, the term it divides leaves the
    relation, and the first branch left in curve order gives the lead.
    """
    grading = graph.grading()
    if leaf is not None:
        if leaf not in graph.basic_leaves():
            raise ParameterError("node %r is not a branch-end leaf" % (leaf,))
        grading = grading.drop([section_name_at(graph, leaf)])
    return RingPresentation(grading, *(_relation(graph, grading, leaf) or ()))


def _cuts(graph):
    """Hyperplane cuts of the invariant-ring ambient of a D or E graph,
    as (name, principal, terms), each term an exponent dict over the
    generator names; no cuts for any other graph."""
    family, n = graph.family, graph.rank
    if family == "D" and n % 2 == 0:
        return [("H", True, [{"Z1": 1}, {"Z2": 1}, {"Z3": n // 2 - 1}])]
    if family == "D":
        k = (n - 1) // 2
        return [
            ("H1", False, [{"Z1": k}, {"Z3": 1}, {"Z4": 1}]),
            ("H2a", True, [{"Z1": k - 1, "Z3": 1}, {"Z2": 2}, {"Z5": 1}]),
            ("H2b", True, [{"Z1": k - 1, "Z4": 1}, {"Z2": 2}, {"Z6": 1}]),
        ]
    if family == "E":
        terms = {
            6: [{"Z1": 2}, {"Z3": 1}, {"Z4": 1}],
            7: [{"Z1": 3}, {"Z2": 1}, {"Z4": 2}],
            8: [{"Z2": 5}, {"Z3": 3}, {"Z1": 2}],
        }[n]
        return [("H", True, terms)]
    return []


def verify_presentation(graph):
    """Full candidate-presentation report: the relation, its lead and
    the check that fits the graph. A chain's ambient hypersurface
    relation must vanish under substitution, and each ambient cut of a
    D or E graph, pulled back and divided by the greatest common
    monomial factor of its terms, must equal the candidate relation.
    The relation of any other star must have normal form zero in its
    own presentation."""
    grading = graph.grading()
    pres = presentation_from_graph(graph)
    rel = pres.relation
    report = {
        "case": graph.label,
        "variables": list(grading.variables),
        "relation": grading.format_polynomial(rel) if rel is not None else None,
        "lead": grading.format_monomial(pres.lead) if rel is not None else None,
        "cuts": [],
    }
    ok = True
    if graph.family is None:
        if rel is not None:
            ok = normal_form(rel, pres).is_zero()
            report["normal_form_zero"] = ok
        report["ok"] = ok
        return report
    gens = dict(golden_generators(graph))

    def pullback(term):
        out = grading.one()
        for name, e in term.items():
            out = out * gens[name] ** e
        return out

    if graph.family == "A":
        # the ambient is a hypersurface: its toric relation must vanish
        # identically under substitution
        (lhs, rhs), = golden_relations(graph)
        ok = pullback(lhs) == pullback(rhs)
        report["hypersurface_substitution_zero"] = ok
    for name, principal, terms in _cuts(graph):
        monos = [pullback(term) for term in terms]
        gcd = Monomial(tuple(map(min, *(m.exps for m in monos))))
        residual = Polynomial({m / gcd: 1 for m in monos})
        matches = residual == rel
        report["cuts"].append(
            {
                "name": name,
                "principal": principal,
                "gcd": grading.format_monomial(gcd),
                "residual": grading.format_polynomial(residual),
                "matches_candidate": matches,
            }
        )
        ok = ok and matches
    report["ok"] = ok
    return report
