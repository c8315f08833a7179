import pytest

from coxforge import cox
from coxforge.errors import UnsupportedGraphError
from coxforge.graphs import ResolutionGraph, build_custom_tree, build_singularity
from coxforge.rings import normal_form

RELATIONS = {
    ("D", 4): ("x3^2*y3 + x2^2*y2 + x1^2*y1", "x1^2*y1"),
    ("D", 5): ("x2^2*y2 + x1^2*y1 + x4^3*y3*y4^2", "x1^2*y1"),
    ("D", 6): ("x2^2*y2 + x1^2*y1 + x5^4*y3*y4^2*y5^3", "x1^2*y1"),
    ("E", 6): ("x1^2*y1 + x5^3*y4*y5^2 + x3^3*y2*y3^2", "x1^2*y1"),
    ("E", 7): ("x1^2*y1 + x3^3*y2*y3^2 + x6^4*y4*y5^2*y6^3", "x1^2*y1"),
    ("E", 8): ("x1^2*y1 + x3^3*y2*y3^2 + x7^5*y4*y5^2*y6^3*y7^4", "x1^2*y1"),
}


@pytest.mark.parametrize("family,n", sorted(RELATIONS))
def test_candidate_relation_frozen(family, n):
    graph = build_singularity(family, n)
    grading = graph.grading()
    rel = cox.relation_from_graph(graph)
    lead = cox.lead_term_of(graph)
    expected_rel, expected_lead = RELATIONS[(family, n)]
    assert grading.format_polynomial(rel) == expected_rel
    assert grading.format_monomial(lead) == expected_lead
    assert lead in rel.monomials()


@pytest.mark.parametrize(
    "family,n", [("D", n) for n in range(4, 13)] + [("E", n) for n in (6, 7, 8)]
)
def test_candidate_relation_homogeneous_of_center_degree(family, n):
    graph = build_singularity(family, n)
    grading = graph.grading()
    rel = cox.relation_from_graph(graph)
    center = graph.center()
    target = graph.unit_degree(center)
    assert len(rel.monomials()) == len(graph.branches())
    for mono in rel.monomials():
        assert grading.degree_of(mono) == target


@pytest.mark.parametrize("n", [1, 3, 8])
def test_chains_have_no_relation(n):
    graph = build_singularity("A", n)
    assert cox.relation_from_graph(graph) is None
    pres = cox.presentation_from_graph(graph)
    assert pres.relation is None


def test_custom_tree_relation_frozen():
    graph = build_custom_tree((2, 2, 3))
    grading = graph.grading()
    rel = cox.relation_from_graph(graph)
    assert (
        grading.format_polynomial(rel)
        == "x4^3*y3*y4^2 + x2^3*y1*y2^2 + x7^4*y5*y6^2*y7^3"
    )
    assert grading.format_monomial(cox.lead_term_of(graph)) == "x2^3*y1*y2^2"


def test_valence_four_star_is_rejected():
    graph = build_custom_tree((1, 1, 1, 1))
    with pytest.raises(UnsupportedGraphError):
        cox.relation_from_graph(graph)


def test_two_hub_tree_is_rejected():
    # H-shaped tree: two trivalent nodes 0 and 3 joined by an edge
    graph = ResolutionGraph(
        nodes=(0, 1, 2, 3, 4, 5),
        edges=((0, 1), (0, 2), (0, 3), (3, 4), (3, 5)),
        leaf_variables=(("x1", 1), ("x2", 2), ("x4", 4), ("x5", 5)),
    )
    with pytest.raises(UnsupportedGraphError):
        cox.relation_from_graph(graph)


PULLBACKS = {
    ("D", 4): [("H", True, "y0^2*y1*y2*y3")],
    ("D", 5): [
        ("H1", False, "x4*y0^4*y1^2*y2^2*y3^3*y4^2"),
        ("H2a", True, "x2^2*y0^6*y1^3*y2^4*y3^4*y4^2"),
        ("H2b", True, "x1^2*y0^6*y1^4*y2^3*y3^4*y4^2"),
    ],
    ("D", 6): [("H", True, "y0^4*y1^2*y2^2*y3^3*y4^2*y5")],
    ("E", 6): [("H", True, "y0^6*y1^3*y2^4*y3^2*y4^4*y5^2")],
    ("E", 7): [("H", True, "y0^12*y1^6*y2^8*y3^4*y4^9*y5^6*y6^3")],
    ("E", 8): [("H", True, "y0^30*y1^15*y2^20*y3^10*y4^24*y5^18*y6^12*y7^6")],
}


@pytest.mark.parametrize("family,n", sorted(PULLBACKS))
def test_cut_pullbacks_factor_to_candidate(family, n):
    grading = build_singularity(family, n).grading()
    model = cox.ambient_model(build_singularity(family, n))
    expected = PULLBACKS[(family, n)]
    assert [(c["name"], c["principal"]) for c in model["cuts"]] == [
        (name, principal) for name, principal, _ in expected
    ]
    for cut, (_, _, gcd) in zip(model["cuts"], expected):
        fact = cox.pullback_factorization(build_singularity(family, n), cut["terms"])
        assert grading.format_monomial(fact["gcd"]) == gcd
        assert fact["matches_candidate"], (family, n, cut["name"])


@pytest.mark.parametrize(
    "family,n",
    [("A", n) for n in range(1, 7)]
    + [("D", n) for n in range(4, 13)]
    + [("E", n) for n in (6, 7, 8)],
)
def test_verify_presentation_ok(family, n):
    report = cox.verify_presentation(build_singularity(family, n))
    assert report["ok"], report
    if family == "A":
        assert report["relation"] is None
        assert report["hypersurface_substitution_zero"]
    else:
        assert report["cuts"], report


def test_custom_tree_presentation_supports_normal_form():
    from coxforge.rings import Polynomial

    graph = build_custom_tree((2, 2, 3))
    pres = cox.presentation_from_graph(graph)
    grading = pres.grading
    rel = cox.relation_from_graph(graph)
    lead = cox.lead_term_of(graph)
    rest = rel - Polynomial.from_monomial(lead)
    assert normal_form(Polynomial.from_monomial(lead), pres) == -rest
    assert normal_form(rel, pres).is_zero()
