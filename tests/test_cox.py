import pytest

from coxforge import cli, cox
from coxforge.errors import ParameterError, UnsupportedGraphError
from coxforge.graphs import build_custom_tree, build_singularity
from coxforge.rings import Polynomial, RingPresentation, normal_form

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
    pres = cox.presentation_from_graph(graph)
    rel, lead = pres.relation, pres.lead
    expected_rel, expected_lead = RELATIONS[(family, n)]
    assert grading.format_polynomial(rel) == expected_rel
    assert grading.format_monomial(lead) == expected_lead
    assert lead in rel.terms


@pytest.mark.parametrize(
    "family,n", [("D", n) for n in range(4, 13)] + [("E", n) for n in (6, 7, 8)]
)
def test_candidate_relation_homogeneous_of_center_degree(family, n):
    graph = build_singularity(family, n)
    grading = graph.grading()
    rel = cox.presentation_from_graph(graph).relation
    center = graph.center()
    target = graph.unit_degree(center)
    assert len(rel.terms) == len(graph.branches())
    for mono in rel.terms:
        assert grading.degree_of(mono) == target


@pytest.mark.parametrize("n", [1, 3, 8])
def test_chains_have_no_relation(n):
    graph = build_singularity("A", n)
    pres = cox.presentation_from_graph(graph)
    assert (pres.relation, pres.lead) == (None, None)


def test_custom_tree_relation_frozen():
    graph = build_custom_tree((2, 2, 3))
    grading = graph.grading()
    pres = cox.presentation_from_graph(graph)
    assert (
        grading.format_polynomial(pres.relation)
        == "x4^3*y3*y4^2 + x2^3*y1*y2^2 + x7^4*y5*y6^2*y7^3"
    )
    assert grading.format_monomial(pres.lead) == "x2^3*y1*y2^2"


def test_valence_four_star_is_rejected():
    graph = build_custom_tree((1, 1, 1, 1))
    with pytest.raises(UnsupportedGraphError):
        cox.presentation_from_graph(graph)


def test_an_inhomogeneous_relation_is_not_presented():
    # the D4 relation with one leaf's exponent raised, as a leaf of
    # self-intersection -3 would give: that term leaves the center's degree
    pres = cox.presentation_from_graph(build_singularity("D", 4))
    g = pres.grading
    terms = dict(pres.relation.terms)
    terms[g.monomial({"x3": 3, "y3": 1})] = terms.pop(g.monomial({"x3": 2, "y3": 1}))
    with pytest.raises(ParameterError, match="relation is not homogeneous"):
        RingPresentation(g, Polynomial(terms), pres.lead)


def test_quotient_leaf_is_checked_before_the_hubs():
    with pytest.raises(ParameterError, match="not a branch-end leaf"):
        cox.presentation_from_graph(build_singularity("D", 4), leaf=0)
    with pytest.raises(UnsupportedGraphError):
        cox.presentation_from_graph(build_custom_tree((1, 1, 1, 1)), leaf=1)
    with pytest.raises(ParameterError, match="not a branch-end leaf"):
        cox.presentation_from_graph(build_custom_tree((1, 1, 1, 1)), leaf=0)


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
    report = cox.verify_presentation(build_singularity(family, n))
    assert [(c["name"], c["principal"], c["gcd"]) for c in report["cuts"]] == PULLBACKS[
        (family, n)
    ]
    for cut in report["cuts"]:
        assert cut["matches_candidate"], (family, n, cut["name"])
        assert cut["residual"] == report["relation"]


def _skewed_generators(monkeypatch):
    """Make Z1 and W each carry one extra factor of the last curve
    variable, so no cut and no hypersurface relation pulls back right."""
    golden = cox.golden_generators

    def skewed(graph):
        grading = graph.grading()
        extra = grading.monomial({graph.curve_variable(max(graph.nodes)): 1})
        return [(name, m * extra if name in ("Z1", "W") else m) for name, m in golden(graph)]

    monkeypatch.setattr(cox, "golden_generators", skewed)


@pytest.mark.parametrize("family,n", [("D", 4), ("D", 5), ("E", 6)])
def test_skewed_generators_fail_every_cut(monkeypatch, family, n):
    _skewed_generators(monkeypatch)
    report = cox.verify_presentation(build_singularity(family, n))
    assert report["cuts"]
    assert not any(cut["matches_candidate"] for cut in report["cuts"]), report
    assert report["ok"] is False


def test_skewed_generators_fail_the_hypersurface_check(monkeypatch):
    _skewed_generators(monkeypatch)
    report = cox.verify_presentation(build_singularity("A", 4))
    assert report["hypersurface_substitution_zero"] is False
    assert report["ok"] is False


@pytest.mark.parametrize("case", ["A4", "D5"])
def test_skewed_generators_make_cox_exit_1(monkeypatch, capsys, case):
    _skewed_generators(monkeypatch)
    assert cli.main(["cox", "--case", case]) == 1
    assert '"ok": false' in capsys.readouterr().out


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
    rel = pres.relation
    lead = Polynomial({pres.lead: 1})
    assert normal_form(lead, pres) == lead - rel
    assert normal_form(rel, pres).is_zero()
