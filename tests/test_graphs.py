import json
import re
from itertools import combinations_with_replacement, product

import pytest

from coxforge.cli import parse_case
from coxforge.cox import presentation_from_graph
from coxforge.errors import ParameterError
from coxforge.graphs import build_custom_tree, build_singularity
from coxforge.rings import Grading
from coxforge.sections import audit_add_curve, base_case_audit

import oracle

ADE_CASES = (
    ["A%d" % n for n in range(1, 9)]
    + ["D%d" % n for n in range(4, 13)]
    + ["E%d" % n for n in (6, 7, 8)]
)


def test_chain_builder():
    g = build_singularity("A", 3)
    assert g.nodes == (1, 2, 3)
    assert g.edges == ((1, 2), (2, 3))
    assert g.leaf_variables == (("x1", 1), ("x3", 3))
    assert g.label == "A3"
    assert g.center() is None
    assert g.curve_order() == (1, 2, 3)


def test_single_node_chain_gets_two_sections():
    g = build_singularity("A", 1)
    assert g.nodes == (1,)
    assert g.edges == ()
    assert g.leaf_variables == (("x1", 1), ("x1p", 1))


def test_fork_builder():
    g = build_singularity("D", 6)
    assert g.nodes == (0, 1, 2, 3, 4, 5)
    assert g.edges == ((0, 1), (0, 2), (0, 3), (3, 4), (4, 5))
    assert g.leaf_variables == (("x1", 1), ("x2", 2), ("x5", 5))
    assert g.center() == 0
    assert g.branches() == ((1,), (2,), (3, 4, 5))
    assert g.basic_leaves() == (1, 2, 5)
    assert g.curve_order() == (1, 2, 0, 3, 4, 5)


def test_exceptional_builder():
    g = build_singularity("E", 7)
    assert g.edges == ((0, 1), (0, 2), (0, 4), (2, 3), (4, 5), (5, 6))
    assert g.leaf_variables == (("x1", 1), ("x3", 3), ("x6", 6))
    assert g.branches() == ((1,), (2, 3), (4, 5, 6))
    assert g.curve_order() == (1, 2, 3, 0, 4, 5, 6)


def test_custom_tree_matches_fork_and_star():
    # D_n and E_n are the stars with these arms, in all but their labels
    stars = [("D", n, (1, 1, n - 3)) for n in range(4, 17)]
    stars += [("E", n, (1, 2, n - 4)) for n in (6, 7, 8)]
    for family, n, arms in stars:
        graph, star = build_singularity(family, n), build_custom_tree(arms)
        assert graph == star
        assert graph.curve_order() == star.curve_order()
        assert graph.leaf_variables == star.leaf_variables
        assert graph.label == "%s%d" % (family, n)
        assert star.label == "custom:" + ",".join(map(str, arms))


def test_equal_graphs_hash_alike():
    # the reduction passes key their per-graph constants on the graph
    pairs = [
        (build_custom_tree([1, 1, 1]), build_singularity("D", 4)),
        (parse_case("a3"), build_singularity("A", 3)),
    ]
    for a, b in pairs:
        assert a is not b and a == b and hash(a) == hash(b)
    distinct = {build_singularity("D", 4), build_singularity("D", 5), build_custom_tree([1, 1, 1])}
    assert len(distinct) == 2


def test_custom_tree_numbering():
    g = build_custom_tree([2, 2, 3])
    assert g.nodes == tuple(range(8))
    assert g.branches() == ((1, 2), (3, 4), (5, 6, 7))
    assert g.leaf_variables == (("x2", 2), ("x4", 4), ("x7", 7))
    assert g.curve_order() == (1, 2, 3, 4, 0, 5, 6, 7)
    assert g.label == "custom:2,2,3"


def test_builder_rank_errors():
    with pytest.raises(ParameterError):
        build_singularity("A", 0)
    with pytest.raises(ParameterError):
        build_singularity("D", 3)
    with pytest.raises(ParameterError):
        build_singularity("E", 5)
    with pytest.raises(ParameterError):
        build_singularity("F", 4)
    with pytest.raises(ParameterError):
        build_custom_tree([1, 1])
    with pytest.raises(ParameterError):
        build_custom_tree([0, 1, 1])


@pytest.mark.parametrize("bad", [3.7, True, "5", [1.9, 2, 2]], ids=repr)
def test_the_builders_take_only_ints_that_are_not_bools(bad):
    # int() would read 3.7 as 3, True as 1 and "5" as 5
    with pytest.raises(ParameterError, match="^rank needs an integer"):
        build_singularity("D", bad)
    lengths = bad if isinstance(bad, list) else [2, bad, 2]
    with pytest.raises(ParameterError, match="^branch length needs an integer"):
        build_custom_tree(lengths)


def test_build_from_string():
    assert parse_case("D5") == build_singularity("D", 5)
    assert parse_case("a3") == build_singularity("A", 3)
    assert parse_case("custom:2,2,3") == build_custom_tree([2, 2, 3])
    # parse_case is the one reader of a case label
    for bad in ("", "Q4", "D", "Dx", "None", "custom:1,q", "7"):
        with pytest.raises(ParameterError):
            parse_case(bad)


@pytest.mark.parametrize("node", [None, 4, "y0"])
def test_curve_variable_rejects_an_unknown_node(node):
    # a node that is not an int must not break the message's formatting
    with pytest.raises(ParameterError, match="unknown node"):
        build_singularity("A", 3).curve_variable(node)


@pytest.mark.parametrize("node", [None, 9, "y0"])
def test_an_unknown_node_raises_a_parameter_error(node):
    # a node that is not an int must not break the message's formatting;
    # a leaf of None asks for the whole presentation, not a quotient
    d4 = build_singularity("D", 4)
    calls = [
        lambda: d4.branch_of(node),
        lambda: d4.unit_degree(node),
        lambda: base_case_audit(d4, node, 1),
        lambda: audit_add_curve(d4, node),
    ]
    if node is not None:
        calls.append(lambda: presentation_from_graph(d4, leaf=node))
    for call in calls:
        with pytest.raises(ParameterError, match=re.escape(repr(node))):
            call()


def _builder_cases():
    cases = ["A%d" % n for n in range(1, 13)] + ["D%d" % n for n in range(4, 17)]
    cases += ["E6", "E7", "E8"]
    for arms in (3, 4, 5):
        cases += ["custom:" + ",".join(map(str, ls)) for ls in product(range(1, 5), repeat=arms)]
    return cases


def test_builders_make_chains_and_stars_of_minus_two_curves():
    # the builders are the only producers of graphs, and the graph
    # constructor checks nothing: this is what it may take for granted
    for case in _builder_cases():
        g = parse_case(case)
        nodes = g.nodes
        assert type(nodes) is tuple and list(nodes) == sorted(set(nodes)), case
        # a tree: |E| = |V| - 1, and every node is reached by a path of edges
        assert len(g.edges) == len(nodes) - 1, case
        assert list(g.edges) == sorted(set(g.edges)) and all(a < b for a, b in g.edges), case
        edges = set(g.edges)
        for v in nodes:
            p = g.path(nodes[0], v)
            assert p[0] == nodes[0] and p[-1] == v, case
            assert all((min(e), max(e)) in edges for e in zip(p, p[1:])), case
        assert all(g.columns[v][g.index_of[v]] == -2 for v in nodes), case
        assert set(g.to_dict()["self_intersection"].values()) == {-2}, case
        variables = g.grading().variables
        assert len(set(variables)) == len(variables), case
        sections = sorted(at for _, at in g.leaf_variables)
        assert sections == ([1, 1] if case == "A1" else sorted(g.basic_leaves())), case
        assert sorted(g.curve_order()) == list(nodes), case
        if g.center() is None:
            # a chain: nodes 1..n in path order, ending at its two leaves
            assert nodes == tuple(range(1, len(nodes) + 1)) and g.path(1, nodes[-1]) == nodes, case
            assert g.basic_leaves() == tuple(sorted({1, nodes[-1]})), case
        else:
            # a star: the branches partition the other nodes into paths
            # out of node 0
            assert g.center() == 0 and g.valence(0) == len(g.branches()) >= 3, case
            assert sorted(sum(g.branches(), ())) == list(nodes[1:]), case
            for branch in g.branches():
                assert g.path(0, branch[-1]) == (0,) + branch, case
                assert g.valence(branch[-1]) == 1, case
            assert g.basic_leaves() == tuple(br[-1] for br in g.branches()), case


def test_definiteness():
    for label in ("A1", "A5", "D4", "D9", "E6", "E7", "E8"):
        assert parse_case(label).is_negative_definite(), label
    assert not build_custom_tree([2, 2, 3]).is_negative_definite()
    assert not build_custom_tree([2, 3, 6]).is_negative_definite()
    assert build_custom_tree([1, 2, 3]).is_negative_definite()  # same tree as E7


# the chains A1-A14 and every star with three arms of length <= 9, four
# of length <= 4 or five of length <= 3
SYLVESTER_GRAPHS = [build_singularity("A", n) for n in range(1, 15)] + [
    build_custom_tree(arms)
    for count, longest in ((3, 9), (4, 4), (5, 3))
    for arms in combinations_with_replacement(range(1, longest + 1), count)
]


@pytest.mark.parametrize("graph", SYLVESTER_GRAPHS, ids=lambda g: g.label)
def test_is_negative_definite_matches_sylvester(graph):
    # the arm rule against every leading principal minor
    matrix = graph.intersection_matrix()
    assert graph.is_negative_definite() == oracle.is_negative_definite(matrix)


def test_paths():
    g = build_singularity("D", 5)
    assert g.path(1, 4) == (1, 0, 3, 4)
    assert g.path(4, 1) == (4, 3, 0, 1)
    assert g.path(2, 2) == (2,)


@pytest.mark.parametrize("case", ["D12", "E8", "custom:2,3,7"])
def test_paths_are_simple_walks(case):
    g = parse_case(case)
    for a in g.nodes:
        for b in g.nodes:
            p = g.path(a, b)
            assert type(p) is tuple
            assert p[0] == a and p[-1] == b
            assert all((u, v) in g.edges or (v, u) in g.edges for u, v in zip(p, p[1:]))
            assert len(set(p)) == len(p)
            assert g.path(a, b) == p
            assert g.path(b, a) == p[::-1]


def test_intersection_matrix_and_grading():
    g = build_singularity("D", 4)
    assert g.intersection_matrix() == [
        [-2, 1, 1, 1],
        [1, -2, 0, 0],
        [1, 0, -2, 0],
        [1, 0, 0, -2],
    ]
    gr = g.grading()
    assert gr.variables == ("x1", "x2", "x3", "y0", "y1", "y2", "y3")
    assert gr.matrix == (
        (0, 0, 0, -2, 1, 1, 1),
        (1, 0, 0, 1, -2, 0, 0),
        (0, 1, 0, 1, 0, -2, 0),
        (0, 0, 1, 1, 0, 0, -2),
    )


def test_graph_is_immutable():
    g = build_singularity("D", 4)
    with pytest.raises(TypeError):
        g.columns[0] = (0, 0, 0, 0)
    with pytest.raises(TypeError):
        g.index_of[0] = 1
    with pytest.raises(AttributeError):
        g.label = "D5"
    assert g.columns[0] == (-2, 1, 1, 1)
    assert g.label == "D4"


def test_intersection_matrix_is_a_fresh_copy():
    g = build_singularity("D", 4)
    first = g.intersection_matrix()
    expected = [row[:] for row in first]
    first[0][0] = 5
    first[1].append(3)
    first.pop()
    assert g.intersection_matrix() == expected
    assert g.intersection_matrix() is not g.intersection_matrix()
    assert [list(g.columns[v]) for v in g.nodes] == expected


def _fresh_grading(data):
    # the extended degree matrix from the graph's serialized data alone
    nodes = data["nodes"]
    si = {int(k): v for k, v in data["self_intersection"].items()}
    adjacent = {frozenset(e) for e in data["edges"]}

    def entry(a, b):
        if a == b:
            return si[a]
        return 1 if frozenset((a, b)) in adjacent else 0

    names = [name for name, _ in data["leaf_variables"]]
    names += ["y%d" % v for v in nodes]
    rows = [
        [1 if at == r else 0 for _, at in data["leaf_variables"]] + [entry(r, c) for c in nodes]
        for r in nodes
    ]
    return Grading(names, rows)


@pytest.mark.parametrize(
    "case",
    ADE_CASES
    + ["custom:2,2,2", "custom:2,2,3", "custom:1,2,5", "custom:2,3,7", "custom:3,3,3", "custom:1,1,1,1"],
)
def test_grading_matches_a_fresh_build(case):
    g = parse_case(case)
    assert g.grading() == _fresh_grading(json.loads(json.dumps(g.to_dict())))
    assert g.grading() is g.grading()


@pytest.mark.parametrize(
    "label,expected",
    [
        ("A1", ("A", 1)),
        ("D12", ("D", 12)),
        ("E8", ("E", 8)),
        ("custom:2,2,3", (None, None)),
        # a label that names no case is rejected, not read as (None, None)
        (None, pytest.raises(ParameterError)),
        ("D", pytest.raises(ParameterError)),
        ("Dx", pytest.raises(ParameterError)),
    ],
)
def test_family_and_rank_read_from_the_label(label, expected):
    # parse_case is the one reader of a case label, and its builder passes
    # on the family
    if not isinstance(expected, tuple):
        with expected:
            parse_case(label)
        return
    g = parse_case(label)
    assert (g.family, g.rank) == expected
    assert g.label == label


def test_unit_degree():
    g = build_singularity("E", 6)
    assert g.unit_degree(0) == (1, 0, 0, 0, 0, 0)
    assert g.unit_degree(5) == (0, 0, 0, 0, 0, 1)


@pytest.mark.parametrize("case", ["A1", "A4", "D7", "E8", "custom:2,2,3"])
def test_graph_command_output_rebuilds_the_graph(case):
    # the graph command's JSON round-trips: its label rebuilds the graph,
    # and its nodes, edges and self-intersections rebuild the grading
    g = parse_case(case)
    data = json.loads(json.dumps(g.to_dict()))
    back = parse_case(data["label"])
    assert back == g
    assert (back.family, back.rank) == (g.family, g.rank)
    assert data["nodes"] == list(g.nodes)
    assert [tuple(e) for e in data["edges"]] == list(g.edges)
    assert [tuple(s) for s in data["leaf_variables"]] == list(g.leaf_variables)
    assert _fresh_grading(data) == g.grading()
