import json

import pytest

from coxforge.cli import cmd_graph, parse_case
from coxforge.errors import ParameterError
from coxforge.graphs import ResolutionGraph, build_custom_tree, build_singularity
from coxforge.rings import Grading

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
    assert g.branch_ends() == (1, 2, 5)
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


def test_build_from_string():
    assert parse_case("D5") == build_singularity("D", 5)
    assert parse_case("a3") == build_singularity("A", 3)
    assert parse_case("custom:2,2,3") == build_custom_tree([2, 2, 3])
    for bad in ("", "Q4", "Dx", "custom:1,q", "7"):
        with pytest.raises(ParameterError):
            parse_case(bad)


@pytest.mark.parametrize("node", [None, 4, "y0"])
def test_curve_variable_rejects_an_unknown_node(node):
    # a node that is not an int must not break the message's formatting
    with pytest.raises(ParameterError, match="unknown node"):
        build_singularity("A", 3).curve_variable(node)


def test_nodes_may_be_read_only_once():
    g = ResolutionGraph((i for i in (1, 2, 3)), [(1, 2), (2, 3)])
    assert g.nodes == (1, 2, 3) and g.edges == ((1, 2), (2, 3))
    with pytest.raises(ParameterError, match="duplicate node ids"):
        ResolutionGraph((i for i in (1, 2, 2)), [(1, 2)])


def test_graph_validation():
    with pytest.raises(ParameterError):
        ResolutionGraph([1, 2, 3], [(1, 2), (2, 3), (1, 3)])  # cycle
    with pytest.raises(ParameterError):
        ResolutionGraph([1, 2], [(1, 1)])  # loop
    with pytest.raises(ParameterError):
        ResolutionGraph([1, 2], [(1, 3)])  # unknown node
    with pytest.raises(ParameterError):
        ResolutionGraph([1, 2], [])  # disconnected
    with pytest.raises(ParameterError):
        ResolutionGraph([1], [], leaf_variables=[("x1", 2)])
    with pytest.raises(ParameterError):
        ResolutionGraph([1], [], leaf_variables=[("x1", 1), ("x1", 1)])


def test_definiteness():
    for label in ("A1", "A5", "D4", "D9", "E6", "E7", "E8"):
        assert parse_case(label).is_negative_definite(), label
    assert not build_custom_tree([2, 2, 3]).is_negative_definite()
    assert not build_custom_tree([2, 3, 6]).is_negative_definite()
    assert build_custom_tree([1, 2, 3]).is_negative_definite()  # same tree as E7


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
            assert all(v in g.neighbors(u) for u, v in zip(p, p[1:]))
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
        g.self_intersection[0] = -3
    with pytest.raises(TypeError):
        g.columns[0] = (0, 0, 0, 0)
    with pytest.raises(AttributeError):
        g.label = "D5"
    assert g.self_intersection[0] == -2
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


def _fresh_grading(graph):
    # the extended degree matrix from the graph's serialized data alone
    data = json.loads(json.dumps(graph.to_dict()))
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
    ADE_CASES + ["custom:2,2,2", "custom:1,2,5", "custom:2,3,7", "custom:3,3,3", "custom:1,1,1,1"],
)
def test_grading_matches_a_fresh_build(case):
    g = parse_case(case)
    assert g.grading() == _fresh_grading(g)
    assert g.grading() is g.grading()


@pytest.mark.parametrize(
    "label,expected",
    [
        ("A1", ("A", 1)),
        ("D12", ("D", 12)),
        ("E8", ("E", 8)),
        ("custom:2,2,3", (None, None)),
        (None, (None, None)),
        ("D", (None, None)),
        ("Dx", (None, None)),
    ],
)
def test_family_and_rank_read_from_the_label(label, expected):
    g = ResolutionGraph([0, 1], [(0, 1)], label=label)
    assert (g.family, g.rank) == expected


def test_unit_degree():
    g = build_singularity("E", 6)
    assert g.unit_degree(0) == (1, 0, 0, 0, 0, 0)
    assert g.unit_degree(5) == (0, 0, 0, 0, 0, 1)


@pytest.mark.parametrize("case", ["A1", "A4", "D7", "E8", "custom:2,2,3"])
def test_graph_command_output_rebuilds_the_graph(case):
    g = parse_case(case)
    data = json.loads(json.dumps(cmd_graph(g)))
    back = ResolutionGraph(
        data["nodes"],
        data["edges"],
        data["self_intersection"],
        data["leaf_variables"],
        data["label"],
    )
    assert back == g
    assert back.grading() == g.grading()
    assert back.label == g.label
    assert (back.family, back.rank) == (g.family, g.rank)
