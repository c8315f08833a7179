"""Resolution dual graphs of (-2)-curves: the chains A_n and the stars,
built by build_singularity and build_custom_tree and by nothing else.
D_n is the star with arms (1, 1, n - 3), E_n the one with arms
(1, 2, n - 4), and a custom star has three or more arms of any lengths.
Every star comes from one builder, so D_n equals the custom star with
the same arms in everything but its label.

Degree vectors everywhere in the package are tuples indexed by the sorted
node list of the graph at hand. The extended degree matrix turns a graph
into a Grading: one column per attached section variable (unit vector at
its node) followed by one column per curve variable (the matching column
of the intersection matrix).
"""

from types import MappingProxyType

from . import linalg
from .errors import ParameterError
from .rings import Grading


class ResolutionGraph:
    """An immutable chain or star of (-2)-curves, as the builders make
    it: a chain has nodes 1..n in path order; a star has node 0 at its
    center and its arms (center-outward node tuples) numbered outward,
    one after another. The constructor validates nothing, since the
    builders check their input. It works out the topology (node
    positions, center, branches, curve order, basic leaves) and the
    linear data (the intersection matrix columns and the Grading) once.
    Equal graphs hash alike, so a graph can key a cache. ``family`` and
    ``rank`` are the ('A', 'D' or 'E', n) of build_singularity, and None
    on a custom star."""

    __slots__ = (
        "nodes",
        "edges",
        "leaf_variables",
        "label",
        "family",
        "rank",
        "index_of",
        "columns",
        "_grading",
        "_adj",
        "_center",
        "_branches",
        "_curve_order",
        "_basic_leaves",
        "_hash",
    )

    def __init__(self, nodes, edges, leaf_variables, label, family, arms):
        self.nodes = nodes
        self.edges = edges
        self.leaf_variables = leaf_variables
        self.label = label
        # n of A_n, D_n and E_n is the number of curves
        self.family, self.rank = family, len(nodes) if family else None
        adj = {n: [] for n in nodes}
        for a, b in edges:
            adj[a].append(b)
            adj[b].append(a)
        self._adj = {n: tuple(sorted(v)) for n, v in adj.items()}
        # read-only node -> position in ``nodes``
        self.index_of = idx = MappingProxyType({n: i for i, n in enumerate(nodes)})
        cols = {v: [0] * len(nodes) for v in nodes}
        for v in nodes:
            cols[v][idx[v]] = -2
        for a, b in edges:
            cols[a][idx[b]] = cols[b][idx[a]] = 1
        # read-only node -> intersection matrix column; the matrix is
        # symmetric, so the columns in node order are also its rows
        self.columns = MappingProxyType({v: tuple(c) for v, c in cols.items()})
        # one row per node: the section variables' unit columns, then
        # the curve variables' intersection matrix columns
        variables = [name for name, _ in leaf_variables] + [self.curve_variable(v) for v in nodes]
        rows = [
            [int(at == r) for _, at in leaf_variables] + [cols[c][i] for c in nodes]
            for i, r in enumerate(nodes)
        ]
        self._grading = Grading(variables, rows)
        if arms is None:
            self._center = self._branches = None
            self._curve_order = nodes
            self._basic_leaves = (nodes[0], nodes[-1]) if len(nodes) > 1 else nodes
        else:
            # the arms come in first-node order, and a stable sort keeps
            # that order among arms of one length
            by_length = sorted(arms, key=len)
            self._center, self._branches = 0, arms
            self._curve_order = sum(by_length[:-1], ()) + (0,) + by_length[-1]
            self._basic_leaves = tuple(arm[-1] for arm in arms)
        # a hash of exactly the data __eq__ compares
        self._hash = hash((nodes, edges, leaf_variables))

    def __setattr__(self, name, value):
        # ``_hash`` is the last attribute __init__ sets
        if hasattr(self, "_hash"):
            raise AttributeError("ResolutionGraph is immutable")
        object.__setattr__(self, name, value)

    # --- basic queries -------------------------------------------------

    def neighbors(self, node):
        return self._adj[node]

    def valence(self, node):
        return len(self._adj[node])

    def center(self):
        """Node 0 of a star, None on a chain."""
        return self._center

    def branches(self):
        """The arms of a star, center-outward, sorted by their first
        node id."""
        if self._center is None:
            raise ParameterError("graph has no unique center")
        return self._branches

    def basic_leaves(self):
        """The nodes a basic degree may sit on: the branch ends of a star,
        the ends of a chain."""
        return self._basic_leaves

    def branch_of(self, node):
        for ch in self.branches():
            if node in ch:
                return ch
        raise ParameterError("node %r is not on a branch" % (node,))

    def path(self, a, b):
        """The unique path from a to b, inclusive."""
        if a not in self._adj or b not in self._adj:
            raise ParameterError("path endpoints must be nodes")
        parent = {a: None}
        frontier = [a]
        while frontier:
            n = frontier.pop()
            if n == b:
                break
            for m in self._adj[n]:
                if m not in parent:
                    parent[m] = n
                    frontier.append(m)
        out = [b]
        while parent[out[-1]] is not None:
            out.append(parent[out[-1]])
        out.reverse()
        return tuple(out)

    def curve_order(self):
        """Curve processing order: branches ascending by (length, first
        node id), center-outward, with the center inserted right before
        the last branch. Chains use plain node order."""
        return self._curve_order

    # --- linear data ---------------------------------------------------

    def intersection_matrix(self):
        """A fresh copy of the intersection matrix, as a list of rows."""
        return [list(self.columns[v]) for v in self.nodes]

    def is_negative_definite(self):
        return linalg.is_negative_definite(self.intersection_matrix())

    def unit_degree(self, node):
        if node not in self.index_of:
            raise ParameterError("unknown node %r" % (node,))
        return tuple(1 if v == node else 0 for v in self.nodes)

    def curve_variable(self, node):
        if node not in self._adj:
            raise ParameterError("unknown node %r" % (node,))
        return "y%d" % node

    def grading(self):
        """Extended degree matrix as a Grading: section variables first
        (unit column at the attachment node), then curve variables (the
        intersection matrix columns)."""
        return self._grading

    # --- serialization -------------------------------------------------

    def to_dict(self):
        return {
            "label": self.label,
            "nodes": list(self.nodes),
            "edges": [list(e) for e in self.edges],
            "self_intersection": {str(n): -2 for n in self.nodes},
            "leaf_variables": [[name, node] for name, node in self.leaf_variables],
        }

    def __eq__(self, other):
        return (
            isinstance(other, ResolutionGraph)
            and self.nodes == other.nodes
            and self.edges == other.edges
            and self.leaf_variables == other.leaf_variables
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "ResolutionGraph(label=%r, nodes=%d)" % (self.label, len(self.nodes))


def build_singularity(family, n):
    """Standard rational double point graphs: chains ('A', n >= 1) and
    the stars with arms (1, 1, n - 3) ('D', n >= 4) and (1, 2, n - 4)
    ('E', n in 6..8)."""
    family = str(family).upper()
    n = int(n)
    if family == "A":
        if n < 1:
            raise ParameterError("chain graphs need n >= 1")
        nodes = tuple(range(1, n + 1))
        edges = tuple((i, i + 1) for i in range(1, n))
        lv = (("x1", 1), ("x1p", 1)) if n == 1 else (("x1", 1), ("x%d" % n, n))
        return ResolutionGraph(nodes, edges, lv, "A%d" % n, "A", None)
    if family == "D":
        if n < 4:
            raise ParameterError("fork graphs need n >= 4")
        return _star((1, 1, n - 3), "D%d" % n, "D")
    if family == "E":
        if n not in (6, 7, 8):
            raise ParameterError("exceptional graphs need n in {6, 7, 8}")
        return _star((1, 2, n - 4), "E%d" % n, "E")
    raise ParameterError("unknown family %r; use A, D or E" % family)


def build_custom_tree(lengths):
    """Star tree with the given branch lengths: at least three branches,
    each of length at least 1."""
    lens = [int(x) for x in lengths]
    if len(lens) < 3:
        raise ParameterError("a star tree needs at least 3 branches")
    if any(x < 1 for x in lens):
        raise ParameterError("branch lengths must be >= 1")
    return _star(lens, "custom:" + ",".join(str(x) for x in lens), None)


def _star(lengths, label, family):
    """Star tree: node 0 at the center, the arms numbered outward one
    after another, section variable ``x<end>`` at each arm end."""
    arms = []
    nxt = 1
    for length in lengths:
        arms.append(tuple(range(nxt, nxt + length)))
        nxt += length
    edges = tuple(sorted(edge for arm in arms for edge in zip((0,) + arm, arm)))
    lv = tuple(("x%d" % arm[-1], arm[-1]) for arm in arms)
    return ResolutionGraph(tuple(range(nxt)), edges, lv, label, family, tuple(arms))
