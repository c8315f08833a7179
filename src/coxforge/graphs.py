"""Resolution dual graphs: trees of rational curves with self-intersection
data, plus the builders for chains (A_n) and three-arm stars: D_n has
arms (1, 1, n - 3), E_n arms (1, 2, n - 4), and a custom star three or
more arms of any lengths. Every star comes from one builder, so D_n
equals the custom star with the same arms in everything but its label.

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
    """An immutable tree of curves. Everything about it is fixed at
    construction, so its topology (node positions, center, branches,
    curve order, basic leaves) and its linear data (the intersection
    matrix columns and the Grading) are worked out there. Equal graphs
    hash alike, so a graph can key a cache. ``family`` and ``rank`` read
    an ``A<n>``, ``D<n>`` or ``E<n>`` label as (family, n); any other
    label gives None."""

    __slots__ = (
        "nodes",
        "edges",
        "self_intersection",
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

    def __init__(self, nodes, edges, self_intersection=None, leaf_variables=(), label=None):
        nodes = [int(x) for x in nodes]
        ns = tuple(sorted(set(nodes)))
        if not ns:
            raise ParameterError("graph needs at least one node")
        if len(ns) != len(nodes):
            raise ParameterError("duplicate node ids")
        es = []
        seen = set()
        for a, b in edges:
            a, b = int(a), int(b)
            if a == b:
                raise ParameterError("loop edge at node %d" % a)
            if a not in ns or b not in ns:
                raise ParameterError("edge (%d, %d) uses an unknown node" % (a, b))
            key = (min(a, b), max(a, b))
            if key in seen:
                raise ParameterError("duplicate edge (%d, %d)" % key)
            seen.add(key)
            es.append(key)
        es = tuple(sorted(es))
        adj = {n: [] for n in ns}
        for a, b in es:
            adj[a].append(b)
            adj[b].append(a)
        adj = {n: tuple(sorted(v)) for n, v in adj.items()}
        # must be a tree
        if len(es) != len(ns) - 1:
            raise ParameterError("graph is not a tree")
        reached = {ns[0]}
        frontier = [ns[0]]
        while frontier:
            n = frontier.pop()
            for m in adj[n]:
                if m not in reached:
                    reached.add(m)
                    frontier.append(m)
        if len(reached) != len(ns):
            raise ParameterError("graph is not connected")
        si = {n: -2 for n in ns}
        if self_intersection:
            for n, v in self_intersection.items():
                n = int(n)
                if n not in si:
                    raise ParameterError("self-intersection given for unknown node %d" % n)
                si[n] = int(v)
        lv = []
        names = set()
        for name, node in leaf_variables:
            name = str(name)
            node = int(node)
            if node not in si:
                raise ParameterError("variable %s attached to unknown node %d" % (name, node))
            if name in names:
                raise ParameterError("duplicate variable name %s" % name)
            names.add(name)
            lv.append((name, node))
        self.nodes = ns
        self.edges = es
        self.self_intersection = MappingProxyType(si)
        self.leaf_variables = tuple(lv)
        self.label = label
        known = isinstance(label, str) and label[:1] in ("A", "D", "E") and label[1:].isdecimal()
        self.family, self.rank = (label[0], int(label[1:])) if known else (None, None)
        self._adj = adj
        # read-only node -> position in ``nodes``
        self.index_of = idx = MappingProxyType({n: i for i, n in enumerate(ns)})
        cols = {v: [0] * len(ns) for v in ns}
        for v in ns:
            cols[v][idx[v]] = si[v]
        for a, b in es:
            cols[a][idx[b]] = cols[b][idx[a]] = 1
        # read-only node -> intersection matrix column; the matrix is
        # symmetric, so the columns in node order are also its rows
        self.columns = MappingProxyType({v: tuple(c) for v, c in cols.items()})
        # one row per node: the section variables' unit columns, then
        # the curve variables' intersection matrix columns
        variables = [name for name, _ in lv] + [self.curve_variable(v) for v in ns]
        rows = [[int(at == r) for _, at in lv] + [cols[c][i] for c in ns] for i, r in enumerate(ns)]
        self._grading = Grading(variables, rows)
        self._center, self._branches, self._curve_order = _star_topology(ns, adj)
        if self._center is None:
            self._basic_leaves = self.leaves()
        else:
            self._basic_leaves = self.branch_ends()
        # a hash of exactly the data __eq__ compares
        self._hash = hash((ns, es, tuple(sorted(si.items())), self.leaf_variables))

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

    def leaves(self):
        return tuple(n for n in self.nodes if self.valence(n) <= 1)

    def center(self):
        """The unique node of valence >= 3, or None."""
        return self._center

    def branches(self):
        """Chains hanging off the center, center-outward, sorted by their
        first node id."""
        if self._center is None:
            raise ParameterError("graph has no unique center")
        return self._branches

    def branch_ends(self):
        return tuple(ch[-1] for ch in self.branches())

    def basic_leaves(self):
        """The nodes a basic degree may sit on: the branch ends of a star,
        the leaves of a chain."""
        return self._basic_leaves

    def branch_of(self, node):
        for ch in self.branches():
            if node in ch:
                return ch
        raise ParameterError("node %d is not on a branch" % node)

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
            "self_intersection": {str(n): v for n, v in self.self_intersection.items()},
            "leaf_variables": [[name, node] for name, node in self.leaf_variables],
        }

    def __eq__(self, other):
        return (
            isinstance(other, ResolutionGraph)
            and self.nodes == other.nodes
            and self.edges == other.edges
            and self.self_intersection == other.self_intersection
            and self.leaf_variables == other.leaf_variables
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "ResolutionGraph(label=%r, nodes=%d)" % (self.label, len(self.nodes))


def _star_topology(nodes, adj):
    """(center, branches, curve order) of a tree: the unique node of
    valence >= 3 or None, the chains off it (None without a center) and
    the curve order."""
    hubs = [n for n in nodes if len(adj[n]) >= 3]
    if len(hubs) != 1:
        return None, None, nodes
    center = hubs[0]
    branches = []
    for start in adj[center]:
        chain = [start]
        prev, cur = center, start
        while True:
            # the only hub is the center, so a branch never forks
            nxt = [m for m in adj[cur] if m != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            chain.append(cur)
        branches.append(tuple(chain))
    branches.sort(key=lambda ch: ch[0])
    by_length = sorted(branches, key=lambda ch: (len(ch), ch[0]))
    order = []
    for i, ch in enumerate(by_length):
        if i == len(by_length) - 1:
            order.append(center)
        order.extend(ch)
    return center, tuple(branches), tuple(order)


def build_singularity(family, n):
    """Standard rational double point graphs: chains ('A', n >= 1) and
    the stars with arms (1, 1, n - 3) ('D', n >= 4) and (1, 2, n - 4)
    ('E', n in 6..8)."""
    family = str(family).upper()
    n = int(n)
    if family == "A":
        if n < 1:
            raise ParameterError("chain graphs need n >= 1")
        nodes = range(1, n + 1)
        edges = [(i, i + 1) for i in range(1, n)]
        if n == 1:
            lv = [("x1", 1), ("x1p", 1)]
        else:
            lv = [("x1", 1), ("x%d" % n, n)]
        return ResolutionGraph(nodes, edges, None, lv, "A%d" % n)
    if family == "D":
        if n < 4:
            raise ParameterError("fork graphs need n >= 4")
        return _star((1, 1, n - 3), "D%d" % n)
    if family == "E":
        if n not in (6, 7, 8):
            raise ParameterError("exceptional graphs need n in {6, 7, 8}")
        return _star((1, 2, n - 4), "E%d" % n)
    raise ParameterError("unknown family %r; use A, D or E" % family)


def build_custom_tree(lengths):
    """Star tree with the given branch lengths: at least three branches,
    each of length at least 1."""
    lens = [int(x) for x in lengths]
    if len(lens) < 3:
        raise ParameterError("a star tree needs at least 3 branches")
    if any(x < 1 for x in lens):
        raise ParameterError("branch lengths must be >= 1")
    return _star(lens, "custom:" + ",".join(str(x) for x in lens))


def _star(lengths, label):
    """Star tree: node 0 at the center, the arms numbered outward one
    after another, section variable ``x<end>`` at each arm end."""
    edges = []
    lv = []
    nxt = 1
    for length in lengths:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        lv.append(("x%d" % prev, prev))
    return ResolutionGraph(range(nxt), edges, None, lv, label)
