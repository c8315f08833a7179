"""Workload inputs and the case diagrams the checks rely on.

Nothing here imports coxforge. A case is rebuilt from its Dynkin
diagram with the node numbering, section-variable names and variable
order that the CLI documents (the `--degree` vector and the JSON
reports are indexed by them), and the seeded generators below produce
the `sweep` cells and the `query` command stream.
"""

import random

VERIFY_CASES = ("A4", "D4", "D5", "A6")
SWEEP_CASES = ("A8", "D8", "D12", "E7", "E8")
SWEEP_BOX = (-6, 6)
SWEEP_CELLS_PER_VALUE = 32
ADE_CASES = (
    tuple("A%d" % n for n in range(1, 9))
    + tuple("D%d" % n for n in range(4, 13))
    + ("E6", "E7", "E8")
)
STAR_POOL = tuple(
    "custom:%d,%d,%d" % (a, b, c)
    for a in range(1, 5)
    for b in range(a, 5)
    for c in range(b, 5)
)
QUERY_PER_FAMILY = (("A", 3), ("D", 3), ("E", 2))
STARS_PER_COMMAND = 2
REDUCE_CASES = ("A3", "D4")
REDUCE_VALUES = (-1, 1, 2)
# the termination sweep hits its step cap at once; exit 1 or 3 is due
CAPPED_VERIFY = ("verify", "--case", "D4", "--caps", "step=2")


class Diagram:
    """A tree of (-2)-curves, or of the curves of a custom star, with
    its section variables. Nodes are sorted; degree vectors follow that
    order."""

    def __init__(self, label, nodes, edges, sections):
        self.label = label
        self.nodes = tuple(sorted(nodes))
        self.index = {v: i for i, v in enumerate(self.nodes)}
        self.adj = {v: [] for v in self.nodes}
        for a, b in edges:
            self.adj[a].append(b)
            self.adj[b].append(a)
        self.sections = tuple(sections)
        n = len(self.nodes)
        self.matrix = [[0] * n for _ in range(n)]
        for v in self.nodes:
            self.matrix[self.index[v]][self.index[v]] = -2
            for u in self.adj[v]:
                self.matrix[self.index[v]][self.index[u]] = 1
        self.variables = tuple(name for name, _ in self.sections) + tuple(
            "y%d" % v for v in self.nodes
        )
        self.grading = [
            tuple(1 if at == v else 0 for _, at in self.sections) + tuple(self.matrix[r])
            for r, v in enumerate(self.nodes)
        ]
        hubs = [v for v in self.nodes if len(self.adj[v]) >= 3]
        self.center = hubs[0] if len(hubs) == 1 else None
        self.branches = self._branches()
        if self.center is None:
            self.ends = tuple(v for v in self.nodes if len(self.adj[v]) <= 1)
        else:
            self.ends = tuple(branch[-1] for branch in self.branches)

    def _branches(self):
        if self.center is None:
            return ()
        out = []
        for start in sorted(self.adj[self.center]):
            chain = [start]
            prev = self.center
            while True:
                nxt = [u for u in self.adj[chain[-1]] if u != prev]
                if not nxt:
                    break
                prev = chain[-1]
                chain.append(nxt[0])
            out.append(tuple(chain))
        return tuple(out)

    def column(self, node):
        i = self.index[node]
        return tuple(row[i] for row in self.matrix)

    def degree_of(self, exps):
        """Multidegree of a monomial given as a tuple over variables."""
        return tuple(sum(a * e for a, e in zip(row, exps)) for row in self.grading)

    def unit(self, node):
        return tuple(1 if v == node else 0 for v in self.nodes)


def diagram(case):
    """The diagram of `A<n>`, `D<n>`, `E<n>` or `custom:l1,l2,...`."""
    if case.startswith("custom:"):
        lengths = [int(x) for x in case.split(":", 1)[1].split(",")]
        nodes, edges, sections, nxt = [0], [], [], 1
        for length in lengths:
            prev = 0
            for _ in range(length):
                nodes.append(nxt)
                edges.append((prev, nxt))
                prev, nxt = nxt, nxt + 1
            sections.append(("x%d" % prev, prev))
        return Diagram(case, nodes, edges, sections)
    family, n = case[0], int(case[1:])
    if family == "A":
        nodes = range(1, n + 1)
        edges = [(i, i + 1) for i in range(1, n)]
        sections = [("x1", 1), ("x1p", 1)] if n == 1 else [("x1", 1), ("x%d" % n, n)]
    elif family == "D":
        nodes = range(n)
        edges = [(0, 1), (0, 2), (0, 3)] + [(i, i + 1) for i in range(3, n - 1)]
        sections = [("x1", 1), ("x2", 2), ("x%d" % (n - 1), n - 1)]
    elif family == "E":
        nodes = range(n)
        edges = [(0, 1), (0, 2), (2, 3), (0, 4)] + [(i, i + 1) for i in range(4, n - 1)]
        sections = [("x1", 1), ("x3", 3), ("x%d" % (n - 1), n - 1)]
    else:
        raise ValueError("unknown case %r" % case)
    return Diagram(case, nodes, edges, sections)


def sweep_cells(seed):
    """Per sweep case, a seeded Latin-hypercube sample of the box:
    every coordinate takes each box value equally often, so a new seed
    changes the cells but not the spread of their coordinates."""
    rng = random.Random("sweep:%d" % seed)
    lo, hi = SWEEP_BOX
    values = list(range(lo, hi + 1)) * SWEEP_CELLS_PER_VALUE
    out = []
    for case in SWEEP_CASES:
        columns = []
        for _ in diagram(case).nodes:
            col = list(values)
            rng.shuffle(col)
            columns.append(col)
        out.append((case, [tuple(c) for c in zip(*columns)]))
    return out


def query_stream(seed):
    """One round of short commands, as argument lists. Every round has
    the same make-up: `graph`, `cox` and `invariants` each on seeded
    ADE cases (QUERY_PER_FAMILY from each family), `graph` and `cox` on
    seeded custom stars, `reduce` on every degree v*e_node of the
    reduce cases (the same in every round and for every seed, so that
    the audited steps per round do not depend on the seed), and the
    capped `verify`. Half the
    commands, chosen by the seed, use `--format text`; the order is
    shuffled."""
    rng = random.Random("query:%d" % seed)
    commands = []
    for command in ("graph", "cox", "invariants"):
        for family, count in QUERY_PER_FAMILY:
            for case in rng.sample([c for c in ADE_CASES if c[0] == family], count):
                commands.append([command, "--case", case])
        if command != "invariants":
            for case in rng.sample(STAR_POOL, STARS_PER_COMMAND):
                commands.append([command, "--case", case])
    for case in REDUCE_CASES:
        nodes = diagram(case).nodes
        for node in nodes:
            for value in REDUCE_VALUES:
                degree = ",".join(str(value if v == node else 0) for v in nodes)
                commands.append(["reduce", "--case", case, "--degree=" + degree])
    formats = ["json", "text"] * (len(commands) // 2) + ["json"] * (len(commands) % 2)
    rng.shuffle(formats)
    stream = [cmd + ["--format", fmt] for cmd, fmt in zip(commands, formats)]
    stream.append(list(CAPPED_VERIFY))
    rng.shuffle(stream)
    return stream


def workload_cases(workload, seed):
    """Generate the workload's inputs and return the cases whose graphs
    it builds."""
    if workload == "verify":
        return list(VERIFY_CASES)
    if workload == "sweep":
        return [case for case, _ in sweep_cells(seed)]
    return sorted({argv[2] for argv in query_stream(seed)})
