"""Divisor reduction procedures with step-by-step cokernel audits.

Multidegrees are integer tuples indexed like ``graph.nodes``. Two
procedures move a degree into normal position:

* ``reduce_to_nef`` clears negative coordinates by subtracting the
  intersection-matrix column at the order-lowest negative spot.
* ``reduce_nef_to_basic`` runs an add phase (add a single curve where a
  coordinate is at least 2, else add the chain between the order-least
  eligible pair of 1's) until at most a single coordinate remains and
  equals 1, then shifts that 1 step by step to a branch-end leaf.

``reduce`` runs the nef pass and then the basic pass as one trace.
This module holds what the ``reduce`` command runs: the passes, the
step checkers and the audits. What only verify and report run, the
grid sweep, the closed-form nef pass it reads, the base case and the
whole-degree audits, lives in ``sections``, which reads the basic pass
with its ``known`` hook (``_basic_pass``), the step table and
``_slice_basis`` from here.

Both passes read a step table, made once per graph on its first pass:
the (node, index) spots in curve order and one entry per node, read
with one lookup per step: its 1-tuple, its column's support (its
nonzero entries, at most the node and its neighbours), S-move and
restart tail with that tail's first position; plus, on first use, each
chain between two nodes with the positions of its nodes, the support of
its summed column, its S-move and its restart tail, the spots from the
earliest one in that support. Each pass keeps its working degree
as a list, applies a step's support to it in place, and builds each
step in place with a tuple copy of it, storing the step's slots
directly, so every degree in a trace is a tuple. After firing a node
the nef pass rescans only from the earliest of it and its neighbours:
the column moves no other spot, and every earlier one was nonnegative.
The basic pass reads its is-basic test and next step kind off one scan
in curve order; after an AddCurve it resumes that scan at the curve's
restart tail and keeps the 1's found before it, after an AddChain it
resumes at the chain's restart tail, before which every spot holds a
0, and after a shift it scans the whole degree again. An AddChain's
order-least pair always starts at the first 1, so it tries that 1 with
each later one. It keeps the doubled S-sum as an integer, moved by the
S-move of each step's node or chain, and a trace writes each halved
value as a string only when it is read.

Every step carries a combinatorial expected cokernel dimension (a
section count over the step's chain). Each step kind has its own
checker, which raises when the step violates the hypotheses the count
relies on. A checker takes the values it tests, not the step: the
degree before or after the step or both, the positions of the step's
nodes in it, and the node ids for its messages. The passes call the
checker of their step kind on every step they emit, with the degree
they hold and the positions their scan or the step table gives;
``expected_cokernel_dim`` reads the same values off a step, through
``graph.index_of``, and calls the same checker.
``cokernel_dimension`` recomputes that dimension exactly, as a count:
the monomials of the target degree that neither the chain monomial nor
a relation term coprime to it divides, listed slice by slice, each
bounded by its own pivot conditions, so no cap enters the count.
``audit`` checks every step of a terminated trace that way, so a full
audit certifies each step of a reduction independently.
``sections.base_case_audit`` counts its piece through the same
``_slice_basis``, one y0 slice at a time, each in full.
"""

from functools import lru_cache
from operator import ge, mul

from . import DEFAULT_STEP_CAP, diophantine
from .errors import HypothesisViolationError, ParameterError


class ReductionStep:
    """One move of a reduction procedure.

    ``nodes`` identifies the step (the curve for SubtractCurve and
    AddCurve, the endpoint pair for AddChain and ShiftToLeaf); ``curves``
    lists every node whose intersection-matrix column was applied. The
    columns are added for AddCurve and AddChain, subtracted otherwise.
    """

    __slots__ = ("kind", "nodes", "curves", "degree_before", "degree_after",
                 "expected_cokernel_dim", "actual_dim")

    def __init__(self, kind, nodes, curves, degree_before, degree_after):
        self.kind = kind
        self.nodes = tuple(nodes)
        self.curves = tuple(curves)
        self.degree_before = tuple(degree_before)
        self.degree_after = tuple(degree_after)
        self.expected_cokernel_dim = None
        self.actual_dim = None

    def adds_curves(self):
        return self.kind in ("AddCurve", "AddChain")

    def to_dict(self):
        return {
            "kind": self.kind,
            "nodes": list(self.nodes),
            "curves": list(self.curves),
            "degree_after": list(self.degree_after),
            "expected_dim": self.expected_cokernel_dim,
            "actual_dim": self.actual_dim,
        }

    def __repr__(self):
        return "ReductionStep(%s, nodes=%r, %r -> %r)" % (
            self.kind, self.nodes, self.degree_before, self.degree_after)


class ReductionTrace:
    """A run of one reduction procedure.

    ``twice_measures`` lists the doubled S-values of the states covered
    by the termination measure (the add phase); the shift phase sits
    outside that argument and is excluded. ``measures`` gives them
    halved, as strings: "t/2" for odd t, else t // 2 written out.
    Strings do not order as the values do, so compare ``twice_measures``.
    """

    __slots__ = ("initial", "terminal", "steps", "terminated", "twice_measures")

    def __init__(self, initial, terminal, steps, terminated, twice_measures=()):
        self.initial = tuple(initial)
        self.terminal = tuple(terminal)
        self.steps = tuple(steps)
        self.terminated = terminated
        self.twice_measures = tuple(twice_measures)

    @property
    def measures(self):
        return tuple("%d/2" % t if t % 2 else str(t // 2) for t in self.twice_measures)

    def to_dict(self):
        ok = self.terminated and all(
            s.actual_dim is None or s.actual_dim == s.expected_cokernel_dim
            for s in self.steps
        )
        return {
            "initial": list(self.initial),
            "steps": [s.to_dict() for s in self.steps],
            "terminal": list(self.terminal),
            "measures": list(self.measures),
            "terminated": self.terminated,
            "ok": ok,
        }


def _sum_columns(cols, nodes):
    return tuple(map(sum, zip(*map(cols.__getitem__, nodes))))


def _check_degree(degree, graph):
    d = tuple(degree)
    if len(d) != len(graph.nodes):
        raise ParameterError(
            "degree has %d coordinates, graph has %d nodes"
            % (len(d), len(graph.nodes))
        )
    return d


def _d_pair(graph):
    """The nodes of the first two arms of length 1 on a D-shaped star,
    one with three arms of which at least two have length 1 (D_n with
    its arms in any order), else None."""
    if graph.center() is None or len(graph.branches()) != 3:
        return None
    short = [arm[0] for arm in graph.branches() if len(arm) == 1]
    return tuple(short[:2]) if len(short) >= 2 else None


def _twice_weights(graph):
    """The S-measure weights doubled: 1 on the two nodes of ``_d_pair``
    on a D-shaped star, on nodes 1 and 2 on every other graph, and 2
    elsewhere."""
    light = _d_pair(graph) or (1, 2)
    return tuple(1 if v in light else 2 for v in graph.nodes)


def _support(vec):
    """The nonzero entries of ``vec`` as ((index, entry), ...)."""
    return tuple((i, e) for i, e in enumerate(vec) if e)


class _StepTable:
    """The step data of one graph, read by both passes: the (node, index)
    spots in curve order, each node's curve-order position, the doubled
    S-weights and one entry per node, so that a step reads its node with
    one lookup: (its 1-tuple, a step's ``nodes`` and ``curves`` both;
    its column's support, the nonzero entries, at most the node and its
    neighbours; its S-move, the change of the doubled S-sum when its
    column is added, the same from every degree; its restart tail, the
    spots from the earliest of it and its neighbours, which hold that
    support; that tail's first position). ``chain`` fills in an ordered
    pair's data on first use, with the restart tail of the chain's
    summed column. ``_step_table`` keeps one per graph; the graph's hash
    and equality cover all it reads."""

    def __init__(self, graph):
        spots = tuple((v, graph.index_of[v]) for v in graph.curve_order())
        self.at = at = {v: k for k, (v, _) in enumerate(spots)}
        self.spots, self.weights = spots, _twice_weights(graph)
        self.entries = {}
        for v, column in graph.columns.items():
            support = _support(column)
            first = min(map(at.get, (v,) + graph.neighbors(v)))
            self.entries[v] = ((v,), support, self._move(support), spots[first:], first)
        self.graph, self.chains = graph, {}

    def _move(self, support):
        weights = self.weights
        return sum(weights[i] * e for i, e in support)

    def chain(self, u, w):
        """((u, w), the path from u to w, the index positions of its
        nodes, the support of its summed column, its S-move, its restart
        tail: the spots from the earliest one in that support, which
        holds u)."""
        entry = self.chains.get((u, w))
        if entry is None:
            graph = self.graph
            path = graph.path(u, w)
            positions = tuple(map(graph.index_of.__getitem__, path))
            support = _support(_sum_columns(graph.columns, path))
            # the support holds u: its entry there is -2, plus 1 when the
            # path goes on, since a path in a tree meets one neighbour of u
            start = min(self.at[graph.nodes[i]] for i, _ in support)
            entry = self.chains[u, w] = (
                (u, w), path, positions, support, self._move(support), self.spots[start:])
        return entry


_step_table = lru_cache(maxsize=64)(_StepTable)


def is_basic(degree, graph):
    """Zero, or a positive multiple of a unit at a branch-end leaf."""
    nonzero = [(i, c) for i, c in enumerate(degree) if c != 0]
    if not nonzero:
        return True
    if len(nonzero) > 1:
        return False
    i, c = nonzero[0]
    return c > 0 and graph.nodes[i] in graph.basic_leaves()


def reduce_to_nef(degree, graph, step_cap=DEFAULT_STEP_CAP):
    """Subtract the column at the order-lowest negative coordinate until
    the degree is componentwise nonnegative."""
    d = _check_degree(degree, graph)
    table = _step_table(graph)
    entries, scan = table.entries, table.spots
    new, check = object.__new__, _expect_subtract_curve
    # the working degree, moved in place; d is its tuple before the step
    cur = list(d)
    steps = []
    while True:
        for neg, i in scan:
            if cur[i] < 0:
                break
        else:
            return ReductionTrace(degree, d, steps, True)
        if len(steps) >= step_cap:
            return ReductionTrace(degree, d, steps, False)
        # only neg and its neighbours move: every spot before its tail
        # stays nonnegative
        one, support, _, scan, _ = entries[neg]
        for k, e in support:
            cur[k] -= e
        # the step is built in place, its degrees already tuples; neg
        # sits at position i of d
        step = new(ReductionStep)
        step.kind, step.nodes, step.curves = "SubtractCurve", one, one
        step.degree_before, step.degree_after, step.actual_dim = d, tuple(cur), None
        step.expected_cokernel_dim = check(d, i, neg)
        steps.append(step)
        d = step.degree_after


def _shift_target(graph, node):
    # a chain's curve order is its path, and a star's ends on its last arm
    center = graph.center()
    if center is None or node == center:
        return graph.curve_order()[-1]
    return graph.branch_of(node)[-1]


def reduce_nef_to_basic(degree, graph, step_cap=DEFAULT_STEP_CAP):
    """Add phase (single curve at a coordinate >= 2, else the chain
    between the order-least eligible pair of 1's), then shift the last
    remaining 1 to a branch-end leaf."""
    return _basic_pass(degree, graph, step_cap, ())


def _basic_pass(degree, graph, step_cap, known):
    """``reduce_nef_to_basic``, stopped at the top of its add-phase loop
    on the first degree in ``known``, which maps such degrees of passes
    already run to the steps left from them; every later step depends on
    that degree alone. A stopped trace is terminated and ends there.
    Shift-phase degrees are never looked up. With nothing known, ``()``
    spares each loop a hash."""
    d = _check_degree(degree, graph)
    if any(c < 0 for c in d):
        raise ParameterError("reduce_nef_to_basic needs a nef degree")
    table = _step_table(graph)
    spots, entries, at, chain = table.spots, table.entries, table.at, table.chain
    new = object.__new__
    leaves = graph.basic_leaves()
    width = len(d)
    # the working degree, moved in place; d is its tuple before the step
    cur = list(d)
    # the doubled S-sum follows every step, measures only the add phase
    twice = sum(map(mul, table.weights, d))
    measures = [twice]
    steps = []
    # the scan resumes on ``scan`` with the 1's before it in ``ones``
    scan, ones = spots, []
    while True:
        if d in known:
            break
        # the first coordinate >= 2, else every 1 in curve order
        big = None
        for v, i in scan:
            c = cur[i]
            if c >= 2:
                big = v
                break
            if c == 1:
                ones.append(v)
        # is_basic(d, graph), read off the scan; counting zeros keeps a
        # negative coordinate from passing for a zero
        if big is not None:
            if not ones and big in leaves and d.count(0) == width - 1:
                break
        elif len(ones) <= 1 and d.count(0) == width - len(ones):
            if not ones or ones[0] in leaves:
                break
        if len(steps) >= step_cap:
            return ReductionTrace(degree, d, steps, False, measures)
        # each step is built in place, its degrees already tuples
        if big is not None:
            one, support, move, scan, start = entries[big]
            for k, e in support:
                cur[k] += e
            step = new(ReductionStep)
            step.kind, step.nodes, step.curves = "AddCurve", one, one
            step.degree_before, step.actual_dim = d, None
            # the scan stopped on big at position i
            step.expected_cokernel_dim = _expect_add_curve(d, i, big)
            step.degree_after = d = tuple(cur)
            steps.append(step)
            twice += move
            measures.append(twice)
            # only big and its neighbours moved: the 1's found before
            # its tail stand, and ``ones`` is in curve order
            while ones and at[ones[-1]] >= start:
                ones.pop()
            continue
        if len(ones) >= 2:
            # the order-least pair of 1's with only zeros strictly between
            # starts at the first 1: on the path from it to any other 1,
            # the first 1 met has only zeros before it, as the degree is
            # nef and no coordinate is >= 2. Were there none, the last
            # pair tried would fail its checker.
            u = ones[0]
            for w in ones[1:]:
                entry = chain(u, w)
                if not any(map(d.__getitem__, entry[2][1:-1])):
                    break
            ends, path, positions, support, move, scan = entry
            for k, e in support:
                cur[k] += e
            step = new(ReductionStep)
            step.kind, step.nodes, step.curves = "AddChain", ends, path
            step.degree_before, step.actual_dim = d, None
            step.degree_after = after = tuple(cur)
            step.expected_cokernel_dim = _expect_add_chain(d, after, positions, u, w, graph)
            d = after
            steps.append(step)
            twice += move
            measures.append(twice)
            # every spot before the chain's tail held a 0, since u, the
            # first 1, is in the summed column's support, and none moved
            ones = []
            continue
        # a single coordinate equal to 1 remains: shift it to a leaf
        p = ones[0]
        j = _shift_target(graph, p)
        while p != j:
            if len(steps) >= step_cap:
                return ReductionTrace(degree, d, steps, False, measures)
            q = chain(p, j)[1][1]
            path, positions, support = chain(q, j)[1:4]
            for k, e in support:
                cur[k] -= e
            step = new(ReductionStep)
            step.kind, step.nodes, step.curves = "ShiftToLeaf", (p, j), path
            step.degree_before, step.actual_dim = d, None
            step.degree_after = d = tuple(cur)
            step.expected_cokernel_dim = _expect_shift_to_leaf(d, positions, q, j)
            steps.append(step)
            p = q
        scan, ones = spots, []
    return ReductionTrace(degree, d, steps, True, measures)


def reduce(graph, degree, step_cap=DEFAULT_STEP_CAP):
    """The nef pass and, when it terminates, the basic pass on its
    terminal, as one trace. The measures are those of the basic pass.

    step_cap bounds each pass on its own, not the trace: the nef pass
    and the basic pass get step_cap steps each, so a terminated trace
    can hold up to 2 * step_cap steps."""
    nef = reduce_to_nef(degree, graph, step_cap)
    if not nef.terminated:
        return nef
    basic = reduce_nef_to_basic(nef.terminal, graph, step_cap)
    return ReductionTrace(
        degree, basic.terminal, nef.steps + basic.steps, basic.terminated, basic.twice_measures)


def _expect_subtract_curve(before, i, node):
    """SubtractCurve at ``node``, which sits at position ``i`` of the
    degree ``before`` the step."""
    c = before[i]
    if c >= 0:
        raise HypothesisViolationError(
            "SubtractCurve needs a negative coordinate at node %d, got %d" % (node, c))
    return 0


def _expect_add_curve(before, i, node):
    """AddCurve at ``node``, which sits at position ``i`` of the degree
    ``before`` the step."""
    if min(before) < 0:
        raise HypothesisViolationError("AddCurve needs a nef degree")
    c = before[i]
    if c < 2:
        raise HypothesisViolationError(
            "AddCurve needs coordinate >= 2 at node %d, got %d" % (node, c))
    return c - 1


def _expect_add_chain(before, after, positions, i, j, graph):
    """AddChain from node i to node j, the path whose nodes sit at
    ``positions`` of the degrees ``before`` and ``after`` the step;
    ``graph`` gives j's valence."""
    if min(before) < 0:
        raise HypothesisViolationError("AddChain needs a nef degree")
    if before[positions[0]] != 1:
        raise HypothesisViolationError("AddChain needs coordinate 1 at node %d" % i)
    cj = before[positions[-1]]
    if cj < 1:
        raise HypothesisViolationError("AddChain needs a positive coordinate at node %d" % j)
    if cj != 1 and graph.valence(j) > 1:
        raise HypothesisViolationError("AddChain into interior node %d needs coordinate 1" % j)
    if any(map(before.__getitem__, positions[1:-1])):
        raise HypothesisViolationError(
            "AddChain needs zeros strictly between nodes %d and %d" % (i, j))
    # the chain's after-degrees must have the shape (0, ..., 0, cj - 1);
    # the lists are built for the message only
    if after[positions[-1]] != cj - 1 or any(map(after.__getitem__, positions[:-1])):
        restricted = list(map(after.__getitem__, positions))
        shape = [0] * (len(positions) - 1) + [cj - 1]
        raise HypothesisViolationError(
            "AddChain restricted degrees %r do not match the shape %r"
            % (restricted, shape)
        )
    # a chain of rational curves of degrees (0, ..., 0, c) has 1 + c
    # sections, and here c = before[j] - 1
    return cj


def _expect_shift_to_leaf(after, positions, q, j):
    """ShiftToLeaf whose subtracted columns are the path from node q to
    node j, which sits at ``positions`` of the degree ``after`` the
    step."""
    if min(after) < 0:
        raise HypothesisViolationError("ShiftToLeaf must land on a nef degree")
    cq, cj = after[positions[0]], after[positions[-1]]
    if q == j:
        if cj < 2:
            raise HypothesisViolationError(
                "ShiftToLeaf onto node %d needs coordinate >= 2 after" % j)
        return cj - 1
    if cq != 1:
        raise HypothesisViolationError("ShiftToLeaf needs coordinate 1 at node %d after" % q)
    if cj < 1:
        raise HypothesisViolationError(
            "ShiftToLeaf needs a positive coordinate at node %d after" % j)
    if any(map(after.__getitem__, positions[1:-1])):
        raise HypothesisViolationError(
            "ShiftToLeaf needs zeros strictly between nodes %d and %d" % (q, j))
    return cq + cj - 1


def expected_cokernel_dim(step, graph):
    """Combinatorial cokernel dimension of one step, from the section
    count over the step's chain. Raises when the step violates the
    hypotheses the count relies on. The passes call the same checker of
    each step kind with the degrees and positions they hold; this reads
    them off the step, its nodes and curves through ``graph.index_of``."""
    kind, idx = step.kind, graph.index_of
    if kind == "SubtractCurve" or kind == "AddCurve":
        (i,) = step.nodes
        check = _expect_subtract_curve if kind == "SubtractCurve" else _expect_add_curve
        return check(step.degree_before, idx[i], i)
    if kind == "AddChain":
        i, j = step.nodes
        positions = tuple(map(idx.__getitem__, step.curves))
        return _expect_add_chain(step.degree_before, step.degree_after, positions, i, j, graph)
    if kind == "ShiftToLeaf":
        _, j = step.nodes
        positions = tuple(map(idx.__getitem__, step.curves))
        return _expect_shift_to_leaf(step.degree_after, positions, step.curves[0], j)
    raise ParameterError("unknown step kind %r" % kind)


def cokernel_dimension(pres, step):
    """Dimension of (target graded piece) / (image of multiplication by
    the step's chain monomial m), both taken modulo the relation f.

    That is the piece of S/(f, m) at the target. A path meets at most
    two branches of a star, so some term T of f shares no variable with
    the squarefree m; with T as lead, {f, m} is a Groebner basis by
    Buchberger's first criterion (Cox-Little-O'Shea, ch. 2 section 9).
    The dimension is then the number of monomials of the target degree
    that neither T nor m divides: the union of the zero slices at the
    variables of m, less the multiples of T, each listed whole by
    ``_slice_basis``. A chain has no f, so only m applies. The step's
    degrees differ by the columns of m's variables."""
    matrix = pres.grading.matrix
    support = [pres.grading.index("y%d" % v) for v in step.curves]
    if step.adds_curves():
        source, target = step.degree_before, step.degree_after
    else:
        source, target = step.degree_after, step.degree_before
    shifted = tuple(c + sum(row[j] for j in support) for c, row in zip(source, matrix))
    if shifted != tuple(target):
        raise ParameterError("step degrees are inconsistent with its curves")
    terms = pres.relation or ()
    lead = next((t for t in terms if not any(t[j] for j in support)), None)
    if terms and lead is None:
        raise ParameterError("every relation term shares a variable with the step")
    not_m = set()
    for j in support:
        not_m.update(_slice_basis(matrix, target, j, 0, lead))
    return len(not_m)


def audit_step(pres, step, graph):
    """Fill in the actual cokernel dimension of a step and compare with
    the expected one."""
    expected = step.expected_cokernel_dim
    if expected is None:
        expected = expected_cokernel_dim(step, graph)
        step.expected_cokernel_dim = expected
    dim = cokernel_dimension(pres, step)
    step.actual_dim = dim
    return {
        "kind": step.kind,
        "nodes": list(step.nodes),
        "expected": expected,
        "actual": dim,
        "ok": dim == expected,
    }


def audit(trace, pres, graph):
    """Audit every step of a terminated trace and return the step
    reports. A runaway trace is reported as such, not audited step by
    step: it gets no reports and its steps keep actual_dim None."""
    if not trace.terminated:
        return []
    return [audit_step(pres, step, graph) for step in trace.steps]


def _slice_basis(matrix, target, j, e, lead):
    """The exponent tuples of degree ``target`` whose exponent at column
    j is e and that ``lead`` (a tuple, or None) does not divide: the
    points of ``diophantine.fiber_points`` with no cap on the matrix
    without column j, at the target less e times column j, with e put
    back at j. Their pivot conditions bound that zero slice; raises
    ValueError when they do not, even where the slice is finite."""
    dropped = tuple(row[:j] + row[j + 1:] for row in matrix)
    shifted = tuple(t - e * row[j] for t, row in zip(target, matrix))
    points = (s[:j] + (e,) + s[j:] for s in diophantine.fiber_points(dropped, shifted))
    return [s for s in points if lead is None or not all(map(ge, s, lead))]
