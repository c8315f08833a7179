"""Divisor reduction procedures with step-by-step cokernel audits.

Multidegrees are integer tuples indexed like ``graph.nodes``. Three
procedures move a degree into normal position:

* ``reduce_to_nef`` clears negative coordinates by subtracting the
  intersection-matrix column at the order-lowest negative spot.
* ``reduce_nef_to_basic`` runs an add phase (add a single curve where a
  coordinate is at least 2, else add the chain between the order-least
  eligible pair of 1's) until at most a single coordinate remains and
  equals 1, then shifts that 1 step by step to a branch-end leaf.
* the base case handles terminal degrees k*e_leaf through a quotient
  presentation and a seed/period monomial family.

``reduce`` runs the nef pass and then the basic pass as one trace.

Both passes scan the degree once per step, over (node, index) pairs in
curve order, and apply the intersection-matrix columns that the graph
built once; the basic pass reads its is-basic test and its next step
kind off that one scan. It keeps the doubled S-sum as an integer: adding
the column of a node moves it by a constant of that node, so each
measure is one addition and a cached ``Fraction``.

Every step carries a combinatorial expected cokernel dimension (a
section count over the step's chain). Each step kind has its own
checker, which raises when the step violates the hypotheses the count
relies on; the passes call the checker of their step kind on every step
they emit, and ``expected_cokernel_dim`` dispatches to the same
checkers. ``cokernel_dimension`` recomputes that dimension on truncated
graded pieces as a count: multiplication by the chain monomial is
injective modulo the one relation, so the dimension is the number of
lead-free monomials of the target minus that of the source. ``audit``
checks every step of a terminated trace that way, so a full audit
certifies each step of a reduction independently.
"""

from fractions import Fraction
from functools import lru_cache
from operator import add, mul, sub

from .cox import branch_term, presentation_from_graph, relation_from_graph, section_name_at
from .errors import (
    HypothesisViolationError,
    ParameterError,
    ResourceCapError,
)
from .rings import (
    Monomial,
    Polynomial,
    RingPresentation,
    graded_piece_basis,
    normal_form,
)

DEFAULT_STEP_CAP = 10000
DEFAULT_COKERNEL_CAP = 24
MAX_COKERNEL_CAP = 40
BASE_CASE_CAP = 8
BASE_CASE_CAP_LIMIT = 64


class ReductionStep:
    """One move of a reduction procedure.

    ``nodes`` identifies the step (the curve for SubtractCurve and
    AddCurve, the endpoint pair for AddChain and ShiftToLeaf); ``curves``
    lists every node whose intersection-matrix column was applied. The
    columns are added for AddCurve and AddChain, subtracted otherwise.
    """

    __slots__ = (
        "kind",
        "nodes",
        "curves",
        "degree_before",
        "degree_after",
        "expected_cokernel_dim",
        "actual_dim",
    )

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
            "stabilized": True if self.actual_dim is not None else None,
        }

    def __repr__(self):
        return "ReductionStep(%s, nodes=%r, %r -> %r)" % (
            self.kind,
            self.nodes,
            self.degree_before,
            self.degree_after,
        )


class ReductionTrace:
    """A run of one reduction procedure.

    ``measures`` lists the S-values of the states covered by the
    termination measure (the add phase); the shift phase sits outside
    that argument and is excluded.
    """

    __slots__ = ("initial", "terminal", "steps", "terminated", "measures")

    def __init__(self, initial, terminal, steps, terminated, measures=()):
        self.initial = tuple(initial)
        self.terminal = tuple(terminal)
        self.steps = tuple(steps)
        self.terminated = terminated
        self.measures = tuple(measures)

    def __len__(self):
        return len(self.steps)

    def validate(self, graph):
        """Recompute the degree bookkeeping of every step."""
        d = self.initial
        for step in self.steps:
            if step.degree_before != d:
                raise ParameterError("trace steps do not compose")
            delta = _sum_columns(graph.columns, step.curves)
            if step.adds_curves():
                expect = _vec_add(d, delta)
            else:
                expect = _vec_sub(d, delta)
            if step.degree_after != expect:
                raise ParameterError(
                    "step delta mismatch at %r" % (step,)
                )
            d = step.degree_after
        if d != self.terminal:
            raise ParameterError("terminal does not match the last step")
        return True

    def to_dict(self):
        ok = self.terminated and all(
            s.actual_dim is None or s.actual_dim == s.expected_cokernel_dim
            for s in self.steps
        )
        return {
            "initial": list(self.initial),
            "steps": [s.to_dict() for s in self.steps],
            "terminal": list(self.terminal),
            "measures": [str(m) for m in self.measures],
            "terminated": self.terminated,
            "ok": ok,
        }


class BaseCaseFamily:
    """Seed and period monomials spanning the basic graded piece of
    degree k*e_leaf (``degree``) in the quotient ``presentation``."""

    __slots__ = ("seed", "period", "leaf", "k", "presentation", "degree")

    def __init__(self, seed, period, leaf, k, presentation, degree):
        self.seed = seed
        self.period = period
        self.leaf = leaf
        self.k = k
        self.presentation = presentation
        self.degree = degree


def _vec_add(a, b):
    return tuple(map(add, a, b))


def _vec_sub(a, b):
    return tuple(map(sub, a, b))


def _sum_columns(cols, nodes):
    total = (0,) * len(cols)
    for v in nodes:
        total = _vec_add(total, cols[v])
    return total


def _check_degree(degree, graph):
    d = tuple(degree)
    if len(d) != len(graph.nodes):
        raise ParameterError(
            "degree has %d coordinates, graph has %d nodes"
            % (len(d), len(graph.nodes))
        )
    return d


def _twice_weights(graph):
    """The S-measure weights doubled: 1 on nodes 1 and 2, 2 elsewhere."""
    return tuple(1 if v in (1, 2) else 2 for v in graph.nodes)


@lru_cache(maxsize=4096)
def _half(twice):
    # one Fraction per doubled S-value: a sweep meets a few hundred
    # values over and over
    return Fraction(twice, 2)


def s_measure(degree, graph):
    """Termination measure: half weight on the coordinates of nodes 1
    and 2, full weight elsewhere."""
    return _half(sum(map(mul, _twice_weights(graph), degree)))


def is_basic(degree, graph):
    """Zero, or a positive multiple of a unit at a branch-end leaf."""
    nonzero = [(i, c) for i, c in enumerate(degree) if c != 0]
    if not nonzero:
        return True
    if len(nonzero) > 1:
        return False
    i, c = nonzero[0]
    return c > 0 and graph.nodes[i] in graph.basic_leaves()


def h0_tree(chain_degrees):
    """Section count of a degree vector on a chain of rational curves:
    1 + sum, or None when a negative degree puts the chain outside the
    supported shapes."""
    degs = list(chain_degrees)
    if not degs:
        raise ParameterError("empty chain")
    if any(c < 0 for c in degs):
        return None
    return 1 + sum(degs)


def reduce_to_nef(degree, graph, step_cap=DEFAULT_STEP_CAP):
    """Subtract the column at the order-lowest negative coordinate until
    the degree is componentwise nonnegative."""
    d = _check_degree(degree, graph)
    # (node, index) pairs in curve order
    spots = tuple((v, graph.index_of[v]) for v in graph.curve_order())
    cols = graph.columns
    steps = []
    while True:
        for neg, i in spots:
            if d[i] < 0:
                break
        else:
            return ReductionTrace(degree, d, steps, True)
        if len(steps) >= step_cap:
            return ReductionTrace(degree, d, steps, False)
        after = tuple(map(sub, d, cols[neg]))
        step = ReductionStep("SubtractCurve", (neg,), (neg,), d, after)
        step.expected_cokernel_dim = _expect_subtract_curve(step, graph)
        steps.append(step)
        d = after


def _shift_target(graph, node):
    center = graph.center()
    if center is None:
        leaves = graph.leaves()
        return leaves[-1]
    if node == center:
        branch = sorted(graph.branches(), key=lambda ch: (len(ch), ch[0]))[-1]
        return branch[-1]
    return graph.branch_of(node)[-1]


def _least_eligible_pair(d, ones, graph, idx):
    """The order-least pair of 1's with only zeros strictly between
    them. ``ones`` is in curve order, so pairs are met in increasing
    order and the first eligible one is the least."""
    for a, u in enumerate(ones):
        for w in ones[a + 1:]:
            if all(d[idx[v]] == 0 for v in graph.path(u, w)[1:-1]):
                return u, w


def reduce_nef_to_basic(degree, graph, step_cap=DEFAULT_STEP_CAP):
    """Add phase (single curve at a coordinate >= 2, else the chain
    between the order-least eligible pair of 1's), then shift the last
    remaining 1 to a branch-end leaf."""
    d = _check_degree(degree, graph)
    if any(c < 0 for c in d):
        raise ParameterError("reduce_nef_to_basic needs a nef degree")
    idx = graph.index_of
    spots = tuple((v, idx[v]) for v in graph.curve_order())
    cols = graph.columns
    leaves = graph.basic_leaves()
    width = len(d)
    weights = _twice_weights(graph)
    # adding the column of v moves the doubled S-sum by the same amount
    # from every degree; the sum follows every step, measures only the
    # add phase
    moves = {v: sum(map(mul, weights, col)) for v, col in cols.items()}
    twice = sum(map(mul, weights, d))
    measures = [_half(twice)]
    steps = []
    while True:
        # one scan: the first coordinate >= 2, else every 1 in curve order
        big = None
        ones = []
        for v, i in spots:
            c = d[i]
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
        if big is not None:
            after = tuple(map(add, d, cols[big]))
            step = ReductionStep("AddCurve", (big,), (big,), d, after)
            step.expected_cokernel_dim = _expect_add_curve(step, graph)
            steps.append(step)
            d = after
            twice += moves[big]
            measures.append(_half(twice))
            continue
        if len(ones) >= 2:
            i, j = _least_eligible_pair(d, ones, graph, idx)
            chain = graph.path(i, j)
            after = _vec_add(d, _sum_columns(cols, chain))
            step = ReductionStep("AddChain", (i, j), chain, d, after)
            step.expected_cokernel_dim = _expect_add_chain(step, graph)
            steps.append(step)
            d = after
            twice += sum(moves[v] for v in chain)
            measures.append(_half(twice))
            continue
        # a single coordinate equal to 1 remains: shift it to a leaf
        p = ones[0]
        j = _shift_target(graph, p)
        while p != j:
            if len(steps) >= step_cap:
                return ReductionTrace(degree, d, steps, False, measures)
            q = graph.path(p, j)[1]
            chain = graph.path(q, j)
            after = _vec_sub(d, _sum_columns(cols, chain))
            step = ReductionStep("ShiftToLeaf", (p, j), chain, d, after)
            step.expected_cokernel_dim = _expect_shift_to_leaf(step, graph)
            steps.append(step)
            d = after
            twice -= sum(moves[v] for v in chain)
            p = q
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
        degree,
        basic.terminal,
        nef.steps + basic.steps,
        basic.terminated,
        basic.measures,
    )


def _expect_subtract_curve(step, graph):
    idx = graph.index_of
    before = step.degree_before
    (i,) = step.nodes
    if before[idx[i]] >= 0:
        raise HypothesisViolationError(
            "SubtractCurve needs a negative coordinate at node %d, got %d"
            % (i, before[idx[i]])
        )
    return 0


def _expect_add_curve(step, graph):
    idx = graph.index_of
    before = step.degree_before
    (i,) = step.nodes
    if min(before) < 0:
        raise HypothesisViolationError("AddCurve needs a nef degree")
    if before[idx[i]] < 2:
        raise HypothesisViolationError(
            "AddCurve needs coordinate >= 2 at node %d, got %d"
            % (i, before[idx[i]])
        )
    return before[idx[i]] - 1


def _expect_add_chain(step, graph):
    idx = graph.index_of
    before = step.degree_before
    after = step.degree_after
    i, j = step.nodes
    chain = step.curves
    if min(before) < 0:
        raise HypothesisViolationError("AddChain needs a nef degree")
    if before[idx[i]] != 1:
        raise HypothesisViolationError(
            "AddChain needs coordinate 1 at node %d" % i
        )
    if before[idx[j]] < 1:
        raise HypothesisViolationError(
            "AddChain needs a positive coordinate at node %d" % j
        )
    if graph.valence(j) > 1 and before[idx[j]] != 1:
        raise HypothesisViolationError(
            "AddChain into interior node %d needs coordinate 1" % j
        )
    if any(before[idx[v]] != 0 for v in chain[1:-1]):
        raise HypothesisViolationError(
            "AddChain needs zeros strictly between nodes %d and %d" % (i, j)
        )
    restricted = [after[idx[v]] for v in chain]
    shape = [0] * (len(chain) - 1) + [before[idx[j]] - 1]
    if restricted != shape:
        raise HypothesisViolationError(
            "AddChain restricted degrees %r do not match the shape %r"
            % (restricted, shape)
        )
    return h0_tree(restricted)


def _expect_shift_to_leaf(step, graph):
    idx = graph.index_of
    after = step.degree_after
    _, j = step.nodes
    chain = step.curves
    q = chain[0]
    if min(after) < 0:
        raise HypothesisViolationError("ShiftToLeaf must land on a nef degree")
    if q == j:
        if after[idx[j]] < 2:
            raise HypothesisViolationError(
                "ShiftToLeaf onto node %d needs coordinate >= 2 after" % j
            )
        return after[idx[j]] - 1
    if after[idx[q]] != 1:
        raise HypothesisViolationError(
            "ShiftToLeaf needs coordinate 1 at node %d after" % q
        )
    if after[idx[j]] < 1:
        raise HypothesisViolationError(
            "ShiftToLeaf needs a positive coordinate at node %d after" % j
        )
    if any(after[idx[v]] != 0 for v in chain[1:-1]):
        raise HypothesisViolationError(
            "ShiftToLeaf needs zeros strictly between nodes %d and %d"
            % (q, j)
        )
    return after[idx[q]] + after[idx[j]] - 1


# the checker of each step kind; the passes call theirs directly
_EXPECTED_DIMS = {
    "SubtractCurve": _expect_subtract_curve,
    "AddCurve": _expect_add_curve,
    "AddChain": _expect_add_chain,
    "ShiftToLeaf": _expect_shift_to_leaf,
}


def expected_cokernel_dim(step, graph):
    """Combinatorial cokernel dimension of one step, from the section
    count over the step's chain. Raises when the step violates the
    hypotheses the count relies on."""
    try:
        check = _EXPECTED_DIMS[step.kind]
    except KeyError:
        raise ParameterError("unknown step kind %r" % step.kind) from None
    return check(step, graph)


def _step_multiplier(step, grading):
    counts = {}
    for v in step.curves:
        name = "y%d" % v
        counts[name] = counts.get(name, 0) + 1
    return grading.monomial(counts)


def _quotient_dims(pres, mono, source, target, cap):
    # The relation f, when there is one, has at least two terms and its
    # lead shares no variable with the other terms, so no monomial
    # divides f and multiplication by mono is injective on S/(f). The lead-free
    # monomials are a basis of S/(f), since {f} alone is a Groebner
    # basis (Cox-Little-O'Shea, ch. 2). So mono maps the lead-free
    # monomials of the source to independent elements of the target,
    # and each truncated cokernel dimension is a count: lead-free
    # monomials of the target below the cap, minus those of the source
    # below cap - total(mono).
    #
    # Returns the dimensions truncated at cap - 1 and at cap from one
    # enumeration at cap.
    std = graded_piece_basis(pres, target, cap)
    budget = cap - mono.total()
    src = graded_piece_basis(pres, source, budget) if budget >= 0 else []
    inner_std = sum(1 for m in std if m.total() < cap)
    inner_src = sum(1 for s in src if s.total() < budget)
    return inner_std - inner_src, len(std) - len(src)


def cokernel_dimension(pres, step, cap=DEFAULT_COKERNEL_CAP):
    """Dimension of (target graded piece) / (image of multiplication by
    the step's chain monomial), both taken modulo the relation and
    truncated at total degree cap: the lead-free monomials of the target
    minus those of the source, whose images are independent. Returns
    (dimension, stabilized) where stabilized means caps cap-1 and cap
    agree."""
    if cap > MAX_COKERNEL_CAP:
        raise ResourceCapError(
            "truncation cap %d exceeds the audit limit %d"
            % (cap, MAX_COKERNEL_CAP)
        )
    grading = pres.grading
    mono = _step_multiplier(step, grading)
    if step.adds_curves():
        source, target = step.degree_before, step.degree_after
    else:
        source, target = step.degree_after, step.degree_before
    shifted = _vec_add(grading.degree_of(mono), source)
    if shifted != tuple(target):
        raise ParameterError("step degrees are inconsistent with its curves")
    previous, current = _quotient_dims(pres, mono, source, target, cap)
    return current, previous == current


def audit_step(pres, step, graph, cap=DEFAULT_COKERNEL_CAP):
    """Fill in the actual cokernel dimension of a step and compare with
    the expected one. The cap escalates while the value is unstable, and
    also on disagreement, so that slow convergence is not mistaken for a
    failed step; a genuine failure stays a failure at the cap limit."""
    expected = step.expected_cokernel_dim
    if expected is None:
        expected = expected_cokernel_dim(step, graph)
        step.expected_cokernel_dim = expected
    c = cap
    while True:
        dim, stable = cokernel_dimension(pres, step, c)
        if stable and dim == expected:
            break
        if c + 4 > MAX_COKERNEL_CAP:
            if not stable:
                raise ResourceCapError(
                    "cokernel dimension did not stabilize within cap %d" % c,
                    partial={"dim": dim, "cap": c},
                )
            break
        c += 4
    step.actual_dim = dim
    return {
        "kind": step.kind,
        "nodes": list(step.nodes),
        "expected": expected,
        "actual": dim,
        "cap": c,
        "ok": dim == expected,
    }


def audit(trace, pres, graph, cap=DEFAULT_COKERNEL_CAP):
    """Audit every step of a terminated trace and return the step
    reports. A runaway trace is reported as such, not audited step by
    step: it gets no reports and its steps keep actual_dim None."""
    if not trace.terminated:
        return []
    return [audit_step(pres, step, graph, cap) for step in trace.steps]


def audit_add_curve(graph, node, k=2, cap=DEFAULT_COKERNEL_CAP):
    """Audit a single AddCurve step from degree k*e_node. The expected
    dimension k-1 is the claim under test, so a mismatch is reported,
    not raised."""
    if k < 2:
        raise ParameterError("AddCurve needs a coordinate of at least 2")
    before = tuple(k if v == node else 0 for v in graph.nodes)
    after = _vec_add(before, graph.columns[node])
    step = ReductionStep("AddCurve", (node,), (node,), before, after)
    report = audit_step(presentation_from_graph(graph), step, graph, cap)
    report["node"] = node
    report["k"] = k
    return report


def quotient_presentation(graph, leaf):
    """Presentation of the ring with the section variable at the given
    branch-end leaf set to zero: the variable is dropped and the
    relation loses the term it divides."""
    if leaf not in graph.basic_leaves():
        raise ParameterError("node %d is not a branch-end leaf" % leaf)
    name = section_name_at(graph, leaf)
    grading = graph.grading()
    sub = grading.drop([name])
    cut = grading.index(name)

    def project(mono):
        return Monomial(
            tuple(e for i, e in enumerate(mono.exps) if i != cut)
        )

    rel = relation_from_graph(graph)
    if rel is None:
        return RingPresentation(sub)
    kept = {
        project(m): c for m, c in rel.terms.items() if m.exps[cut] == 0
    }
    reduced = Polynomial(kept)
    remaining = [br for br in graph.branches() if br[-1] != leaf]
    short = min(remaining, key=lambda br: (len(br), br[0]))
    lead = project(branch_term(graph, short))
    if lead not in reduced.terms:
        raise ParameterError("quotient relation lost its lead term")
    return RingPresentation(sub, reduced, lead)


def base_case_family(graph, leaf, k):
    """Seed and period monomials for the graded piece of degree
    k*e_leaf in the quotient presentation, found by enumerating the
    piece, from total degree BASE_CASE_CAP up to BASE_CASE_CAP_LIMIT,
    until two basis elements appear."""
    if k < 1:
        raise ParameterError("k must be positive")
    qp = quotient_presentation(graph, leaf)
    target = tuple(k * c for c in graph.unit_degree(leaf))
    basis = []
    cap = BASE_CASE_CAP
    while len(basis) < 2:
        if cap > BASE_CASE_CAP_LIMIT:
            raise ResourceCapError(
                "no two basis elements of degree %r below total degree %d"
                % (target, BASE_CASE_CAP_LIMIT),
                partial=[str(m) for m in basis],
            )
        basis = graded_piece_basis(qp, target, cap)
        cap += 4
    seed, second = basis[0], basis[1]
    if not seed.divides(second):
        raise ParameterError("second basis element is not a seed multiple")
    period = second / seed
    if qp.grading.degree_of(period) != (0,) * len(graph.nodes):
        raise ParameterError("period monomial is not of degree zero")
    if qp.grading.degree_of(seed) != target:
        raise ParameterError("seed degree mismatch")
    return BaseCaseFamily(seed, period, leaf, k, qp, target)


def base_case_audit(graph, leaf, k, a_max=3):
    """Check that the basic graded piece is spanned by the geometric
    family seed * period^a, up to the truncation the family reaches."""
    fam = base_case_family(graph, leaf, k)
    qp = fam.presentation
    members = [fam.seed * (fam.period ** a) for a in range(a_max + 1)]
    forms = [normal_form(Polynomial.from_monomial(m), qp) for m in members]
    single = all(
        len(f.terms) == 1 and abs(next(iter(f.terms.values()))) == 1
        for f in forms
    )
    report = {
        "case": graph.label,
        "leaf": leaf,
        "k": k,
        "a_max": a_max,
        "seed": qp.grading.format_monomial(fam.seed),
        "period": qp.grading.format_monomial(fam.period),
        "single_monomial_forms": single,
        "ok": False,
    }
    if not single:
        return report
    monos = [next(iter(f.terms)) for f in forms]
    if len(set(monos)) != len(monos):
        report["distinct"] = False
        return report
    cap = max(m.total() for m in monos)
    basis = graded_piece_basis(qp, fam.degree, cap)
    report["family"] = [qp.grading.format_monomial(m) for m in monos]
    report["basis"] = [qp.grading.format_monomial(m) for m in basis]
    report["ok"] = set(basis) == set(monos)
    return report


def full_equivalence_audit(
    graph,
    degree,
    cap=DEFAULT_COKERNEL_CAP,
    step_cap=DEFAULT_STEP_CAP,
):
    """Reduce a degree to nef and then to basic, audit the cokernel
    dimension of every step against the combinatorial expectation, and
    finish with the base-case family check where it applies."""
    d = _check_degree(degree, graph)
    pres = presentation_from_graph(graph)
    trace = reduce(graph, d, step_cap)
    steps = audit(trace, pres, graph, cap)
    report = {
        "case": graph.label,
        "initial": list(d),
        "terminated": trace.terminated,
        "steps": steps,
        "base_case": None,
        "ok": False,
    }
    audits_ok = all(step["ok"] for step in steps)
    if trace.terminated:
        report["terminal"] = list(trace.terminal)
        nonzero = [c for c in trace.terminal if c]
        if nonzero and graph.family == "D":
            leaf = graph.nodes[
                next(i for i, c in enumerate(trace.terminal) if c)
            ]
            base = base_case_audit(graph, leaf, nonzero[0], a_max=2)
            report["base_case"] = base
            audits_ok = audits_ok and base["ok"]
    report["ok"] = bool(trace.terminated and audits_ok)
    return report
