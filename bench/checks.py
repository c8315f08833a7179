"""Checks of coxforge outputs that do not use coxforge.

Every expectation is recomputed here from the case's Dynkin diagram
(`inputs.diagram`) or is a property the method must have:

* invariant generators have degree zero and are exactly the irreducible
  degree-zero monomials up to a total-degree bound, found by
  linear-propagation enumeration, and their number is the known one;
* toric relations substitute to equal monomials on both sides;
* the candidate relation has one term per branch, of degree e_center,
  and every ambient cut's residual equals it;
* reduction traces compose, move by the named Cartan columns, end nef
  after the nef pass and basic after the basic pass, and never raise
  the S-measure on D cases;
* each audited step's dimension is the section count of its chain.

Each check returns a list of problems; an empty list means the output
passed.
"""

import json
from fractions import Fraction

from inputs import diagram

KNOWN_GENERATOR_COUNTS = {"E6": 4, "E7": 4, "E8": 3}
VERIFY_GRID = 2000
VERIFY_BOX = (-3, 3)
VERIFY_AUDIT_DEGREES = 6


def generator_count(case):
    family, n = case[0], int(case[1:])
    if family == "A":
        return 3
    if family == "D":
        return 4 if n % 2 == 0 else 6
    return KNOWN_GENERATOR_COUNTS[case]


# ----- monomials and degrees -------------------------------------------


def parse_monomial(text, dia):
    exps = [0] * len(dia.variables)
    if text.strip() == "1":
        return tuple(exps)
    for factor in text.split("*"):
        name, _, power = factor.strip().partition("^")
        exps[dia.variables.index(name)] += int(power) if power else 1
    return tuple(exps)


def parse_polynomial(text, dia):
    """Terms of a sum of monomials with coefficient one."""
    terms = set()
    for part in text.split(" + "):
        terms.add(parse_monomial(part, dia))
    return terms


def branch_terms(dia):
    """The candidate relation read off the diagram: per branch, the
    curve at distance t from the center to the t-th power times the
    branch-end section to the (length + 1)-th power."""
    terms = set()
    for branch in dia.branches:
        exps = [0] * len(dia.variables)
        for t, node in enumerate(branch, start=1):
            exps[dia.variables.index("y%d" % node)] = t
        (name,) = [s for s, at in dia.sections if at == branch[-1]]
        exps[dia.variables.index(name)] = len(branch) + 1
        terms.add(tuple(exps))
    return terms


def is_negative_definite(matrix):
    """Sylvester's criterion with exact fractions."""
    n = len(matrix)
    for k in range(1, n + 1):
        work = [[Fraction(x) for x in row[:k]] for row in matrix[:k]]
        det = Fraction(1)
        for c in range(k):
            piv = next((r for r in range(c, k) if work[r][c] != 0), None)
            if piv is None:
                det = Fraction(0)
                break
            if piv != c:
                work[c], work[piv] = work[piv], work[c]
                det = -det
            det *= work[c][c]
            for r in range(c + 1, k):
                f = work[r][c] / work[c][c]
                if f:
                    work[r] = [a - f * b for a, b in zip(work[r], work[c])]
        if (-1) ** k * det <= 0:
            return False
    return True


# ----- degree-zero monoid by linear propagation -------------------------


def degree_zero_monomials(dia, bound):
    """Every degree-zero monomial of total degree <= bound, as exponent
    tuples. The curve exponents propagate linearly from a few free
    values (the center and the first node of each branch, or the first
    node and its section on a chain), so nothing is searched but those."""
    var = {name: i for i, name in enumerate(dia.variables)}
    width = len(dia.variables)
    out = []
    if dia.center is None:
        nodes = dia.nodes
        if len(nodes) == 1:
            y, a, b = var["y%d" % nodes[0]], var[dia.sections[0][0]], var[dia.sections[1][0]]
            for e in range(bound // 3 + 1):
                for s in range(2 * e + 1):
                    exps = [0] * width
                    exps[y], exps[a], exps[b] = e, s, 2 * e - s
                    out.append(tuple(exps))
            return out
        first, last = dia.sections[0][0], dia.sections[-1][0]
        for e1 in range(bound + 1):
            for s1 in range(2 * e1 + 1):
                ys = [e1, 2 * e1 - s1]
                while len(ys) < len(nodes):
                    ys.append(2 * ys[-1] - ys[-2])
                s_last = 2 * ys[-1] - ys[-2]
                if min(ys) < 0 or s_last < 0:
                    continue
                if sum(ys) + s1 + s_last > bound:
                    continue
                exps = [0] * width
                for node, e in zip(nodes, ys):
                    exps[var["y%d" % node]] = e
                exps[var[first]] = s1
                exps[var[last]] = s_last
                out.append(tuple(exps))
        return out
    ends = {at: name for name, at in dia.sections}
    for c in range(bound + 1):
        options = []
        for branch in dia.branches:
            length = len(branch)
            opts = {}
            # y_t = c + t (f - c) along the branch; the end section is
            # (length + 1) f - length c
            for f in range(-(-length * c // (length + 1)), 2 * c + 1):
                ys = [c + t * (f - c) for t in range(1, length + 1)]
                section = (length + 1) * f - length * c
                if min(ys) < 0 or section < 0:
                    continue
                total = sum(ys) + section
                if c + total > bound:
                    continue
                opts[f] = (ys, section, total)
            options.append(opts)
        if len(options) != 3:
            raise ValueError("propagation is written for three branches")
        (b1, o1), (b2, o2), (b3, o3) = zip(dia.branches, options)
        for f1, (ys1, s1, t1) in o1.items():
            for f2, (ys2, s2, t2) in o2.items():
                f3 = 2 * c - f1 - f2
                if f3 not in o3:
                    continue
                ys3, s3, t3 = o3[f3]
                if c + t1 + t2 + t3 > bound:
                    continue
                exps = [0] * width
                exps[var["y%d" % dia.center]] = c
                for branch, ys, s in ((b1, ys1, s1), (b2, ys2, s2), (b3, ys3, s3)):
                    for node, e in zip(branch, ys):
                        exps[var["y%d" % node]] = e
                    exps[var[ends[branch[-1]]]] = s
                out.append(tuple(exps))
    return out


def irreducibles(elements):
    """Nonzero elements with no other nonzero element of the set below
    them componentwise (the set is closed under differences that stay
    nonnegative, so these are the monoid's irreducibles)."""
    nonzero = [m for m in elements if any(m)]
    out = set()
    for m in nonzero:
        if not any(
            a != m and all(x <= y for x, y in zip(a, m)) for a in nonzero
        ):
            out.add(m)
    return out


_GENERATOR_VERDICTS = {}


def check_generators(case, gens):
    """gens: exponent tuples the program reports as the invariant
    generators of an ADE case."""
    key = (case, tuple(sorted(gens)))
    if key in _GENERATOR_VERDICTS:
        return list(_GENERATOR_VERDICTS[key])
    dia = diagram(case)
    problems = []
    zero = (0,) * len(dia.nodes)
    for g in gens:
        if dia.degree_of(g) != zero:
            problems.append("%s: generator %r has degree %r" % (case, g, dia.degree_of(g)))
    if len(gens) != generator_count(case):
        problems.append("%s: %d generators, %d known" % (case, len(gens), generator_count(case)))
    if not problems:
        bound = 2 * max(sum(g) for g in gens)
        want = irreducibles(degree_zero_monomials(dia, bound))
        if set(gens) != want:
            problems.append(
                "%s: generators differ from the irreducible degree-zero monomials "
                "up to total degree %d" % (case, bound)
            )
    _GENERATOR_VERDICTS[key] = tuple(problems)
    return problems


def check_invariants_report(case, report):
    dia = diagram(case)
    problems = []
    if report.get("ok") is not True or report.get("case") != case:
        problems.append("%s: invariants report not ok" % case)
    named = {}
    for row in report.get("generators", ()):
        if row.get("computed") is None:
            continue
        named[row["name"]] = parse_monomial(row["computed"], dia)
    problems += check_generators(case, list(named.values()))
    for rel in report.get("relations", {}).get("computed", ()):
        sides = []
        for side in rel.split(" = "):
            total = [0] * len(dia.variables)
            for factor in side.split("*"):
                name, _, power = factor.partition("^")
                if name not in named:
                    problems.append("%s: relation %s names no generator %s" % (case, rel, name))
                    break
                e = int(power) if power else 1
                total = [t + e * x for t, x in zip(total, named[name])]
            sides.append(tuple(total))
        if len(set(sides)) != 1:
            problems.append("%s: relation %s substitutes to different monomials" % (case, rel))
    return problems


def check_cox_report(case, report):
    dia = diagram(case)
    problems = []
    if report.get("ok") is not True or report.get("case") != case:
        problems.append("%s: cox report not ok" % case)
    if tuple(report.get("variables", ())) != dia.variables:
        problems.append("%s: variables differ from the diagram" % case)
    if dia.center is None:
        if report.get("relation") is not None or report.get("cuts"):
            problems.append("%s: a chain carries no relation" % case)
        return problems
    relation = parse_polynomial(report["relation"], dia)
    center = dia.unit(dia.center)
    for term in relation:
        if dia.degree_of(term) != center:
            problems.append("%s: relation term of degree %r" % (case, dia.degree_of(term)))
    if relation != branch_terms(dia):
        problems.append("%s: relation differs from the branch terms" % case)
    if parse_monomial(report["lead"], dia) not in relation:
        problems.append("%s: lead is not a relation term" % case)
    for cut in report.get("cuts", ()):
        if parse_polynomial(cut["residual"], dia) != relation:
            problems.append("%s: cut %s residual differs from the relation" % (case, cut["name"]))
    if case.startswith("custom:") and report.get("normal_form_zero") is not True:
        problems.append("%s: relation does not reduce to zero" % case)
    if case[0] in "DE" and not report.get("cuts"):
        problems.append("%s: no ambient cuts" % case)
    return problems


def check_graph_report(case, report):
    dia = diagram(case)
    problems = []
    if report.get("label") != case or tuple(report.get("nodes", ())) != dia.nodes:
        problems.append("%s: nodes differ from the diagram" % case)
    if report.get("intersection_matrix") != dia.matrix:
        problems.append("%s: intersection matrix differs from the diagram" % case)
    if [tuple(r) for r in report.get("grading_matrix", ())] != dia.grading:
        problems.append("%s: grading differs from the diagram" % case)
    if tuple(report.get("variables", ())) != dia.variables:
        problems.append("%s: variables differ from the diagram" % case)
    if report.get("negative_definite") != is_negative_definite(dia.matrix):
        problems.append("%s: wrong definiteness" % case)
    return problems


# ----- reduction traces --------------------------------------------------


def is_basic(degree, dia):
    nonzero = [(v, c) for v, c in zip(dia.nodes, degree) if c]
    if not nonzero:
        return True
    return len(nonzero) == 1 and nonzero[0][1] > 0 and nonzero[0][0] in dia.ends


def twice_s_measure(degree, dia):
    """2·S, an integer: nodes 1 and 2 weigh 1/2 in S, the others 1."""
    return sum(c if v in (1, 2) else 2 * c for v, c in zip(dia.nodes, degree))


def section_count(dia, kind, curves, before, after):
    """h0 of the target degree restricted to the step's chain of
    rational curves. The target is the degree that multiplication by
    the chain's curves lands in: the degree after an adding step, the
    degree before a subtracting one."""
    target = after if kind in ("AddCurve", "AddChain") else before
    degs = [target[dia.index[v]] for v in curves]
    if len(degs) == 1:
        return max(0, degs[0] + 1)
    if min(degs) < 0:
        return None
    return 1 + sum(degs)


def check_trace(case, initial, steps, terminal, dims=False, measures=None):
    """steps: (kind, curves, degree_after, expected_dim, actual_dim).
    The nef pass is the leading run of SubtractCurve steps."""
    dia = diagram(case)
    columns = {v: dia.column(v) for v in dia.nodes}
    problems = []
    d = tuple(initial)
    nef_done = False
    add_phase = [None]
    for kind, curves, after, expected, actual in steps:
        after = tuple(after)
        delta = [0] * len(dia.nodes)
        for v in curves:
            delta = [a + b for a, b in zip(delta, columns[v])]
        sign = 1 if kind in ("AddCurve", "AddChain") else -1
        if after != tuple(a + sign * b for a, b in zip(d, delta)):
            problems.append("%s: %s step from %r does not move by its columns" % (case, kind, d))
            break
        if kind == "SubtractCurve":
            if nef_done or len(curves) != 1 or d[dia.index[curves[0]]] >= 0:
                problems.append("%s: SubtractCurve outside the nef pass at %r" % (case, d))
        else:
            if not nef_done:
                nef_done = True
                if min(d) < 0:
                    problems.append("%s: nef pass ends at %r" % (case, d))
                add_phase = [d]
            if kind in ("AddCurve", "AddChain"):
                add_phase.append(after)
        if dims:
            want = section_count(dia, kind, curves, d, after)
            if want is None or expected != want or actual != want:
                problems.append(
                    "%s: %s step at %r has dims %r/%r, section count %r"
                    % (case, kind, d, expected, actual, want)
                )
        d = after
    if not nef_done:
        if min(d) < 0:
            problems.append("%s: nef pass ends at %r" % (case, d))
        add_phase = [d]
    if d != tuple(terminal):
        problems.append("%s: terminal %r is not the last degree %r" % (case, terminal, d))
    if not is_basic(d, dia):
        problems.append("%s: terminal %r is not basic" % (case, d))
    values = [twice_s_measure(x, dia) for x in add_phase if x is not None]
    if measures is not None and [2 * Fraction(m) for m in measures] != values:
        problems.append("%s: S-measures differ from the add-phase degrees" % case)
    if case.startswith("D") and any(a < b for a, b in zip(values, values[1:])):
        problems.append("%s: S-measure rises from %r" % (case, initial))
    return problems


def check_reduce_report(case, degree, report):
    problems = []
    if report.get("case") != case or report.get("ok") is not True or not report.get("terminated"):
        problems.append("%s: reduce of %r not ok" % (case, degree))
    if tuple(report.get("initial", ())) != tuple(degree):
        problems.append("%s: reduce reports initial %r" % (case, report.get("initial")))
    steps = [
        (s["kind"], s["curves"], s["degree_after"], s["expected_dim"], s["actual_dim"])
        for s in report.get("steps", ())
    ]
    problems += check_trace(
        case, degree, steps, report.get("terminal", ()), dims=True, measures=report.get("measures")
    )
    return problems


# ----- whole command outputs --------------------------------------------


def text_lines(case, text, extra=()):
    lines = text.splitlines()
    want_head = "case %s" % case
    problems = []
    if not lines or lines[0] != want_head:
        problems.append("%s: text output starts %r" % (case, lines[:1]))
    for line in extra:
        if line not in lines:
            problems.append("%s: text output lacks %r" % (case, line))
    return problems, lines


def check_verify_report(case, report):
    """`coxforge verify` on an ADE case with the default grid."""
    dia = diagram(case)
    problems = []
    sections = report.get("sections", {})
    if report.get("ok") is not True or report.get("case") != case:
        problems.append("%s: verify not ok" % case)
    problems += check_invariants_report(case, sections.get("invariants", {}))
    problems += check_cox_report(case, sections.get("cox", {}))
    lo, hi = VERIFY_BOX
    cells = min(VERIFY_GRID, (hi - lo + 1) ** len(dia.nodes))
    sweep = sections.get("reduction", {})
    if sweep.get("ok") is not True or sweep.get("cells") != cells or sweep.get("max_steps", 0) < 1:
        problems.append("%s: reduction sweep section %r" % (case, sweep))
    audits = sections.get("audits", {})
    degrees = audits.get("degrees", ())
    if audits.get("ok") is not True or len(degrees) != VERIFY_AUDIT_DEGREES:
        problems.append("%s: audits section not ok" % case)
    for row in degrees:
        initial = row.get("initial", ())
        if (
            row.get("ok") is not True
            or len(initial) != len(dia.nodes)
            or not all(lo <= c <= hi for c in initial)
            or not isinstance(row.get("steps"), int)
            or row.get("base_case") not in (None, True)
        ):
            problems.append("%s: audit row %r" % (case, row))
    return problems


def audited_steps(report):
    return sum(row["steps"] for row in report["sections"]["audits"]["degrees"])


def check_command(argv, code, out):
    """Check one CLI run. Returns (failed, problems, steps): failed when
    the exit code is not the one due; problems lists wrong outputs of a
    run that did not fail; steps counts the audited reduction steps the
    output reports."""
    command, case = argv[0], argv[2]
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
    if "--caps" in argv:
        # a step cap too small for the sweep: a mismatch or a cap error
        if code not in (1, 3):
            return True, [], 0
        report = json.loads(out)
        if code == 3 and report.get("error") != "resource-cap":
            return False, ["%s: exit 3 without a resource-cap report" % case], 0
        if code == 1 and report["sections"]["reduction"].get("ok") is not False:
            return False, ["%s: exit 1 with a passing sweep" % case], 0
        return False, [], 0
    if code != 0:
        return True, [], 0
    if fmt == "text":
        extra = []
        if command == "graph":
            dia = diagram(case)
            definite = "yes" if is_negative_definite(dia.matrix) else "no"
            extra = ["  nodes: %d" % len(dia.nodes), "  negative definite: %s" % definite]
        else:
            extra = ["ok"]
        problems, lines = text_lines(case, out, extra)
        steps = 0
        if command == "reduce":
            dia = diagram(case)
            head = [l for l in lines if l.startswith("  terminal: ")]
            count = [l for l in lines if l.startswith("  steps: ")]
            if not head or not count:
                return False, problems + ["%s: reduce text lacks its summary" % case], 0
            terminal = json.loads(head[0].split(": ", 1)[1])
            if not is_basic(tuple(terminal), dia):
                problems.append("%s: reduce terminal %r is not basic" % (case, terminal))
            steps = int(count[0].split(": ", 1)[1])
        return False, problems, steps
    report = json.loads(out)
    if command == "graph":
        return False, check_graph_report(case, report), 0
    if command == "invariants":
        return False, check_invariants_report(case, report), 0
    if command == "cox":
        return False, check_cox_report(case, report), 0
    if command == "reduce":
        degree = tuple(int(x) for x in argv[3].split("=", 1)[1].split(","))
        return False, check_reduce_report(case, degree, report), len(report.get("steps", ()))
    if command == "verify":
        problems = check_verify_report(case, report)
        return False, problems, 0 if problems else audited_steps(report)
    return False, ["unchecked command %r" % command], 0
