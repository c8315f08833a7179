"""Multigraded monomials, polynomials and ring presentations.

Everything is exact: exponents are Python ints, coefficients are
Fractions. A Grading pairs a variable table with an integer degree
matrix whose rows are the lattice coordinates. A graded piece is
enumerated by a linear solve: once the free exponents are fixed, the
degree determines the pivot exponents. Only the degree-zero monoid
needs a Hilbert basis, from the diophantine solver.
"""

from fractions import Fraction
from functools import lru_cache

from . import diophantine, linalg
from .errors import ParameterError


class Monomial:
    """Exponent vector with nonnegative integer entries."""

    __slots__ = ("exps",)

    def __init__(self, exps):
        t = tuple(int(x) for x in exps)
        if any(x < 0 for x in t):
            raise ParameterError("monomial exponents must be nonnegative")
        self.exps = t

    def total(self):
        return sum(self.exps)

    def is_one(self):
        return all(x == 0 for x in self.exps)

    def divides(self, other):
        return all(a <= b for a, b in zip(self.exps, other.exps))

    def __mul__(self, other):
        return Monomial(tuple(a + b for a, b in zip(self.exps, other.exps)))

    def __truediv__(self, other):
        if not other.divides(self):
            raise ParameterError("monomial quotient has a negative exponent")
        return Monomial(tuple(a - b for a, b in zip(self.exps, other.exps)))

    def __pow__(self, k):
        if k < 0:
            raise ParameterError("negative monomial power")
        return Monomial(tuple(a * k for a in self.exps))

    def key(self):
        return (self.total(), self.exps)

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self):
        return hash(self.exps)

    def __lt__(self, other):
        return self.key() < other.key()

    def __repr__(self):
        return "Monomial(%r)" % (self.exps,)


class Polynomial:
    """Sparse polynomial: monomial -> Fraction, zero terms dropped."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        d = {}
        for m, c in dict(terms).items():
            c = Fraction(c)
            if c != 0:
                d[m] = c
        self.terms = d

    @classmethod
    def from_monomial(cls, m, coeff=1):
        return cls({m: coeff})

    def is_zero(self):
        return not self.terms

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda mc: mc[0].key())

    def monomials(self):
        return sorted(self.terms, key=Monomial.key)

    def __add__(self, other):
        d = dict(self.terms)
        for m, c in other.terms.items():
            d[m] = d.get(m, Fraction(0)) + c
        return Polynomial(d)

    def __sub__(self, other):
        d = dict(self.terms)
        for m, c in other.terms.items():
            d[m] = d.get(m, Fraction(0)) - c
        return Polynomial(d)

    def __neg__(self):
        return Polynomial({m: -c for m, c in self.terms.items()})

    def scale(self, f):
        return Polynomial({m: c * Fraction(f) for m, c in self.terms.items()})

    def times_monomial(self, mono, coeff=1):
        return Polynomial({m * mono: c * Fraction(coeff) for m, c in self.terms.items()})

    def __mul__(self, other):
        d = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1 * m2
                d[m] = d.get(m, Fraction(0)) + c1 * c2
        return Polynomial(d)

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return "Polynomial(%r)" % (self.terms,)


class Grading:
    """Variable names plus the integer degree matrix (one row per lattice
    coordinate, one column per variable)."""

    __slots__ = ("variables", "matrix", "_index")

    def __init__(self, variables, matrix):
        vs = tuple(str(v) for v in variables)
        if len(set(vs)) != len(vs):
            raise ParameterError("duplicate variable names")
        rows = tuple(tuple(int(x) for x in row) for row in matrix)
        for row in rows:
            if len(row) != len(vs):
                raise ParameterError("degree matrix width does not match variables")
        self.variables = vs
        self.matrix = rows
        self._index = {v: i for i, v in enumerate(vs)}

    @property
    def width(self):
        return len(self.variables)

    @property
    def lattice_rank(self):
        return len(self.matrix)

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise ParameterError("unknown variable %r" % (name,)) from None

    def column(self, name):
        i = self.index(name)
        return tuple(row[i] for row in self.matrix)

    def degree_of(self, mono):
        if len(mono.exps) != self.width:
            raise ParameterError(
                "monomial has %d exponents, grading has %d variables"
                % (len(mono.exps), self.width)
            )
        return tuple(sum(r * e for r, e in zip(row, mono.exps)) for row in self.matrix)

    def monomial(self, mapping):
        exps = [0] * self.width
        for name, e in mapping.items():
            exps[self.index(name)] = e
        return Monomial(exps)

    def one(self):
        return Monomial((0,) * self.width)

    def exponent_dict(self, mono):
        return {v: e for v, e in zip(self.variables, mono.exps) if e}

    def format_monomial(self, mono):
        parts = []
        for v, e in zip(self.variables, mono.exps):
            if e == 1:
                parts.append(v)
            elif e > 1:
                parts.append("%s^%d" % (v, e))
        return "*".join(parts) if parts else "1"

    def format_polynomial(self, poly):
        if poly.is_zero():
            return "0"
        parts = []
        for m, c in poly.sorted_terms():
            mono = self.format_monomial(m)
            if c == 1:
                s = mono
            elif c == -1:
                s = "-" + mono
            elif c.denominator == 1:
                s = "%d*%s" % (c.numerator, mono)
            else:
                s = "(%s)*%s" % (c, mono)
            parts.append(s)
        out = parts[0]
        for s in parts[1:]:
            out += " - " + s[1:] if s.startswith("-") else " + " + s
        return out

    def parse_monomial(self, text):
        text = text.strip()
        if text in ("1", ""):
            return self.one()
        exps = [0] * self.width
        for factor in text.split("*"):
            factor = factor.strip()
            if "^" in factor:
                name, _, power = factor.partition("^")
                e = int(power)
            else:
                name, e = factor, 1
            exps[self.index(name.strip())] += e
        return Monomial(exps)

    def drop(self, names):
        names = set(names)
        for n in names:
            self.index(n)
        keep = [i for i, v in enumerate(self.variables) if v not in names]
        return Grading(
            tuple(self.variables[i] for i in keep),
            tuple(tuple(row[i] for i in keep) for row in self.matrix),
        )

    def embed(self, mono, sub):
        """Lift a monomial of a sub-grading obtained via drop()."""
        exps = [0] * self.width
        for v, e in zip(sub.variables, mono.exps):
            exps[self.index(v)] = e
        return Monomial(exps)

    def __eq__(self, other):
        return (
            isinstance(other, Grading)
            and self.variables == other.variables
            and self.matrix == other.matrix
        )

    def __hash__(self):
        return hash((self.variables, self.matrix))

    def __repr__(self):
        return "Grading(%r, <%dx%d>)" % (self.variables, self.lattice_rank, self.width)


def solve_degree_system(grading):
    """Minimal generators of the degree-zero monomial monoid, sorted by
    total degree then exponents."""
    basis = diophantine.solve_nonneg([list(row) for row in grading.matrix])
    return tuple(Monomial(m) for m in basis)


def _independent(vectors, order):
    """Greedy maximal independent subset of the vectors, tried in order."""
    chosen = []
    for i in order:
        if linalg.rank([vectors[j] for j in chosen + [i]]) > len(chosen):
            chosen.append(i)
    return chosen


@lru_cache(maxsize=None)
def _pivot_system(grading):
    """Split the degree matrix A for monomials_of_degree.

    Pivot columns P are a maximal independent set tried from the last
    column back, so on graph gradings they are the curve columns (one
    section column joins them when the intersection matrix is singular);
    the other columns are free. Rows R are independent rows of A[:, P],
    so B = A[R][P] is invertible; with den = |det B| and adj = den B^-1
    the pivot exponents are adj (d_R - F s) / den.

    Every condition on the free exponents s is linear, a . s <= b: the
    plain sum (a_j = 1, b = cap), the total degree (a_j = den -
    sum(adj F_j), b = den cap - sum(adj d_R)) and each pivot exponent
    being >= 0 (a_j = (adj F_j)_i, b = (adj d_R)_i). Returns (R, P,
    free, den, adj, coeffs, levels, dependent): coeffs[j] holds the a_j
    of every condition in that order; levels[j] lists the conditions
    whose coefficients on the later free exponents are all >= 0, so
    that each bounds s_j by its slack b - a . s_prefix; dependent holds
    (k, w) with den * A[k] = w . A[R] for each other row.
    """
    cols = [grading.column(v) for v in grading.variables]
    pivots = _independent(cols, range(grading.width - 1, -1, -1))
    on_pivots = [[row[c] for c in pivots] for row in grading.matrix]
    rows = _independent(on_pivots, range(grading.lattice_rank))
    b = [on_pivots[i] for i in rows]
    adj, det = linalg.adjugate(b)
    den = abs(det)
    if det < 0:
        adj = [[-x for x in row] for row in adj]
    free = [c for c in range(grading.width) if c not in pivots]
    coeffs = []
    for c in free:
        image = linalg.mat_vec(adj, [cols[c][i] for i in rows])
        coeffs.append([1, den - sum(image)] + image)
    levels = [
        [i for i in range(2 + len(rows)) if all(a[i] >= 0 for a in coeffs[j + 1 :])]
        for j in range(len(free))
    ]
    dependent = [
        (k, linalg.mat_vec(linalg.transpose(adj), on_pivots[k]))
        for k in range(grading.lattice_rank)
        if k not in rows
    ]
    return rows, pivots, free, den, adj, coeffs, levels, dependent


def monomials_of_degree(grading, degree, cap):
    """Monomials of the given degree with total degree <= cap, sorted.

    Each free exponent runs over the interval that its qualifying
    conditions (see _pivot_system) leave open, given the exponents
    before it; at the last free exponent every condition qualifies. The
    pivot exponents follow from the degree, and a monomial is kept when
    they are nonnegative integers and the total stays within cap."""
    degree = tuple(degree)
    if len(degree) != grading.lattice_rank:
        raise ParameterError(
            "degree has %d coordinates, grading has %d" % (len(degree), grading.lattice_rank)
        )
    rows, pivots, free, den, adj, coeffs, levels, dependent = _pivot_system(grading)
    d_rows = [degree[i] for i in rows]
    if any(den * degree[k] != linalg.dot(w, d_rows) for k, w in dependent):
        return []
    exps = [0] * grading.width
    out = []

    def place(j, slack):
        # slack = [cap - plain sum, den*cap - den*total, *num]; num / den
        # are the pivot exponents once every free exponent is placed
        if j == len(free):
            num = slack[2:]
            if any(x < 0 or x % den for x in num):
                return
            ys = [x // den for x in num]
            if sum(ys) <= slack[0]:
                for c, y in zip(pivots, ys):
                    exps[c] = y
                out.append(Monomial(exps))
            return
        a = coeffs[j]
        lo, hi = 0, slack[0]  # the plain sum bounds every level
        for i in levels[j]:
            if a[i] > 0:
                hi = min(hi, slack[i] // a[i])
            elif a[i] < 0:
                lo = max(lo, -(slack[i] // -a[i]))
            elif slack[i] < 0:
                return
        slack = [x - lo * y for x, y in zip(slack, a)]
        for v in range(lo, hi + 1):
            exps[free[j]] = v
            place(j + 1, slack)
            slack = [x - y for x, y in zip(slack, a)]

    num = linalg.mat_vec(adj, d_rows)
    place(0, [cap, den * cap - sum(num)] + num)
    return sorted(out)


class RingPresentation:
    """Polynomial ring over a grading modulo homogeneous relations whose
    lead terms have coefficient one and pairwise disjoint variable
    support from every non-lead term."""

    __slots__ = ("grading", "relations", "leads", "weights")

    def __init__(self, grading, relations, leads):
        if len(relations) != len(leads):
            raise ParameterError("one lead term per relation")
        for rel, lead in zip(relations, leads):
            if rel.terms.get(lead) != 1:
                raise ParameterError("lead term must appear with coefficient 1")
            degs = {grading.degree_of(m) for m in rel.terms}
            if len(degs) > 1:
                raise ParameterError("relation is not homogeneous")
        self.grading = grading
        self.relations = tuple(relations)
        self.leads = tuple(leads)
        self.weights = self._termination_weights()

    def _termination_weights(self):
        # lead variables outweigh any single non-lead term, which makes
        # each rewrite drop the weighted degree and normal forms finite
        max_other = 0
        lead_vars = set()
        for rel, lead in zip(self.relations, self.leads):
            for m in rel.terms:
                if m != lead:
                    max_other = max(max_other, m.total())
            for i, e in enumerate(lead.exps):
                if e:
                    lead_vars.add(i)
        boost = max_other + 1
        return tuple(
            boost if i in lead_vars else 1 for i in range(self.grading.width)
        )

    def weighted_degree(self, mono):
        return sum(w * e for w, e in zip(self.weights, mono.exps))

    def monomial_order_key(self, mono):
        return (self.weighted_degree(mono), mono.exps)


def normal_form(poly, pres):
    """Reduce modulo the relations: rewrite lead * q -> -(rest) * q until
    no term is divisible by a lead. Deterministic and terminating."""
    work = Polynomial(poly.terms)
    while True:
        target = None
        for m in sorted(work.terms, key=pres.monomial_order_key, reverse=True):
            for rel, lead in zip(pres.relations, pres.leads):
                if lead.divides(m):
                    target = (m, rel, lead)
                    break
            if target:
                break
        if target is None:
            return work
        m, rel, lead = target
        q = m / lead
        c = work.terms[m]
        rest = Polynomial({mm: cc for mm, cc in rel.terms.items() if mm != lead})
        work = work - Polynomial({m: c}) - rest.times_monomial(q, c)


def graded_piece_basis(pres, degree, cap):
    """Monomial basis of one graded piece, truncated at total degree cap:
    monomials of the degree with no lead-term divisor."""
    monos = monomials_of_degree(pres.grading, degree, cap)
    return [m for m in monos if not any(l.divides(m) for l in pres.leads)]
