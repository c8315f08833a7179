"""Multigraded monomials, polynomials and ring presentations.

Everything is exact: exponents are Python ints, coefficients are
Fractions. A Grading pairs a variable table with an integer degree
matrix whose rows are the lattice coordinates. Graded pieces and the
degree-zero generators both come from the one lattice-point solver in
diophantine: a graded piece is the fiber of the degree matrix over its
degree, and the generators are the minimal nonzero points of the
degree-zero fiber.
"""

from fractions import Fraction

from . import diophantine
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


def monomials_of_degree(grading, degree, cap):
    """Monomials of the given degree with total degree <= cap, sorted:
    the points of diophantine.fiber_points on the degree matrix."""
    degree = tuple(degree)
    if len(degree) != grading.lattice_rank:
        raise ParameterError(
            "degree has %d coordinates, grading has %d" % (len(degree), grading.lattice_rank)
        )
    return [Monomial(s) for s in diophantine.fiber_points(grading.matrix, degree, cap)]


class RingPresentation:
    """Polynomial ring over a grading, modulo at most one homogeneous
    relation. The relation has at least two terms, its lead term has
    coefficient one, and the lead shares no variable with any other
    term. So {relation} is a Groebner basis, the lead-free monomials
    are a basis of the quotient, and the relation has no monomial
    factor."""

    __slots__ = ("grading", "relation", "lead", "weights")

    def __init__(self, grading, relation=None, lead=None):
        if (relation is None) != (lead is None):
            raise ParameterError("a relation needs a lead term, and a lead term a relation")
        if relation is not None:
            if len(relation.terms) < 2:
                raise ParameterError("relation needs at least two terms")
            if relation.terms.get(lead) != 1:
                raise ParameterError("lead term must appear with coefficient 1")
            degs = {grading.degree_of(m) for m in relation.terms}
            if len(degs) > 1:
                raise ParameterError("relation is not homogeneous")
            for m in relation.terms:
                if m != lead and any(a and b for a, b in zip(lead.exps, m.exps)):
                    raise ParameterError("lead term shares a variable with another term")
        self.grading = grading
        self.relation = relation
        self.lead = lead
        self.weights = self._termination_weights()

    def _termination_weights(self):
        # lead variables outweigh any single non-lead term, which makes
        # each rewrite drop the weighted degree and normal forms finite
        if self.relation is None:
            return (1,) * self.grading.width
        boost = 1 + max(m.total() for m in self.relation.terms if m != self.lead)
        return tuple(boost if e else 1 for e in self.lead.exps)

    def weighted_degree(self, mono):
        return sum(w * e for w, e in zip(self.weights, mono.exps))

    def monomial_order_key(self, mono):
        return (self.weighted_degree(mono), mono.exps)


def normal_form(poly, pres):
    """Reduce modulo the relation: rewrite lead * q -> -(rest) * q until
    no term is divisible by the lead. Deterministic and terminating."""
    work = Polynomial(poly.terms)
    lead = pres.lead
    if lead is None:
        return work
    rest = Polynomial({m: c for m, c in pres.relation.terms.items() if m != lead})
    while True:
        hits = [m for m in work.terms if lead.divides(m)]
        if not hits:
            return work
        m = max(hits, key=pres.monomial_order_key)
        c = work.terms[m]
        work = work - Polynomial({m: c}) - rest.times_monomial(m / lead, c)


def graded_piece_basis(pres, degree, cap):
    """Monomial basis of one graded piece, truncated at total degree cap:
    monomials of the degree with no lead-term divisor."""
    monos = monomials_of_degree(pres.grading, degree, cap)
    if pres.lead is None:
        return monos
    return [m for m in monos if not pres.lead.divides(m)]
