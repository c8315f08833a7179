"""Multigraded monomials, polynomials and ring presentations.

Everything is exact: exponents and coefficients are Python ints, since
every relation here has coefficients 1 and rewrites keep them integral.
A Grading pairs a variable table with an integer degree matrix whose
rows are the lattice coordinates. Graded pieces and the
degree-zero generators both come from the one lattice-point solver in
diophantine: a graded piece is the fiber of the degree matrix over its
degree, and the generators are the minimal nonzero points of the
degree-zero fiber. A presentation holds at most one relation, whose lead
shares no variable with its other terms, so normal forms need no term
order: every rewrite order gives the same one.
"""

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
    """Sparse polynomial: monomial -> int coefficient, zero terms dropped."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        d = {}
        for m, c in dict(terms).items():
            if type(c) is not int:
                raise ParameterError("polynomial coefficients must be integers")
            if c != 0:
                d[m] = c
        self.terms = d

    def is_zero(self):
        return not self.terms

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda mc: mc[0].key())

    def __sub__(self, other):
        d = dict(self.terms)
        for m, c in other.terms.items():
            d[m] = d.get(m, 0) - c
        return Polynomial(d)

    def times_monomial(self, mono, coeff=1):
        return Polynomial({m * mono: c * coeff for m, c in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.terms == other.terms

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
            else:
                s = "%d*%s" % (c, mono)
            parts.append(s)
        out = parts[0]
        for s in parts[1:]:
            out += " - " + s[1:] if s.startswith("-") else " + " + s
        return out

    def drop(self, names):
        names = set(names)
        for n in names:
            self.index(n)
        keep = [i for i, v in enumerate(self.variables) if v not in names]
        return Grading(
            tuple(self.variables[i] for i in keep),
            tuple(tuple(row[i] for i in keep) for row in self.matrix),
        )

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

    __slots__ = ("grading", "relation", "lead")

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


def normal_form(poly, pres):
    """Reduce modulo the relation: rewrite lead * q -> -(rest) * q until
    no term is divisible by the lead, taking the lead multiples in
    whatever order they come.

    Any order ends: the other terms share no variable with the lead, so
    a rewrite replaces a monomial whose lead power (the largest k with
    lead^k dividing it) is r by monomials of lead power r - 1. Any order
    ends at the same remainder: some term order makes the lead the
    leading term, for instance one that weights the lead's variables
    above every other term's total degree, and under it {relation} is a
    Groebner basis, whose remainders are unique."""
    work = Polynomial(poly.terms)
    lead = pres.lead
    if lead is None:
        return work
    rest = Polynomial({m: c for m, c in pres.relation.terms.items() if m != lead})
    while True:
        m = next((m for m in work.terms if lead.divides(m)), None)
        if m is None:
            return work
        c = work.terms[m]
        work = work - Polynomial({m: c}) - rest.times_monomial(m / lead, c)


def graded_piece_basis(pres, degree, cap):
    """Monomial basis of one graded piece, truncated at total degree cap:
    monomials of the degree with no lead-term divisor."""
    monos = monomials_of_degree(pres.grading, degree, cap)
    if pres.lead is None:
        return monos
    return [m for m in monos if not pres.lead.divides(m)]
