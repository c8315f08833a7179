"""Multigraded monomials and ring presentations.

A monomial is its exponent tuple, one nonnegative int per variable of
its grading. Every relation here is a sum of distinct monomials with
coefficient 1, so a relation is a tuple of exponent tuples and no
coefficient ring is needed; only normal_form, whose rewrites keep
coefficients integral, takes a map from exponent tuples to ints.

A Grading pairs a variable table with an integer degree matrix whose
rows are the lattice coordinates. Graded pieces and the
degree-zero generators both come from the one lattice-point solver in
diophantine: a graded piece is the fiber of the degree matrix over its
degree, and the generators are the minimal nonzero points of the
degree-zero fiber. A presentation holds at most one relation, whose lead
shares no variable with its other terms, so normal forms need no term
order: every rewrite order gives the same one.
"""

from operator import add, le, sub

from . import diophantine
from .errors import ParameterError


def _divides(a, b):
    return all(map(le, a, b))


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

    def degree_of(self, exps):
        if len(exps) != self.width:
            raise ParameterError(
                "monomial has %d exponents, grading has %d variables" % (len(exps), self.width)
            )
        return tuple(sum(r * e for r, e in zip(row, exps)) for row in self.matrix)

    def monomial(self, mapping):
        exps = [0] * self.width
        for name, e in mapping.items():
            exps[self.index(name)] = e
        return tuple(exps)

    def format_monomial(self, exps):
        parts = []
        for v, e in zip(self.variables, exps):
            if e == 1:
                parts.append(v)
            elif e > 1:
                parts.append("%s^%d" % (v, e))
        return "*".join(parts) if parts else "1"

    def format_polynomial(self, terms):
        """The sum of the coefficient-1 terms, by total degree, then
        exponents."""
        ordered = sorted(terms, key=lambda exps: (sum(exps), exps))
        return " + ".join(self.format_monomial(m) for m in ordered)

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
    return tuple(diophantine.solve_nonneg([list(row) for row in grading.matrix]))


def monomials_of_degree(grading, degree, cap):
    """The monomials of the given degree with total degree <= cap, sorted:
    the points of diophantine.fiber_points on the degree matrix."""
    degree = tuple(degree)
    if len(degree) != grading.lattice_rank:
        raise ParameterError(
            "degree has %d coordinates, grading has %d" % (len(degree), grading.lattice_rank)
        )
    return diophantine.fiber_points(grading.matrix, degree, cap)


class RingPresentation:
    """The polynomial ring over a grading, modulo at most one homogeneous
    relation: a tuple of distinct exponent tuples, the sum of its terms
    with coefficient 1, and a lead that is one of them. The relation
    has at least two terms, and the lead shares no variable with any
    other term. So {relation} is a Groebner basis, the lead-free
    monomials are a basis of the quotient, and the relation has no
    monomial factor."""

    __slots__ = ("grading", "relation", "lead")

    def __init__(self, grading, relation=None, lead=None):
        if (relation is None) != (lead is None):
            raise ParameterError("a relation needs a lead term, and a lead term a relation")
        if relation is not None:
            if len(relation) < 2:
                raise ParameterError("relation needs at least two terms")
            if len(set(relation)) != len(relation):
                raise ParameterError("relation repeats a term")
            if lead not in relation:
                raise ParameterError("lead term must be a term of the relation")
            if len({grading.degree_of(m) for m in relation}) > 1:
                raise ParameterError("relation is not homogeneous")
            for m in relation:
                if m != lead and any(a and b for a, b in zip(lead, m)):
                    raise ParameterError("lead term shares a variable with another term")
        self.grading = grading
        self.relation = relation
        self.lead = lead


def normal_form(poly, pres):
    """Reduce a {exponent tuple: int} map modulo the relation, and
    return its nonzero terms: rewrite lead * q -> -(rest) * q until no
    term is divisible by the lead, taking the lead multiples in
    whatever order they come.

    Any order ends: the other terms share no variable with the lead, so
    a rewrite replaces a monomial whose lead power (the largest k with
    lead^k dividing it) is r by monomials of lead power r - 1. Any order
    ends at the same remainder: some term order makes the lead the
    leading term, for instance one that weights the lead's variables
    above every other term's total degree, and under it {relation} is a
    Groebner basis, whose remainders are unique."""
    work = {m: c for m, c in poly.items() if c}
    lead = pres.lead
    if lead is None:
        return work
    rest = [m for m in pres.relation if m != lead]
    while True:
        m = next((m for m in work if _divides(lead, m)), None)
        if m is None:
            return work
        c = work.pop(m)
        q = tuple(map(sub, m, lead))
        for r in rest:
            t = tuple(map(add, q, r))
            left = work.get(t, 0) - c
            if left:
                work[t] = left
            else:
                del work[t]


def graded_piece_basis(pres, degree, cap):
    """A monomial basis of one graded piece, truncated at total degree cap:
    monomials of the degree with no lead-term divisor."""
    monos = monomials_of_degree(pres.grading, degree, cap)
    if pres.lead is None:
        return monos
    return [m for m in monos if not _divides(pres.lead, m)]
