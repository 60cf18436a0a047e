"""Exact scalars, sparse elements, the column determinant and the one
elimination.

Scalars throughout the package are Python ints or fractions.Fraction; no
floating point is used anywhere.  The enveloping algebra, the symmetric
algebra, the free algebra, polynomials in u over the free algebra and the
matrix units of gl_N all store an element as a SparseElement, a map from
monomials to nonzero scalars.  They differ only in how two monomials
multiply and how a monomial prints; coercion, comparison and the linear
and ring operations live here.  A sum updates through accumulate, and
every product through _mul_into, the one multiply-accumulate, which adds
scale * a * b into a term map with accumulate's update inlined.  A caller
that needs more than ring arithmetic, such as a coefficient of u, a
derivative at a point or the adjoint action, reads it off the terms
itself.  column_minor is the one column determinant: it builds the
minor of SparseElement entries of one ring on a tuple of columns and a
row bitmask by expansion along its last column, filling the term map in
place through _mul_into with the sign as the scale, and keeps every
minor in a memo that the caller owns under (cols, rows), a zero one as
None.  It alone maps the bitmask to rows: bit a - 1 is row a, whose
entry in the column col is entry(a, *col), so each caller hands over its
algebra's own entry builder.  Determinants that share leading columns
share their minors in centralizer.minor_table, one memo per composition
and entry function.
echelon_add is the one elimination: it reads each row as a map from
column to scalar, so a sparse row costs only its nonzero entries, and it
reduces fraction-free, so integer rows never become Fractions.
rational_rank is a loop over it, and so is the rank that certifies a Lie
generating set in centralizer.lie_generators.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

Scalar = (int, Fraction)


def format_scalar(c) -> str:
    """Render an exact scalar as "p" or "p/q"."""
    if not isinstance(c, Scalar):
        raise TypeError(f"not an exact scalar: {c!r}")
    f = Fraction(c)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def format_terms(pairs) -> str:
    """Join (coefficient, monomial-string) pairs into a signed sum."""
    bits = []
    for c, mono in pairs:
        f = Fraction(c)
        sign = "-" if f < 0 else "+"
        mag = -f if f < 0 else f
        if mono == "1":
            body = format_scalar(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{format_scalar(mag)}*{mono}"
        bits.append((sign, body))
    if not bits:
        return "0"
    first_sign, first_body = bits[0]
    text = f"-{first_body}" if first_sign == "-" else first_body
    for sign, body in bits[1:]:
        text += f" {sign} {body}"
    return text


def accumulate(out: dict, pairs, scale=1) -> dict:
    """Add scale * c to out[m] for every (m, c) in pairs, dropping zeros.

    Updates out in place and returns it.
    """
    for m, c in pairs:
        v = out.get(m, 0) + scale * c
        if v:
            out[m] = v
        elif m in out:
            del out[m]
    return out


class SparseElement:
    """Ring element stored as a map from monomials to nonzero coefficients.

    A subclass supplies _times(m1, m2), the product of two monomials as
    (monomial, coefficient) pairs, and _format_monomial(m) for repr.  One
    whose elements carry a context overrides _new and _coerce; one whose
    unit monomial is not () overrides _scalar.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = terms

    def _new(self, terms: dict):
        return type(self)(terms)

    def _scalar(self, c):
        return self._new({(): c} if c else {})

    def _coerce(self, other):
        # own type first: an isinstance check that fails against Fraction
        # runs ABCMeta.__instancecheck__, and every ring product comes here
        if isinstance(other, type(self)):
            return other
        if isinstance(other, Scalar):
            return self._scalar(other)
        return None

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._new(accumulate(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return self._new({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._new(accumulate(dict(self.terms), other.terms.items(), -1))

    def __rsub__(self, other):
        return -self + other

    def _mul_into(self, out: dict, other, scale) -> dict:
        """Add scale * self * other, other of the same ring, to the term
        map out, dropping zeros: the one product loop, with the update of
        accumulate inlined.  Updates out in place and returns it."""
        times = self._times
        pairs = other.terms.items()
        for m1, c1 in self.terms.items():
            c1 *= scale
            for m2, c2 in pairs:
                c12 = c1 * c2
                for m, c in times(m1, m2):
                    v = out.get(m, 0) + c12 * c
                    if v:
                        out[m] = v
                    elif m in out:
                        del out[m]
        return out

    def __mul__(self, other):
        # elements before scalars, for the reason given in _coerce
        if isinstance(other, SparseElement):
            other = self._coerce(other)
            if other is None:
                return NotImplemented
            return self._new(self._mul_into({}, other, 1))
        if isinstance(other, Scalar):
            if not other:
                return self._new({})
            return self._new({m: c * other for m, c in self.terms.items()})
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, Scalar):
            return self * other
        return NotImplemented

    def leading_term(self):
        """The first term in repr order, as an element; undefined on zero."""
        m = min(self.terms, key=_repr_key)
        return self._new({m: self.terms[m]})

    def __repr__(self):
        order = sorted(self.terms, key=_repr_key)
        return format_terms((self.terms[m], self._format_monomial(m))
                            for m in order)


def _repr_key(m):
    """Longer monomials first, then in monomial order."""
    return (-len(m), m)


def column_minor(memo, entry, cols, rows):
    """The column determinant of the SparseElements entry(a, *col), all of
    one ring, on the rows a of the bitmask rows, row a at bit a - 1, and
    the columns cols, a tuple of one tuple per row; None when it is zero.

    The minor is expanded along its last column:
        F(cols, R) = sum over a in R of (-1)^#{b in R : b > a}
                     * F(cols[:-1], R - {a}) * F(cols[-1:], {a}),
    each product added into one term map through _mul_into, with the sign
    as the scale.  memo keeps every minor under (cols, rows): a one-column
    minor is an entry, and a zero minor is None.  So each minor is built
    once for all the callers that share memo, and a cancelled one is never
    extended.  Entry a is read before the minor without row a, so a zero
    entry prunes that branch, and no entry of a row outside R is read.
    """
    key = (cols, rows)
    if key in memo:
        return memo[key]
    if len(cols) == 1:
        memo[key] = minor = entry(rows.bit_length(), *cols[0]) or None
        return minor
    shorter, last = cols[:-1], cols[-1:]
    terms: dict = {}
    made = None
    sign = 1 if len(cols) & 1 else -1  # the lowest row has |R| - 1 above it
    rest = rows
    while rest:
        low = rest & -rest
        rest ^= low
        x = column_minor(memo, entry, last, low)
        if x is not None:
            sub = column_minor(memo, entry, shorter, rows ^ low)
            if sub is not None:
                sub._mul_into(terms, x, sign)
                made = sub
        sign = -sign
    # every minor lies in one ring, so any of them makes the element
    memo[key] = minor = made._new(terms) if terms else None
    return minor


def echelon_add(pivots: dict, row: dict) -> bool:
    """Reduce row against pivots; keep what is left as a new pivot row.

    pivots maps a column to the row whose smallest column it is.  A row
    maps columns to exact scalars; zero entries may be left out, and
    columns need only be comparable.  The reduction is fraction-free:
    with a the pivot's entry and b the row's entry at the row's smallest
    column, row <- a * row - b * pivot.  When a and b are ints they are
    first divided by their gcd and a made positive, so integer rows stay
    integer and a unit pivot entry costs no scaling.  The caller's row is
    not changed.  Returns whether a pivot was added, that is, whether the
    row lay outside the span of the pivot rows.
    """
    row = {col: v for col, v in row.items() if v}
    while row:
        col = min(row)
        pivot = pivots.get(col)
        if pivot is None:
            pivots[col] = row
            return True
        a, b = pivot[col], row[col]
        if type(a) is int and type(b) is int:
            g = gcd(a, b) if a > 0 else -gcd(a, b)
            a, b = a // g, b // g
        if a != 1:
            row = {c: a * v for c, v in row.items()}
        accumulate(row, pivot.items(), -b)
    return False


def rational_rank(rows) -> int:
    """Rank of a matrix whose rows map columns to exact scalars, by
    echelon_add."""
    pivots: dict = {}
    for row in rows:
        echelon_add(pivots, row)
    return len(pivots)
