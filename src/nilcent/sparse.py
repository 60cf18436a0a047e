"""Sparse elements: finite maps from monomials to nonzero coefficients.

The enveloping algebra, the symmetric algebra, the free algebra,
polynomials in u over the free algebra and the matrix units of gl_N all
store an element this way, each coefficient an exact scalar.
They differ only in how two monomials multiply and how a monomial prints;
coercion, comparison and the linear and ring operations live here.  A
caller that needs more than ring arithmetic, such as a coefficient of u,
a derivative at a point or the adjoint action, reads it off the terms
itself.
"""

from __future__ import annotations

from .linalg import Scalar, format_terms


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

    def is_zero(self) -> bool:
        return not self.terms

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
        big, small = self.terms, other.terms
        if len(big) < len(small):
            big, small = small, big
        return self._new(accumulate(dict(big), small.items()))

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

    def __mul__(self, other):
        # elements before scalars, for the reason given in _coerce
        if isinstance(other, SparseElement):
            other = self._coerce(other)
            if other is None:
                return NotImplemented
            times = self._times
            out: dict = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    accumulate(out, times(m1, m2), c1 * c2)
            return self._new(out)
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
