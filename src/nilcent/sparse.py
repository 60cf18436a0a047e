"""Sparse elements: finite maps from monomials to nonzero coefficients.

The enveloping algebra, the symmetric algebra, the free algebra and
polynomials in u over the free algebra all store an element this way.
They differ only in how two monomials multiply and how a monomial prints;
coercion, comparison and the linear and ring operations live here.
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
    coefficients are not scalars overrides _scalar and __repr__.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = terms

    def _new(self, terms: dict):
        return type(self)(terms)

    def _scalar(self, c):
        return self._new({(): c} if c else {})

    def _coerce(self, other):
        if isinstance(other, Scalar):
            return self._scalar(other)
        if isinstance(other, type(self)):
            return other
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
        if isinstance(other, Scalar):
            if not other:
                return self._new({})
            return self._new({m: c * other for m, c in self.terms.items()})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        times = self._times
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                accumulate(out, times(m1, m2), c1 * c2)
        return self._new(out)

    def __rmul__(self, other):
        if isinstance(other, Scalar):
            return self * other
        return NotImplemented

    def __repr__(self):
        order = sorted(self.terms, key=lambda m: (-len(m), m))
        return format_terms((self.terms[m], self._format_monomial(m))
                            for m in order)
