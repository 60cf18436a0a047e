"""Scalar coercion and mixed products on every SparseElement subclass."""

from fractions import Fraction

import pytest

from nilcent.centralizer import BasisIndex
from nilcent.composition import Composition
from nilcent.enveloping import pbw_algebra
from nilcent.freealg import FreeElement, UPolynomial
from nilcent.invariants import Polynomial

LAM12 = Composition((1, 2))


def generators():
    """(name, a nonzero non-scalar element, the zero of its type)."""
    alg = pbw_algebra(LAM12)
    letter = FreeElement.letter("a")
    return [
        ("pbw", alg.embed((1, 1, 0)), alg.scalar(0)),
        ("polynomial", Polynomial.variable(BasisIndex(1, 1, 0)), Polynomial({})),
        ("free", letter, FreeElement({})),
        ("upolynomial", UPolynomial({(1, ()): 1, (0, ("a",)): 1}),
         UPolynomial({})),
    ]


@pytest.mark.parametrize("x,zero", [g[1:] for g in generators()],
                         ids=[g[0] for g in generators()])
@pytest.mark.parametrize("s", [3, True, Fraction(-3, 2)], ids=repr)
class TestScalars:
    def test_add_and_subtract(self, x, zero, s):
        assert x + s - s == x
        assert s + x == x + s
        assert s - x == -(x - s)
        assert (zero + s) - s == zero

    def test_multiply(self, x, zero, s):
        assert s * x == x * s
        assert (x * s) * Fraction(1, s) == x
        assert x * s - x * s == zero
        assert x * 0 == zero and 0 * x == zero and x * False == zero

    def test_compare(self, x, zero, s):
        assert zero + s == s
        assert s == zero + s
        assert x != s
        assert zero == 0


def test_mixed_compositions_raise():
    a = pbw_algebra(LAM12).embed((1, 1, 0))
    b = pbw_algebra(Composition((1, 1))).embed((1, 1, 0))
    with pytest.raises(ValueError):
        a * b
    with pytest.raises(ValueError):
        b * a


def test_different_algebras_do_not_multiply():
    free = FreeElement.letter("a")
    pbw = pbw_algebra(LAM12).embed((1, 1, 0))
    with pytest.raises(TypeError):
        free * pbw
    with pytest.raises(TypeError):
        pbw * free

