"""Scalar coercion and mixed products on every SparseElement subclass."""

from fractions import Fraction

import pytest

from nilcent.centralizer import BasisIndex
from nilcent.composition import Composition
from nilcent.enveloping import pbw_algebra
from nilcent.freealg import FreeElement, UPolynomial
from nilcent.invariants import Polynomial
from nilcent.sparse import derivation_images

LAM12 = Composition((1, 2))


def generators():
    """(name, a nonzero non-scalar element, the zero of its type)."""
    alg = pbw_algebra(LAM12)
    letter = FreeElement.letter("a")
    return [
        ("pbw", alg.embed((1, 1, 0)), alg.scalar(0)),
        ("polynomial", Polynomial.variable(BasisIndex(1, 1, 0)), Polynomial({})),
        ("free", letter, FreeElement.zero()),
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


def test_derivation_images_contract():
    """Letters in place are added inline, only letters out of place reach
    insert, image_of is asked only about letters of terms, zeros are
    dropped, and the images come in the order of the derivations."""
    terms = {(1, 3): 2, (2,): 5}
    looked_up, inserted = [], []

    def recording(images):
        def image_of(x):
            looked_up.append(x)
            return images.get(x, ())
        return image_of

    def insert(head, w, tail):
        inserted.append((head, w, tail))
        return {tuple(sorted(head + (w,) + tail)): 1}

    derivations = [
        ("shift", recording({1: ((4, 1),), 3: ((0, 1), (3, -1)), 9: ((1, 1),)})),
        ("euler", recording({x: ((x, 1),) for x in (1, 2, 3, 9)})),
        ("cancel", recording({1: ((1, 1),), 3: ((3, -1),)})),
    ]
    assert list(derivation_images(terms, derivations, insert)) == [
        ("shift", {(3, 4): 2, (0, 1): 2, (1, 3): -2}),
        ("euler", {(1, 3): 4, (2,): 5}),
        ("cancel", {}),
    ]
    assert inserted == [((), 4, (3,)), ((1,), 0, ())]
    assert sorted(looked_up) == [1, 1, 1, 2, 2, 2, 3, 3, 3]
