"""Scalar coercion, mixed products and the one multiply-accumulate on
every SparseElement subclass."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcent.centralizer import BasisIndex, UnitMatrix
from nilcent.composition import Composition
from nilcent.enveloping import pbw_algebra
from nilcent.freealg import FreeElement, UPolynomial
from nilcent.invariants import Polynomial
from nilcent.linalg import accumulate

from conftest import free_elements, pbw_elements, polynomials
from oracles import pairwise_product

LAM12 = Composition((1, 2))
LAM112 = Composition((1, 1, 2))


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


def larger_and_smaller():
    """(name, p, q) of one ring, p with more terms than q, sharing a
    monomial that cancels in p + q."""
    a, b = FreeElement.letter("a"), FreeElement.letter("b")
    alg = pbw_algebra(LAM112)
    x, y = alg.embed((1, 3, 1)), alg.embed((3, 1, 0))
    u, v = (Polynomial.variable(BasisIndex(1, 1, 0)),
            Polynomial.variable(BasisIndex(3, 3, 1)))
    return [
        ("free", a * b + b + 2, -b),
        ("pbw", x * y + y + 2, -y),
        ("polynomial", u * v + v + 2, -v),
        ("upolynomial", UPolynomial({(1, ()): 1, (0, ("a",)): 1, (2, ()): 3}),
         UPolynomial({(1, ()): -1})),
        ("unit_matrix", UnitMatrix({(1, 2): 1, (2, 3): 1, (1, 1): 2}),
         UnitMatrix({(1, 2): -1})),
    ]


@pytest.mark.parametrize("p,q", [c[1:] for c in larger_and_smaller()],
                         ids=[c[0] for c in larger_and_smaller()])
def test_sum_leaves_its_operands_unchanged(p, q):
    assert len(p.terms) > len(q.terms)
    p_terms, q_terms = dict(p.terms), dict(q.terms)
    expected = accumulate(accumulate({}, p_terms.items()), q_terms.items())
    assert not expected.keys() & q_terms.keys()
    for total in (p + q, q + p):
        assert total.terms == expected
        assert p.terms == p_terms and q.terms == q_terms


def upolynomials():
    """Random polynomials in u over words in two letters."""
    word = st.lists(st.sampled_from("ab"), max_size=2).map(tuple)
    terms = st.dictionaries(st.tuples(st.integers(0, 2), word),
                            st.integers(-3, 3).filter(bool), max_size=3)
    return terms.map(UPolynomial)


RINGS = {
    "free": free_elements,
    "pbw": lambda: pbw_elements(LAM112),
    "polynomial": lambda: polynomials(LAM112),
    "upolynomial": upolynomials,
}


def cancelling_factors():
    """(name, p, q) of one ring whose products p*q and q*p share a
    monomial, so that in (p + q) * (p - q) it cancels; in the enveloping
    algebra the bracket [q, p] is left."""
    alg = pbw_algebra(LAM112)
    return [
        ("free", FreeElement.letter("a"), FreeElement({(): 1})),
        ("pbw", alg.embed((1, 3, 1)), alg.embed((3, 1, 0))),
        ("polynomial", Polynomial.variable(BasisIndex(1, 1, 0)),
         Polynomial.variable(BasisIndex(3, 3, 1))),
        ("upolynomial", UPolynomial({(1, ()): 1}),
         UPolynomial({(0, ("a",)): 1})),
    ]


def assert_matches_pairwise(a, b):
    got = a * b
    assert got.terms == pairwise_product(a, b).terms
    assert 0 not in got.terms.values()


@pytest.mark.parametrize("ring", RINGS)
@settings(max_examples=40)
@given(data=st.data())
def test_product_matches_the_pairwise_loop(ring, data):
    a, b = data.draw(RINGS[ring]()), data.draw(RINGS[ring]())
    assert_matches_pairwise(a, b)
    assert_matches_pairwise(a * 3 + b, b - Fraction(1, 2))


@pytest.mark.parametrize("p,q", [c[1:] for c in cancelling_factors()],
                         ids=[c[0] for c in cancelling_factors()])
def test_cancelled_terms_leave_no_zero(p, q):
    assert_matches_pairwise(p + q, p - q)
    shared = (p * q).terms.keys() & (q * p).terms.keys()
    assert shared and not shared & ((p + q) * (p - q)).terms.keys()
    assert (p + q) * (p - q) == p * p - q * q + (q * p - p * q)
