import itertools
import random

import pytest
from hypothesis import given, settings

from nilcent.centralizer import BasisIndex
from nilcent.composition import Composition, monotone_compositions
from nilcent.enveloping import central_element, embed, pbw_algebra
from nilcent.freealg import (
    FreeElement,
    TSymbol,
    UPolynomial,
    binomial_z_expansion,
    column_determinant,
    expansion_identity,
    left_minor_cdets,
    loop_weight,
    substitute_word,
    t_entry_polynomial,
    t_symbol,
    verify_graded_image,
    verify_left_minor_vanishing,
    z_polynomial,
)
from nilcent.linalg import perm_sign

from conftest import free_elements

LAM12 = Composition((1, 2))
LAM11 = Composition((1, 1))


def T(i, j, s):
    return FreeElement.letter(TSymbol(i, j, s))


def letter(x):
    return FreeElement.letter(x)


class TestFreeElement:
    @settings(max_examples=40)
    @given(a=free_elements(), b=free_elements(), c=free_elements())
    def test_ring_laws(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert a - a == FreeElement.zero()
        one = FreeElement.scalar(1)
        assert one * a == a and a * one == a

    def test_noncommutative(self):
        a, b = letter("a"), letter("b")
        assert a * b != b * a
        assert (a * b - b * a).terms == {("a", "b"): 1, ("b", "a"): -1}

    def test_repr(self):
        assert repr(T(1, 2, 2)) == "T[1,2;2]"
        assert repr(letter("a") * letter("b") - 3) == "a*b - 3"
        assert repr(FreeElement.zero()) == "0"


class TestColumnDeterminant:
    def test_one_by_one(self):
        assert column_determinant([[letter("a")]]) == letter("a")

    def test_two_by_two_column_order(self):
        a, b, c, d = (letter(x) for x in "abcd")
        got = column_determinant([[a, b], [c, d]])
        assert got == a * d - c * b

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            column_determinant([[letter("a"), letter("b")]])
        with pytest.raises(ValueError):
            column_determinant([])

    def test_matches_leibniz_on_integers(self):
        rng = random.Random(11)
        for n in (2, 3, 4):
            for _ in range(10):
                m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
                leibniz = sum(
                    perm_sign(p)
                    * __import__("math").prod(m[i][p[i]] for i in range(n))
                    for p in itertools.permutations(range(n))
                )
                assert column_determinant(m) == leibniz
        # free-algebra entries, some zero: the factors of each term must
        # multiply in column order while zero entries prune permutations
        for n in (3, 4):
            for _ in range(5):
                m = [[FreeElement.zero() if rng.random() < 0.3
                      else letter(rng.choice("abc")) * rng.randint(1, 3)
                      + rng.randint(-2, 2)
                      for _ in range(n)] for _ in range(n)]
                leibniz = FreeElement.zero()
                for p in itertools.permutations(range(n)):
                    prod = FreeElement.scalar(perm_sign(p))
                    for col in range(n):
                        prod = prod * m[p[col]][col]
                    leibniz = leibniz + prod
                assert column_determinant(m) == leibniz

    def test_equal_integer_columns_vanish(self):
        m = [[2, 2, 5], [3, 3, -1], [-4, -4, 7]]
        assert column_determinant(m) == 0

    @settings(max_examples=25)
    @given(u=free_elements(), v=free_elements(), w=free_elements(),
           x=free_elements())
    def test_column_linearity(self, u, v, w, x):
        def det(col2):
            return column_determinant([[u, col2[0]], [v, col2[1]]])

        combined = det((3 * w + x, 3 * FreeElement.zero() + FreeElement.zero()))
        assert combined == 3 * det((w, FreeElement.zero())) + det(
            (x, FreeElement.zero()))


class TestTSymbol:
    def test_window_examples(self):
        assert t_symbol(LAM12, 1, 1, 1) == T(1, 1, 1)
        assert t_symbol(LAM12, 1, 2, 1).is_zero()
        assert t_symbol(LAM12, 1, 2, 2) == T(1, 2, 2)
        assert t_symbol(LAM12, 2, 1, 1) == T(2, 1, 1)
        assert t_symbol(LAM12, 2, 1, 2).is_zero()
        assert t_symbol(LAM12, 2, 2, 2) == T(2, 2, 2)
        assert t_symbol(LAM12, 2, 2, 3).is_zero()

    def test_zero_superscript_is_kronecker(self):
        assert t_symbol(LAM12, 1, 1, 0) == FreeElement.scalar(1)
        assert t_symbol(LAM12, 1, 2, 0).is_zero()

    def test_bad_labels_raise(self):
        with pytest.raises(ValueError):
            t_symbol(LAM12, 0, 1, 1)
        with pytest.raises(ValueError):
            t_symbol(LAM12, 1, 3, 1)
        with pytest.raises(ValueError):
            t_symbol(LAM12, 1, 1, -1)


class TestUPolynomial:
    def test_arithmetic(self):
        p = UPolynomial({1: FreeElement.scalar(1), 0: letter("a")})
        q = UPolynomial({1: FreeElement.scalar(1), 0: letter("b")})
        prod = p * q
        assert prod.degree() == 2
        assert prod.coefficient(2) == FreeElement.scalar(1)
        assert prod.coefficient(1) == letter("a") + letter("b")
        assert prod.coefficient(0) == letter("a") * letter("b")
        assert (p + q).coefficient(1) == FreeElement.scalar(2)

    def test_subtraction_and_negation(self):
        p = UPolynomial({1: FreeElement.scalar(1), 0: letter("a")})
        assert p - p == UPolynomial.zero()
        neg = -p
        assert neg.coefficient(1) == FreeElement.scalar(-1)
        assert neg.coefficient(0) == -letter("a")
        assert neg + p == UPolynomial.zero()

    def test_entry_polynomial_frozen(self):
        e11 = t_entry_polynomial(LAM12, 1, 1)
        assert e11.degree() == 1
        assert e11.coefficient(1) == FreeElement.scalar(1)
        assert e11.coefficient(0) == T(1, 1, 1)
        e12 = t_entry_polynomial(LAM12, 1, 2)
        assert e12.degree() == 0
        assert e12.coefficient(0) == T(1, 2, 2)
        e22 = t_entry_polynomial(LAM12, 2, 2)
        assert e22.degree() == 2
        assert e22.coefficient(2) == FreeElement.scalar(1)
        assert e22.coefficient(1) == T(2, 2, 1) - 2
        assert e22.coefficient(0) == -T(2, 2, 1) + T(2, 2, 2) + 1

    def test_top_coefficient_is_kronecker(self):
        for total in range(1, 6):
            for lam in monotone_compositions(total, include_decreasing=False):
                for i in range(1, lam.n + 1):
                    for j in range(1, lam.n + 1):
                        p = t_entry_polynomial(lam, i, j)
                        want = FreeElement.scalar(1 if i == j else 0)
                        assert p.coefficient(lam.part(j)) == want
                        assert p.degree() <= lam.part(j)


class TestZPolynomial:
    def test_single_box(self):
        assert z_polynomial(Composition((1,))) == (T(1, 1, 1),)

    def test_single_block(self):
        lam = Composition((4,))
        assert z_polynomial(lam) == tuple(T(1, 1, r) for r in range(1, 5))

    def test_two_boxes_frozen(self):
        Z1, Z2 = z_polynomial(LAM11)
        assert Z1 == T(1, 1, 1) + T(2, 2, 1) - 1
        assert Z2 == (T(1, 1, 1) * T(2, 2, 1) - T(2, 1, 1) * T(1, 2, 1)
                      - T(1, 1, 1))

    def test_hook_frozen(self):
        Z1, Z2, Z3 = z_polynomial(LAM12)
        assert Z1 == T(1, 1, 1) + T(2, 2, 1) - 2
        assert Z2 == (T(1, 1, 1) * T(2, 2, 1) - 2 * T(1, 1, 1) - T(2, 2, 1)
                      + T(2, 2, 2) + 1)
        assert Z3 == (-T(1, 1, 1) * T(2, 2, 1) + T(1, 1, 1) * T(2, 2, 2)
                      - T(2, 1, 1) * T(1, 2, 2) + T(1, 1, 1))

    def test_decreasing_raises(self):
        with pytest.raises(ValueError):
            z_polynomial(Composition((2, 1)))


class TestExpansion:
    def test_loop_weight(self):
        assert loop_weight(()) == 0
        assert loop_weight((TSymbol(1, 1, 1),)) == 0
        assert loop_weight((TSymbol(2, 2, 2),)) == 1
        assert loop_weight((TSymbol(1, 1, 1), TSymbol(2, 2, 3))) == 2

    def test_hook_expansion_matches(self):
        for r in (1, 2, 3):
            assert binomial_z_expansion(LAM12, r) == z_polynomial(LAM12)[r - 1]

    def test_identity_small(self):
        for total in range(1, 5):
            for lam in monotone_compositions(total, include_decreasing=False):
                for r in range(1, total + 1):
                    rep = expansion_identity(lam, r)
                    assert rep.ok, rep.failures()

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            binomial_z_expansion(LAM12, 4)
        with pytest.raises(ValueError):
            binomial_z_expansion(Composition((2, 1)), 1)


class TestGradedImage:
    def test_substitution_signs(self):
        assert substitute_word(LAM12, (TSymbol(1, 1, 1),)) == embed(
            LAM12, (1, 1, 0))
        assert substitute_word(LAM12, (TSymbol(2, 2, 2),)) == -embed(
            LAM12, (2, 2, 1))
        got = substitute_word(LAM12, (TSymbol(1, 1, 1), TSymbol(2, 1, 1)))
        assert got == embed(LAM12, (1, 1, 0)) * embed(LAM12, (2, 1, 0))

    def test_single_block(self):
        lam = Composition((4,))
        for r in range(1, 5):
            rep = verify_graded_image(lam, r)
            assert rep.ok, rep.failures()

    def test_capelli_sign_positive(self):
        rep = verify_graded_image(LAM11, 2)
        assert rep.ok
        Z2 = z_polynomial(LAM11)[1]
        image = pbw_algebra(LAM11).zero()
        for word, c in Z2.terms.items():
            if loop_weight(word) == 0:
                image = image + c * substitute_word(LAM11, word)
        assert image == central_element(LAM11, 2)

    def test_hook_top_weight(self):
        rep = verify_graded_image(LAM12, 3)
        assert rep.ok, rep.failures()
        Z3 = z_polynomial(LAM12)[2]
        image = pbw_algebra(LAM12).zero()
        for word, c in Z3.terms.items():
            if loop_weight(word) == 1:
                image = image + c * substitute_word(LAM12, word)
        assert image == -central_element(LAM12, 3)

    def test_small_sweep(self):
        for total in range(1, 5):
            for lam in monotone_compositions(total, include_decreasing=False):
                for r in range(1, total + 1):
                    rep = verify_graded_image(lam, r)
                    assert rep.ok, rep.failures()


class TestLeftMinorVanishing:
    def test_zero_first_column(self):
        z = FreeElement.zero()
        a, b, c, d = (letter(x) for x in "abcd")
        m = [[z, a, b], [z, c, d], [z, a, c]]
        assert all(det.is_zero() for _, det in left_minor_cdets(m, 1))
        assert column_determinant(m).is_zero()

    def test_dependent_single_letter_columns(self):
        """Column 2 = column 1 times x; powers of one letter commute."""
        x = letter("x")
        one = FreeElement.scalar(1)
        col1 = [one + x, x * x, 2 * x - 1]
        rest = [letter("a"), letter("b"), letter("c")]
        m = [[col1[i], col1[i] * x, rest[i]] for i in range(3)]
        assert all(det.is_zero() for _, det in left_minor_cdets(m, 2))
        assert column_determinant(m).is_zero()

    def test_distinct_letters_break_hypothesis(self):
        """With noncommuting first columns the minors no longer vanish."""
        a, b, t = letter("a"), letter("b"), letter("t")
        m = [[a, a * t, letter("c")],
             [b, b * t, letter("d")],
             [a + b, (a + b) * t, letter("e")]]
        dets = dict(left_minor_cdets(m, 2))
        assert dets[(0, 1)] == a * b * t - b * a * t
        assert not dets[(0, 1)].is_zero()

    def test_randomized_trials(self):
        for n in (2, 3, 4):
            rep = verify_left_minor_vanishing(n, trials=25, seed=0)
            assert rep.ok, rep.failures()
            assert len(rep.checks) == 25

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            verify_left_minor_vanishing(1, trials=1, seed=0)
