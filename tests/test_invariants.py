import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcent.centralizer import BasisIndex, basis_list
from nilcent.composition import Composition, invariant_degrees, monotone_compositions
from nilcent.enveloping import central_element, embed, pbw_algebra
from nilcent.invariants import (
    Polynomial,
    adjoint_action,
    elementary_invariant,
    poly_to_json_obj,
    top_symbol,
    verify_invariant,
)

from conftest import pbw_elements, polynomials
from oracles import DualIndex, coadjoint_action, dual_index_or_none, pairing_consistency

LAM12 = Composition((1, 2))
LAM11 = Composition((1, 1))

E110 = BasisIndex(1, 1, 0)
E220 = BasisIndex(2, 2, 0)
E221 = BasisIndex(2, 2, 1)
E121 = BasisIndex(1, 2, 1)
E210 = BasisIndex(2, 1, 0)


def var(i, j, r):
    return Polynomial.variable(BasisIndex(i, j, r))


class TestPolynomial:
    def test_constructors(self):
        assert Polynomial.zero().is_zero()
        assert Polynomial.constant(0).is_zero()
        p = var(1, 1, 0)
        assert p.degree() == 1
        assert p.coefficient((E110,)) == 1
        assert Polynomial.constant(3).degree() == 0

    @pytest.mark.parametrize("lam", [LAM12])
    @settings(max_examples=40)
    @given(data=st.data())
    def test_ring_laws(self, lam, data):
        a = data.draw(polynomials(lam))
        b = data.draw(polynomials(lam))
        c = data.draw(polynomials(lam))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == Polynomial.zero()

    def test_evaluate_and_partial(self):
        p = var(1, 1, 0) * var(1, 1, 0) + 3 * var(2, 2, 1)
        point = {E110: 5, E221: -1}
        assert p.evaluate(point) == 22
        assert p.partial(E110) == 2 * var(1, 1, 0)
        assert p.partial(E221) == Polynomial.constant(3)
        assert p.partial(E210).is_zero()

    def test_repr_groups_exponents(self):
        p = var(1, 1, 0) * var(1, 1, 0)
        assert repr(p) == "e[1,1;0]^2"


class TestTopSymbol:
    def test_zero_raises(self):
        with pytest.raises(ValueError):
            top_symbol(pbw_algebra(LAM12).zero())

    def test_scalar(self):
        assert top_symbol(pbw_algebra(LAM12).scalar(4)) == Polynomial.constant(4)

    def test_drops_lower_terms(self):
        a = embed(LAM12, E121) * embed(LAM12, E210) + 5 * embed(LAM12, E110) - 7
        assert top_symbol(a) == var(1, 2, 1) * var(2, 1, 0)

    @settings(max_examples=30)
    @given(a=pbw_elements(LAM12), b=pbw_elements(LAM12))
    def test_multiplicative(self, a, b):
        if a.is_zero() or b.is_zero():
            return
        assert top_symbol(a * b) == top_symbol(a) * top_symbol(b)


class TestElementaryInvariants:
    def test_hook_top_weight(self):
        x3 = elementary_invariant(LAM12, 3)
        assert x3.terms == {
            (E110, E221): 1,
            (E121, E210): -1,
        }

    def test_hook_weight_two(self):
        assert elementary_invariant(LAM12, 2) == var(2, 2, 1)

    def test_hook_weight_one(self):
        assert elementary_invariant(LAM12, 1) == var(1, 1, 0) + var(2, 2, 0)

    def test_single_block(self):
        lam = Composition((5,))
        for r in range(1, 6):
            assert elementary_invariant(lam, r) == var(1, 1, r - 1)

    def test_matches_top_symbols(self):
        for total in range(1, 5):
            for lam in monotone_compositions(total):
                for r in range(1, total + 1):
                    z = central_element(lam, r)
                    assert top_symbol(z) == elementary_invariant(lam, r)

    def test_homogeneity(self):
        """Every monomial of x_r has d_r factors of total loop weight r - d_r."""
        for total in range(1, 6):
            for lam in monotone_compositions(total):
                degrees = invariant_degrees(lam)
                for r in range(1, total + 1):
                    d = degrees[r - 1]
                    for mono in elementary_invariant(lam, r).terms:
                        assert len(mono) == d
                        assert sum(v.r for v in mono) == r - d


class TestAdjointAction:
    def test_kills_constants(self):
        assert adjoint_action(LAM12, E121, Polynomial.constant(9)).is_zero()

    def test_single_variable(self):
        got = adjoint_action(LAM11, BasisIndex(1, 2, 0), var(2, 1, 0))
        assert got == var(1, 1, 0) - var(2, 2, 0)

    def test_trace_is_invariant(self):
        trace = var(1, 1, 0) + var(2, 2, 0)
        for x in basis_list(LAM11):
            assert adjoint_action(LAM11, x, trace).is_zero()

    def test_inadmissible_raises(self):
        with pytest.raises(ValueError):
            adjoint_action(LAM12, BasisIndex(1, 2, 0), var(1, 1, 0))

    @settings(max_examples=30)
    @given(p=polynomials(LAM12), q=polynomials(LAM12))
    def test_leibniz(self, p, q):
        x = E121
        lhs = adjoint_action(LAM12, x, p * q)
        rhs = adjoint_action(LAM12, x, p) * q + p * adjoint_action(LAM12, x, q)
        assert lhs == rhs

    def test_lie_action_on_variables(self):
        """ad[x,y] agrees with ad x ad y - ad y ad x, exhaustively for N <= 4."""
        from nilcent.centralizer import structure_constants

        for total in range(1, 5):
            for lam in monotone_compositions(total):
                sc = structure_constants(lam)
                basis = basis_list(lam)
                for x, y in itertools.product(basis, repeat=2):
                    for v in basis:
                        p = Polynomial.variable(v)
                        lhs = Polynomial.zero()
                        for z, c in sc.bracket(x, y):
                            lhs = lhs + c * adjoint_action(lam, z, p)
                        rhs = adjoint_action(
                            lam, x, adjoint_action(lam, y, p)
                        ) - adjoint_action(lam, y, adjoint_action(lam, x, p))
                        assert lhs == rhs

    def test_verify_invariant_small(self):
        for lam in (LAM12, LAM11, Composition((3,)), Composition((2, 2))):
            for r in range(1, lam.N + 1):
                rep = verify_invariant(lam, r)
                assert rep.ok
                assert len(rep.checks) == len(basis_list(lam))


class TestCoadjointAction:
    def test_window_constructor(self):
        assert dual_index_or_none(LAM12, 1, 1, 0) == DualIndex(1, 1, 0)
        assert dual_index_or_none(LAM12, 2, 2, 1) == DualIndex(2, 2, 1)
        assert dual_index_or_none(LAM12, 1, 2, 0) is None
        assert dual_index_or_none(LAM12, 1, 1, 1) is None
        assert dual_index_or_none(LAM12, 2, 1, -1) is None

    def test_diagonal_pair(self):
        got = coadjoint_action(LAM12, E121, DualIndex(1, 2, 1))
        assert got == {DualIndex(1, 1, 0): 1, DualIndex(2, 2, 0): -1}

    def test_disjoint_rows_annihilate(self):
        got = coadjoint_action(LAM11, BasisIndex(1, 2, 0), DualIndex(1, 1, 0))
        assert got == {DualIndex(2, 1, 0): -1}
        got = coadjoint_action(LAM12, E121, DualIndex(2, 2, 1))
        assert got == {DualIndex(2, 1, 0): 1}
        got = coadjoint_action(LAM12, E210, DualIndex(2, 2, 1))
        assert got == {DualIndex(1, 2, 1): -1}

    def test_lowered_off_window(self):
        assert coadjoint_action(LAM12, E210, DualIndex(2, 2, 0)) == {}

    def test_off_window_input_is_zero(self):
        assert coadjoint_action(LAM12, E121, DualIndex(1, 2, 0)) == {}

    def test_inadmissible_generator_raises(self):
        with pytest.raises(ValueError):
            coadjoint_action(LAM12, BasisIndex(1, 2, 0), DualIndex(1, 1, 0))

    def test_pairing_exhaustive(self):
        for total in range(1, 5):
            for lam in monotone_compositions(total):
                rep = pairing_consistency(lam)
                assert rep.ok, rep.failures()


class TestSerialization:
    def test_exponent_form(self):
        p = var(1, 1, 0) * var(1, 1, 0) * var(2, 2, 1)
        obj = poly_to_json_obj(LAM12, p)
        assert obj["terms"] == [
            {"monomial": [[[1, 1, 0], 2], [[2, 2, 1], 1]], "coeff": "1"}
        ]
