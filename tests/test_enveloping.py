import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcent.centralizer import BasisIndex, basis_list, structure_constants
from nilcent.composition import Composition, SubComposition, monotone_compositions
from nilcent.enveloping import (
    cdet_mu,
    central_element,
    commutator,
    embed,
    filtration_degree,
    pbw_algebra,
    pbw_from_json_obj,
    pbw_to_json_obj,
    tilde,
    verify_central,
)

from conftest import pbw_elements

LAM12 = Composition((1, 2))
LAM11 = Composition((1, 1))


def words(a):
    """Terms of a PbwElement keyed by tuples of BasisIndex."""
    return dict(a.index_terms())


class TestBasicElements:
    def test_embed_and_scalar(self):
        alg = pbw_algebra(LAM12)
        one = alg.one()
        assert words(one) == {(): 1}
        x = embed(LAM12, (1, 1, 0))
        assert words(x) == {(BasisIndex(1, 1, 0),): 1}
        two_terms = x + embed(LAM12, (2, 2, 1))
        assert len(two_terms.terms) == 2

    def test_embed_inadmissible_raises(self):
        with pytest.raises(ValueError):
            embed(LAM12, (1, 2, 0))

    def test_tilde_examples(self):
        assert tilde(LAM12, (1, 1, 0)) == embed(LAM12, (1, 1, 0))
        shifted = tilde(LAM12, (2, 2, 0))
        assert shifted == embed(LAM12, (2, 2, 0)) - 2
        assert tilde(LAM12, (1, 2, 1)) == embed(LAM12, (1, 2, 1))

    def test_mixed_contexts_raise(self):
        a = embed(LAM12, (1, 1, 0))
        b = embed(LAM11, (1, 1, 0))
        with pytest.raises(ValueError):
            a + b
        with pytest.raises(ValueError):
            a * b


class TestMultiplication:
    def test_gl2_rewrite_example(self):
        prod = embed(LAM11, (2, 1, 0)) * embed(LAM11, (1, 2, 0))
        assert words(prod) == {
            (BasisIndex(1, 2, 0), BasisIndex(2, 1, 0)): 1,
            (BasisIndex(2, 2, 0),): 1,
            (BasisIndex(1, 1, 0),): -1,
        }

    @given(pbw_elements(LAM12))
    def test_unit_laws(self, a):
        alg = pbw_algebra(LAM12)
        assert alg.one() * a == a
        assert a * alg.one() == a
        assert (alg.zero() * a).is_zero()
        assert 1 * a == a and a * 1 == a

    @pytest.mark.parametrize("lam", [LAM11, LAM12, Composition((2, 2))])
    @settings(max_examples=40)
    @given(data=st.data())
    def test_associativity_and_distributivity(self, lam, data):
        a = data.draw(pbw_elements(lam))
        b = data.draw(pbw_elements(lam))
        c = data.draw(pbw_elements(lam))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c

    def test_pbw_soundness_exhaustive(self):
        """Generator products reproduce the tabulated bracket, N <= 6."""
        for total in range(1, 7):
            for lam in monotone_compositions(total):
                alg = pbw_algebra(lam)
                sc = structure_constants(lam)
                basis = basis_list(lam)
                for x, y in itertools.product(basis, repeat=2):
                    lhs = alg.embed(x) * alg.embed(y) - alg.embed(y) * alg.embed(x)
                    rhs = alg.zero()
                    for z, c in sc.bracket(x, y):
                        rhs = rhs + c * alg.embed(z)
                    assert lhs == rhs


class TestCommutator:
    def test_example(self):
        got = commutator(embed(LAM12, (1, 1, 0)), embed(LAM12, (1, 2, 1)))
        assert got == embed(LAM12, (1, 2, 1))

    @pytest.mark.parametrize("lam", [LAM12, Composition((2, 2))])
    @settings(max_examples=40)
    @given(data=st.data())
    def test_matches_defining_formula(self, lam, data):
        """The linear fast path must agree with a*b - b*a exactly."""
        a = data.draw(pbw_elements(lam))
        b = data.draw(pbw_elements(lam))
        assert commutator(a, b) == a * b - b * a
        assert commutator(a, b) == -commutator(b, a)
        assert commutator(a, a).is_zero()

    def test_scalar_commutes(self):
        alg = pbw_algebra(LAM12)
        assert commutator(embed(LAM12, (2, 1, 0)), alg.scalar(7)).is_zero()


class TestCdet:
    def test_single_entry_example(self):
        got = cdet_mu(LAM12, SubComposition(LAM12, (0, 1)))
        assert got == embed(LAM12, (2, 2, 0)) - 2

    def test_two_by_two_example(self):
        got = cdet_mu(LAM12, SubComposition(LAM12, (1, 2)))
        assert words(got) == {
            (BasisIndex(1, 1, 0), BasisIndex(2, 2, 1)): 1,
            (BasisIndex(1, 2, 1), BasisIndex(2, 1, 0)): -1,
            (BasisIndex(2, 2, 1),): -1,
        }

    def test_single_block(self):
        lam = Composition((5,))
        got = cdet_mu(lam, SubComposition(lam, (3,)))
        assert got == embed(lam, (1, 1, 2))

    def test_rejects_non_minimal_mu(self):
        with pytest.raises(ValueError):
            cdet_mu(LAM12, SubComposition(LAM12, (1, 1)))


class TestCentralElements:
    def test_weight_one_example(self):
        z1 = central_element(LAM12, 1)
        assert words(z1) == {
            (BasisIndex(1, 1, 0),): 1,
            (BasisIndex(2, 2, 0),): 1,
            (): -2,
        }

    def test_single_block_tower(self):
        lam = Composition((6,))
        for r in range(1, 7):
            assert central_element(lam, r) == embed(lam, (1, 1, r - 1))

    def test_capelli_two_by_two(self):
        z2 = central_element(LAM11, 2)
        assert words(z2) == {
            (BasisIndex(1, 1, 0), BasisIndex(2, 2, 0)): 1,
            (BasisIndex(1, 2, 0), BasisIndex(2, 1, 0)): -1,
            (BasisIndex(2, 2, 0),): -1,
        }

    def test_out_of_range(self):
        for r in (0, 4):
            with pytest.raises(ValueError):
                central_element(LAM12, r)

    def test_filtration_degrees(self):
        assert filtration_degree(central_element(LAM12, 1)) == 1
        assert filtration_degree(central_element(LAM11, 2)) == 2
        alg = pbw_algebra(LAM12)
        assert filtration_degree(alg.scalar(5)) == 0
        with pytest.raises(ValueError):
            filtration_degree(alg.zero())

    def test_verify_central_small(self):
        for lam in (LAM12, Composition((2, 3)), Composition((4,))):
            for r in range(1, lam.N + 1):
                rep = verify_central(lam, r)
                assert rep.ok
                assert len(rep.checks) == len(basis_list(lam))


class TestSerialization:
    @given(pbw_elements(LAM12))
    def test_json_round_trip(self, a):
        obj = pbw_to_json_obj(a)
        assert obj["schema"] == 1
        text = json.dumps(obj)
        assert pbw_from_json_obj(json.loads(text)) == a

    def test_coefficient_strings(self):
        from fractions import Fraction
        alg = pbw_algebra(LAM12)
        a = embed(LAM12, (1, 1, 0)) * Fraction(-3, 2)
        obj = pbw_to_json_obj(a)
        assert obj["terms"][0]["coeff"] == "-3/2"
        assert pbw_from_json_obj(obj) == a

    def test_repr_frozen(self):
        z3 = central_element(LAM12, 3)
        assert repr(z3) == (
            "e[1,1;0]*e[2,2;1] - e[1,2;1]*e[2,1;0] - e[2,2;1]")
