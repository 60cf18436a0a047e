import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcent import invariants
from nilcent.centralizer import (BasisIndex, WordLimitError, adjoint_images,
                                 basis_list, structure_constants)
from nilcent.composition import Composition, invariant_degrees, monotone_compositions
from nilcent.enveloping import central_element, pbw_algebra
from nilcent.invariants import (
    Polynomial,
    elementary_invariant,
    poly_to_json_obj,
    top_symbol,
    verify_invariant,
)

from conftest import compositions, embed, pbw_elements, polynomials
from oracles import (
    DualIndex,
    adjoint_action,
    bracket,
    coadjoint_action,
    dual_index_or_none,
    evaluate,
    invariant_report_all_labels,
    pairing_consistency,
    partial,
)

LAM12 = Composition((1, 2))
LAM11 = Composition((1, 1))

E110 = BasisIndex(1, 1, 0)
E220 = BasisIndex(2, 2, 0)
E221 = BasisIndex(2, 2, 1)
E121 = BasisIndex(1, 2, 1)
E210 = BasisIndex(2, 1, 0)


def var(i, j, r):
    return Polynomial.variable(BasisIndex(i, j, r))


def ad(lam, p):
    """ad e_idx . p keyed by idx, for every basis label, by the
    per-position oracle."""
    return {x: adjoint_action(lam, x, p) for x in basis_list(lam)}


class TestPolynomial:
    def test_constructors(self):
        assert not Polynomial({})
        assert not (Polynomial({}) + 0)
        p = var(1, 1, 0)
        assert p.terms == {(E110,): 1}
        assert (Polynomial({}) + 3).terms == {(): 3}

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
        assert a - a == Polynomial({})

    def test_evaluate_and_partial(self):
        p = var(1, 1, 0) * var(1, 1, 0) + 3 * var(2, 2, 1)
        point = {E110: 5, E221: -1}
        assert evaluate(p, point) == 22
        assert partial(p, E110) == 2 * var(1, 1, 0)
        assert partial(p, E221) == Polynomial({}) + 3
        assert not partial(p, E210)

    def test_repr_groups_exponents(self):
        p = var(1, 1, 0) * var(1, 1, 0)
        assert repr(p) == "e[1,1;0]^2"


class TestTopSymbol:
    def test_zero_raises(self):
        with pytest.raises(ValueError):
            top_symbol(pbw_algebra(LAM12).scalar(0))

    def test_scalar(self):
        assert top_symbol(pbw_algebra(LAM12).scalar(4)) == Polynomial({}) + 4

    def test_drops_lower_terms(self):
        a = embed(LAM12, E121) * embed(LAM12, E210) + 5 * embed(LAM12, E110) - 7
        assert top_symbol(a) == var(1, 2, 1) * var(2, 1, 0)

    @settings(max_examples=30)
    @given(a=pbw_elements(LAM12), b=pbw_elements(LAM12))
    def test_multiplicative(self, a, b):
        if not a or not b:
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
        """Every monomial of x_r has d_r factors and Kazhdan degree r,
        e[i,j;s] counting s + 1, on every monotone lam with N <= 6."""
        monomials = 0
        for total in range(1, 7):
            for lam in monotone_compositions(total):
                degrees = invariant_degrees(lam)
                for r in range(1, total + 1):
                    for mono in elementary_invariant(lam, r).terms:
                        assert len(mono) == degrees[r - 1]
                        assert sum(v.r + 1 for v in mono) == r, (lam, r, mono)
                        monomials += 1
        assert monomials == 3589


class TestAdjointAction:
    def test_kills_constants(self):
        assert not ad(LAM12, Polynomial({}) + 9)[E121]

    def test_single_variable(self):
        got = ad(LAM11, var(2, 1, 0))[BasisIndex(1, 2, 0)]
        assert got == var(1, 1, 0) - var(2, 2, 0)

    def test_trace_is_invariant(self):
        trace = var(1, 1, 0) + var(2, 2, 0)
        got = ad(LAM11, trace)
        assert tuple(got) == basis_list(LAM11)
        assert all(not q for q in got.values())

    def test_inadmissible_raises(self):
        with pytest.raises(KeyError):
            ad(LAM12, var(1, 1, 0))[BasisIndex(1, 2, 0)]

    @settings(max_examples=30)
    @given(p=polynomials(LAM12), q=polynomials(LAM12))
    def test_leibniz(self, p, q):
        ad_p, ad_q, ad_pq = ad(LAM12, p), ad(LAM12, q), ad(LAM12, p * q)
        for x in basis_list(LAM12):
            assert ad_pq[x] == ad_p[x] * q + p * ad_q[x]

    def test_lie_action_on_variables(self):
        """ad[x,y] agrees with ad x ad y - ad y ad x, exhaustively for N <= 4."""
        for total in range(1, 5):
            for lam in monotone_compositions(total):
                basis = basis_list(lam)
                for v in basis:
                    once = ad(lam, Polynomial.variable(v))
                    twice = {y: ad(lam, q) for y, q in once.items()}
                    for x, y in itertools.product(basis, repeat=2):
                        lhs = Polynomial({})
                        for z, c in bracket(lam, x, y):
                            lhs = lhs + c * once[z]
                        assert lhs == twice[y][x] - twice[x][y]

    @settings(max_examples=30)
    @given(data=st.data())
    def test_matches_per_position_oracle(self, data):
        lam = data.draw(compositions())
        p = data.draw(polynomials(lam, max_degree=3))
        sc = structure_constants(lam)
        words = {bytes(sc.index_of[v] for v in mono): c
                 for mono, c in p.terms.items()}
        images = adjoint_images(lam, words, range(len(sc.basis)),
                                invariants._sorted_insert)
        for x, terms in images:
            q = Polynomial({tuple(sc.basis[t] for t in w): c
                            for w, c in terms.items()})
            assert q == adjoint_action(lam, x, p)

    def test_walk_needs_a_byte_per_position(self):
        """1^17 has dim g_e = 289 > 256: the walk stops before its words."""
        with pytest.raises(WordLimitError, match="dim g_e = 289"):
            verify_invariant(Composition((1,) * 17), 1)

    def test_verify_invariant_small(self):
        for lam in (LAM12, LAM11, Composition((3,)), Composition((2, 2))):
            for r in range(1, lam.N + 1):
                rep = verify_invariant(lam, r)
                assert rep.ok
                assert len(rep.checks) == len(basis_list(lam))

    def test_failed_check_names_a_witness(self, monkeypatch):
        real = invariants.elementary_invariant
        planted = 2 * var(1, 1, 0) * var(1, 2, 1)
        monkeypatch.setattr(invariants, "elementary_invariant",
                            lambda lam, r: real(lam, r) + planted)
        rep = verify_invariant(LAM12, 2)
        assert not rep.ok
        details = {c.name: c.detail for c in rep.failures()}
        assert details["ad e[2,1;0] kills x_2"] == (
            "residual has 2 terms, leading 2*e[1,1;0]*e[2,2;1]")
        first = rep.failures()[0]
        assert (first.name, first.detail) == (
            "ad e[1,1;0] kills x_2",
            "residual has 1 terms, leading 2*e[1,1;0]*e[1,2;1]")

    def test_generator_walk_matches_all_labels(self):
        """Passing rows deduced from lie_generators are the rows the walk
        over every label gives."""
        for total in range(1, 7):
            for lam in monotone_compositions(total):
                for r in range(1, lam.N + 1):
                    assert (verify_invariant(lam, r)
                            == invariant_report_all_labels(lam, r))

    @pytest.mark.parametrize("parts", [(1, 1, 1), (2, 2), (3, 2, 1)])
    def test_planted_noninvariant_fails_as_all_labels(self, monkeypatch, parts):
        """x_r + e[1,2;0] fails with the rows and witnesses of the walk
        over every label."""
        lam = Composition(parts)
        real = invariants.elementary_invariant
        monkeypatch.setattr(invariants, "elementary_invariant",
                            lambda lam, r: real(lam, r) + var(1, 2, 0))
        for r in range(1, lam.N + 1):
            rep = verify_invariant(lam, r)
            assert not rep.ok
            assert rep == invariant_report_all_labels(lam, r)


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
