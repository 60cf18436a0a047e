import random

import pytest
from hypothesis import given, settings

from nilcent import slice as slice_module
from nilcent.centralizer import BasisIndex, basis_list
from nilcent.composition import Composition, monotone_compositions
from nilcent.invariants import Polynomial, elementary_invariant
from nilcent.linalg import rational_rank
from nilcent.slice import (
    PVar,
    base_point,
    expected_restriction,
    jacobian_independence,
    restrict,
    slice_coordinates,
    verify_slice_coordinates,
)

from conftest import polynomials
from oracles import evaluate, evaluate_basis_at_slice, partial

LAM12 = Composition((1, 2))
LAM11 = Composition((1, 1))
LAM23 = Composition((2, 3))


def pvar(j, t):
    return Polynomial.variable(PVar(j, t))


class TestCoordinates:
    def test_inventory(self):
        assert slice_coordinates(LAM12) == (PVar(1, 0), PVar(2, 0), PVar(2, 1))
        assert slice_coordinates(Composition((3,))) == (
            PVar(1, 0), PVar(1, 1), PVar(1, 2))

    def test_decreasing_raises(self):
        with pytest.raises(ValueError):
            slice_coordinates(Composition((2, 1)))


def at_slice(lam, idx):
    """Slice value of one basis label, through restrict."""
    return restrict(lam, Polynomial.variable(BasisIndex(*idx)))


class TestEvaluateBasis:
    def test_bottom_row_gives_coordinate(self):
        assert at_slice(LAM12, (2, 1, 0)) == pvar(1, 0)
        assert at_slice(LAM12, (2, 2, 1)) == pvar(2, 1)

    def test_superdiagonal_gives_one(self):
        assert at_slice(LAM12, (1, 2, 1)) == Polynomial({}) + 1

    def test_everything_else_vanishes(self):
        assert not at_slice(LAM12, (1, 1, 0))
        assert not at_slice(LAM23, (1, 2, 1))
        assert not at_slice(LAM23, (1, 1, 1))

    def test_inadmissible_raises(self):
        with pytest.raises(ValueError, match="inadmissible label"):
            at_slice(LAM12, (1, 2, 0))
        with pytest.raises(ValueError, match="inadmissible label"):
            evaluate_basis_at_slice(LAM12, (1, 2, 0))
        # a letter that vanishes on the slice does not hide a later one
        vanishing, bad = (Polynomial.variable(BasisIndex(*idx))
                          for idx in ((1, 1, 0), (1, 2, 0)))
        with pytest.raises(ValueError, match="inadmissible label"):
            restrict(LAM12, vanishing * bad)

    def test_decreasing_raises(self):
        with pytest.raises(ValueError):
            at_slice(Composition((2, 1)), (1, 1, 0))
        with pytest.raises(ValueError):
            evaluate_basis_at_slice(Composition((2, 1)), (1, 1, 0))

    def test_matches_oracle(self):
        for total in range(1, 8):
            for lam in monotone_compositions(total):
                if lam.is_increasing:
                    for v in basis_list(lam):
                        assert at_slice(lam, v) == evaluate_basis_at_slice(lam, v)


class TestRestrict:
    def test_constants_fixed(self):
        assert restrict(LAM12, Polynomial({}) + 7) == Polynomial({}) + 7
        assert not restrict(LAM12, Polynomial({}))

    def test_invariant_examples(self):
        assert restrict(LAM12, elementary_invariant(LAM12, 1)) == pvar(2, 0)
        assert restrict(LAM12, elementary_invariant(LAM12, 2)) == pvar(2, 1)
        assert restrict(LAM12, elementary_invariant(LAM12, 3)) == -pvar(1, 0)

    def test_single_block(self):
        lam = Composition((4,))
        for r in range(1, 5):
            assert restrict(lam, elementary_invariant(lam, r)) == pvar(1, r - 1)

    @settings(max_examples=30)
    @given(p=polynomials(LAM12), q=polynomials(LAM12))
    def test_algebra_homomorphism(self, p, q):
        assert restrict(LAM12, p * q) == restrict(LAM12, p) * restrict(LAM12, q)
        assert restrict(LAM12, p + q) == restrict(LAM12, p) + restrict(LAM12, q)

    def test_matches_pointwise_evaluation(self):
        """Restricting then evaluating equals substituting slice values."""
        rng = random.Random(3)
        images = {
            v: evaluate_basis_at_slice(LAM23, v) for v in basis_list(LAM23)
        }
        for _ in range(20):
            point = {c: rng.randint(-5, 5) for c in slice_coordinates(LAM23)}
            lifted = {v: evaluate(images[v], point) for v in images}
            for r in range(1, 6):
                p = elementary_invariant(LAM23, r)
                assert evaluate(restrict(LAM23, p), point) == evaluate(p, lifted)


class TestExpectedRestriction:
    def test_examples(self):
        assert expected_restriction(LAM12, 1) == pvar(2, 0)
        assert expected_restriction(LAM12, 2) == pvar(2, 1)
        assert expected_restriction(LAM12, 3) == -pvar(1, 0)
        assert expected_restriction(Composition((5,)), 4) == pvar(1, 3)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            expected_restriction(LAM12, 0)

    def test_verify_small(self):
        for lam in (LAM12, LAM11, LAM23, Composition((1, 1, 1)),
                    Composition((4,))):
            rep = verify_slice_coordinates(lam)
            assert rep.ok, rep.failures()
            assert len(rep.checks) == lam.N + 1

    def test_verify_decreasing_raises(self):
        with pytest.raises(ValueError):
            verify_slice_coordinates(Composition((2, 1)))


def jacobian_detail(lam):
    rep = jacobian_independence(lam)
    assert len(rep.checks) == 1
    return rep.ok, rep.checks[0].detail


class TestBasePoint:
    def test_increasing_is_one_above_the_diagonal(self):
        assert base_point(Composition((1, 2, 2))) == {
            BasisIndex(1, 2, 1): 1, BasisIndex(2, 3, 1): 1}
        assert base_point(Composition((4,))) == {}

    def test_decreasing_is_mirrored(self):
        assert base_point(Composition((3, 2, 1))) == {
            BasisIndex(2, 1, 2): 1, BasisIndex(3, 2, 1): 1}

    def test_labels_are_admissible(self):
        for total in range(1, 7):
            for lam in monotone_compositions(total):
                assert set(base_point(lam)) <= set(basis_list(lam)), lam


class TestJacobian:
    def test_hand_checked_point(self):
        """gl_2 invariants at xi_0 = (e[1,2;0] = 1, rest 0), by direct rows."""
        lam = LAM11
        polys = [elementary_invariant(lam, 1), elementary_invariant(lam, 2)]
        variables = basis_list(lam)
        point = {v: 0 for v in variables}
        point[BasisIndex(1, 2, 0)] = 1
        assert base_point(lam) == {BasisIndex(1, 2, 0): 1}
        matrix = [[evaluate(partial(p, v), point) for v in variables]
                  for p in polys]
        assert matrix == [[1, 0, 0, 1], [0, 0, -1, 0]]
        assert rational_rank([dict(enumerate(row)) for row in matrix]) == 2
        assert jacobian_detail(lam) == (True, "rank 2 of 2")

    def test_rows_match_oracle(self, monkeypatch):
        """The rows handed to rational_rank are the partials of x_1..x_N
        at xi_0, zeros dropped, on every monotone lambda with N <= 6."""
        captured = []

        def capture(rows):
            captured.append(rows)
            return rational_rank(rows)

        monkeypatch.setattr(slice_module, "rational_rank", capture)
        lams = [lam for total in range(1, 7)
                for lam in monotone_compositions(total)]
        assert len(lams) == 44
        for lam in lams:
            captured.clear()
            assert jacobian_detail(lam) == (True, f"rank {lam.N} of {lam.N}")
            point = dict.fromkeys(basis_list(lam), 0) | base_point(lam)
            want = []
            for r in range(1, lam.N + 1):
                x = elementary_invariant(lam, r)
                row = {v: evaluate(partial(x, v), point) for v in point}
                want.append({v: c for v, c in row.items() if c})
            assert captured == [want], lam

    def test_rows_match_oracle_on_planted_polynomials(self, monkeypatch):
        """Terms no x_r has reach every branch of the one-pass rows: a
        squared base-point letter, a constant, a term with two letters
        off the base point, and a square of one off it."""
        b, v, w = (Polynomial.variable(BasisIndex(*idx))
                   for idx in ((1, 2, 1), (1, 1, 0), (2, 2, 1)))
        planted = (3 * b * b + v, b * b * v - b * v * w + 2 * b, v * v + w + 5)
        captured = []
        monkeypatch.setattr(slice_module, "elementary_invariant",
                            lambda lam, r: planted[r - 1])
        monkeypatch.setattr(slice_module, "rational_rank",
                            lambda rows: captured.append(rows) or 0)
        jacobian_independence(LAM12)
        point = dict.fromkeys(basis_list(LAM12), 0) | base_point(LAM12)
        want = [{u: c for u in point if (c := evaluate(partial(x, u), point))}
                for x in planted]
        B, V, W = BasisIndex(1, 2, 1), BasisIndex(1, 1, 0), BasisIndex(2, 2, 1)
        assert want == [{B: 6, V: 1}, {V: 1, B: 2}, {W: 1}]
        assert captured == [want]

    def test_certified_small(self):
        for lam in (LAM11, LAM12, Composition((3,)), Composition((2, 1))):
            assert jacobian_detail(lam) == (True, f"rank {lam.N} of {lam.N}")

    def test_dependent_rows_not_certified(self, monkeypatch):
        x1 = elementary_invariant(LAM11, 1)
        monkeypatch.setattr(slice_module, "elementary_invariant", lambda lam, r: x1)
        assert jacobian_detail(LAM11) == (False, "rank 1 of 2")

    def test_frozen_certificate(self):
        rep = jacobian_independence(LAM23)
        assert rep.to_json_obj() == {
            "subject": "algebraic independence lambda=2,3",
            "ok": True,
            "checks": [{"name": "Jacobian of x_1..x_5 at the slice base point "
                                "has rank 5",
                        "passed": True, "detail": "rank 5 of 5"}],
        }

    def test_all_zero_point_fails(self, monkeypatch):
        """The check can fail: without the constant 1 the rank drops."""
        assert jacobian_detail(LAM12) == (True, "rank 3 of 3")
        monkeypatch.setattr(slice_module, "base_point", lambda lam: {})
        assert jacobian_detail(LAM12) == (False, "rank 2 of 3")

    def test_full_rank_on_wide_compositions(self):
        """Both orientations of every lambda with <= 3 parts, 8 <= N <= 10."""
        lams = [lam for total in range(8, 11)
                for lam in monotone_compositions(total) if lam.n <= 3]
        assert len(lams) == 66
        assert sum(not lam.is_increasing for lam in lams) > 0
        for lam in lams:
            assert jacobian_detail(lam) == (True, f"rank {lam.N} of {lam.N}"), lam
