import random

import pytest
from hypothesis import given, settings

from nilcent import slice as slice_module
from nilcent.centralizer import BasisIndex, basis_list
from nilcent.composition import Composition
from nilcent.invariants import Polynomial, elementary_invariant
from nilcent.linalg import rational_rank
from nilcent.slice import (
    PVar,
    evaluate_basis_at_slice,
    expected_restriction,
    jacobian_independence,
    restrict,
    slice_coordinates,
    verify_slice_coordinates,
)

from conftest import polynomials

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


class TestEvaluateBasis:
    def test_bottom_row_gives_coordinate(self):
        assert evaluate_basis_at_slice(LAM12, (2, 1, 0)) == pvar(1, 0)
        assert evaluate_basis_at_slice(LAM12, (2, 2, 1)) == pvar(2, 1)

    def test_superdiagonal_gives_one(self):
        assert evaluate_basis_at_slice(LAM12, (1, 2, 1)) == Polynomial.constant(1)

    def test_everything_else_vanishes(self):
        assert evaluate_basis_at_slice(LAM12, (1, 1, 0)).is_zero()
        assert evaluate_basis_at_slice(LAM23, (1, 2, 1)).is_zero()
        assert evaluate_basis_at_slice(LAM23, (1, 1, 1)).is_zero()

    def test_inadmissible_raises(self):
        with pytest.raises(ValueError):
            evaluate_basis_at_slice(LAM12, (1, 2, 0))

    def test_decreasing_raises(self):
        with pytest.raises(ValueError):
            evaluate_basis_at_slice(Composition((2, 1)), (1, 1, 0))


class TestRestrict:
    def test_constants_fixed(self):
        assert restrict(LAM12, Polynomial.constant(7)) == Polynomial.constant(7)
        assert restrict(LAM12, Polynomial.zero()).is_zero()

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
            lifted = {v: images[v].evaluate(point) for v in images}
            for r in range(1, 6):
                p = elementary_invariant(LAM23, r)
                assert restrict(LAM23, p).evaluate(point) == p.evaluate(lifted)


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


class TestJacobian:
    def test_hand_checked_point(self):
        """gl_2 invariants at e[1,1;0]=1, rest 0: rank 2 by direct rows."""
        lam = LAM11
        polys = [elementary_invariant(lam, 1), elementary_invariant(lam, 2)]
        variables = basis_list(lam)
        point = {v: 0 for v in variables}
        point[BasisIndex(1, 1, 0)] = 1
        matrix = [[p.partial(v).evaluate(point) for v in variables]
                  for p in polys]
        assert matrix == [[1, 0, 0, 1], [0, 0, 0, 1]]
        assert rational_rank([dict(enumerate(row)) for row in matrix]) == 2

    def test_certified_small(self):
        for lam in (LAM11, LAM12, Composition((3,))):
            cert = jacobian_independence(lam)
            assert cert.certified
            assert cert.rank == cert.target == lam.N

    def test_dependent_rows_not_certified(self, monkeypatch):
        x1 = elementary_invariant(LAM11, 1)
        monkeypatch.setattr(slice_module, "elementary_invariant", lambda lam, r: x1)
        cert = jacobian_independence(LAM11)
        assert not cert.certified
        assert cert.rank == 1
        assert cert.points_tried == 5
        assert cert.point_index is None

    def test_frozen_certificate(self):
        cert = jacobian_independence(LAM23, seed=0)
        assert cert.certified
        assert cert.rank == 5
        assert cert.target == 5
        assert cert.point_index == 0
        obj = cert.to_json_obj()
        assert obj["schema"] == 1
        assert obj["lambda"] == "2,3"
        assert obj["certified"] is True
