import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nilcent import centralizer, composition
from nilcent.centralizer import (
    BasisIndex,
    UnitMatrix,
    adjoint_images,
    basis_element,
    basis_list,
    is_admissible,
    lie_generators,
    nilpotent_matrix,
    structure_constants,
    unit_support,
    verify_centralizer,
)
from nilcent.composition import Composition, monotone_compositions
from nilcent.enveloping import pbw_algebra
from nilcent.freealg import FreeElement, TSymbol, verify_graded_image
from nilcent.invariants import Polynomial
from nilcent.slice import restrict

from conftest import plant_z
from oracles import (box_position, bracket, expand_in_basis, lie_closure_rank,
                     matrix_commutator)


def all_compositions(max_total):
    for total in range(1, max_total + 1):
        yield from monotone_compositions(total)


def unit_matrix(rows):
    """The sparse form of a dense matrix given as a list of rows."""
    return UnitMatrix({(h, k): v
                       for h, row in enumerate(rows, start=1)
                       for k, v in enumerate(row, start=1) if v})


class TestPyramid:
    def test_decreasing_example(self):
        assert box_position(Composition((4, 3, 2)), 5) == (2, 1)

    def test_small_example(self):
        lam = Composition((1, 2))
        assert [box_position(lam, k) for k in (1, 2, 3)] == [
            (1, 1), (2, 1), (2, 2)]

    def test_single_row(self):
        lam = Composition((5,))
        assert all(box_position(lam, k) == (1, k) for k in range(1, 6))

    def test_row_col_pair_injective(self):
        for lam in all_compositions(6):
            pairs = {box_position(lam, k) for k in range(1, lam.N + 1)}
            assert len(pairs) == lam.N


class TestNilpotent:
    def test_decreasing_example(self):
        e = nilpotent_matrix(Composition((4, 3, 2)))
        assert set(e.terms) == {(1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (8, 9)}

    def test_zero_case(self):
        assert not nilpotent_matrix(Composition((1, 1, 1)))

    def test_small_case(self):
        e = nilpotent_matrix(Composition((1, 2)))
        assert e.terms == {(2, 3): 1}

    def test_jordan_type(self):
        for lam in all_compositions(6):
            e = nilpotent_matrix(lam)
            # rank e = N - (number of blocks); e^(max part) = 0
            rank = len(e.terms)
            assert rank == lam.N - lam.n
            power = e
            for _ in range(max(lam.parts) - 1):
                power = power * e
            assert not power


class TestBasisElements:
    def test_examples(self):
        lam = Composition((1, 2))
        assert basis_element(lam, BasisIndex(1, 2, 1)).terms == {(1, 3): 1}
        assert basis_element(lam, BasisIndex(2, 2, 1)).terms == {(2, 3): 1}
        diag = basis_element(lam, BasisIndex(2, 2, 0))
        assert set(diag.terms) == {(2, 2), (3, 3)}

    def test_inadmissible_raises(self, monkeypatch):
        lam = Composition((1, 2))
        for bad in [(1, 2, 0), (2, 1, 1), (1, 1, 1), (0, 1, 0), (1, 3, 0)]:
            assert not is_admissible(lam, BasisIndex(*bad))
            with pytest.raises(ValueError):
                basis_element(lam, BasisIndex(*bad))
        # the one message, from every site that checks a label
        bad = BasisIndex(1, 2, 5)
        # the letter T[1,2;6] of a Z_1 word stands for e[1,2;5]
        plant_z(monkeypatch, lam, 1, FreeElement.letter(TSymbol(1, 2, 6)))
        for call in (lambda: unit_support(lam, bad),
                     lambda: pbw_algebra(lam).embed(bad),
                     lambda: verify_graded_image(lam, 1),
                     lambda: restrict(lam, Polynomial.variable(bad))):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == "inadmissible label (1, 2, 5) for lambda=1,2"

    def test_basis_list_examples(self):
        lam = Composition((1, 2))
        assert basis_list(lam) == (
            BasisIndex(1, 1, 0), BasisIndex(1, 2, 1), BasisIndex(2, 1, 0),
            BasisIndex(2, 2, 0), BasisIndex(2, 2, 1))
        assert len(basis_list(Composition((1, 1)))) == 4
        assert len(basis_list(Composition((2, 3, 4)))) == 23

    def test_basis_list_is_the_admissible_window(self):
        """basis_list and is_admissible state one window: the basis is
        every label with r < lam_j that is_admissible accepts, in order."""
        for lam in all_compositions(7):
            n = lam.n
            window = [BasisIndex(i, j, r) for i in range(1, n + 1)
                      for j in range(1, n + 1) for r in range(lam.part(j))
                      if is_admissible(lam, BasisIndex(i, j, r))]
            assert basis_list(lam) == tuple(window)

    def test_basis_list_sorted_and_sized(self):
        for lam in all_compositions(6):
            basis = basis_list(lam)
            assert list(basis) == sorted(basis)
            expected = sum(min(p, q) for p in lam.parts for q in lam.parts)
            assert len(basis) == expected

    def test_unit_supports_disjoint(self):
        for lam in all_compositions(5):
            seen = set()
            for idx in basis_list(lam):
                support = set(unit_support(lam, idx))
                assert support and not (support & seen)
                seen |= support

    def test_commutes_with_nilpotent_up_to_seven(self):
        for lam in all_compositions(7):
            e = nilpotent_matrix(lam)
            for idx in basis_list(lam):
                assert not matrix_commutator(basis_element(lam, idx), e)

    def test_verify_centralizer(self):
        for lam in all_compositions(5):
            assert verify_centralizer(lam).ok
        rep = verify_centralizer(Composition((4, 3, 2)))
        assert rep.ok and "count 23" in rep.checks[1].detail
        assert rep.checks[2].detail == "every bracket term has degree r + s"

    def test_last_label_off_the_centralizer_is_named(self, monkeypatch):
        """A fault in the last basis matrix alone fails commutation, and
        the row names that label."""
        lam = Composition((2, 3))
        last = basis_list(lam)[-1]
        real = centralizer.basis_element
        monkeypatch.setattr(centralizer, "basis_element", lambda lam, idx: (
            real(lam, idx) + unit_matrix([[1]]) if idx == last
            else real(lam, idx)))
        rep = verify_centralizer(lam)
        assert [c.name for c in rep.failures()] == ["commutes_with_nilpotent"]
        assert rep.checks[0].detail == (
            "e[2,2;2] does not commute with the Jordan nilpotent")

    def test_misgraded_bracket_names_a_witness(self, monkeypatch):
        lam = Composition((1, 2))
        sc = structure_constants(lam)
        a, b, z = (sc.index_of[BasisIndex(*x)]
                   for x in ((1, 1, 0), (1, 2, 1), (2, 2, 0)))
        table = tuple(dict(row) for row in sc.table)
        table[a][b] = ((z, 1),)
        monkeypatch.setattr(centralizer, "structure_constants",
                            lambda lam: sc._replace(table=table))
        rep = verify_centralizer(lam)
        assert [c.name for c in rep.failures()] == ["bracket_grading"]
        assert rep.checks[2].detail == "[e[1,1;0], e[1,2;1]] has term e[2,2;0]"


class TestExpandInBasis:
    def test_round_trip_on_commutators(self):
        for lam in all_compositions(4):
            basis = basis_list(lam)
            for x, y in itertools.product(basis, repeat=2):
                mat = matrix_commutator(
                    basis_element(lam, x), basis_element(lam, y))
                expansion = expand_in_basis(lam, mat)
                rebuilt = UnitMatrix({})
                for idx, c in expansion.items():
                    rebuilt = rebuilt + basis_element(lam, idx) * c
                assert rebuilt == mat

    def test_rejects_outside_matrices(self):
        lam = Composition((1, 2))
        with pytest.raises(ValueError):
            expand_in_basis(lam, UnitMatrix({(1, 2): 1}))
        lam2 = Composition((2, 2))
        # half of the support of e[1,1;0] is not a basis-aligned matrix
        with pytest.raises(ValueError):
            expand_in_basis(lam2, UnitMatrix({(1, 1): 1}))


class TestStructureConstants:
    def test_examples(self):
        lam = Composition((1, 2))
        assert bracket(lam, BasisIndex(1, 1, 0), BasisIndex(1, 2, 1)) == (
            (BasisIndex(1, 2, 1), 1),)
        lam2 = Composition((1, 1))
        assert dict(bracket(lam2, BasisIndex(2, 1, 0), BasisIndex(1, 2, 0))) == {
            BasisIndex(1, 1, 0): -1, BasisIndex(2, 2, 0): 1}
        assert structure_constants(lam).names == (
            "e[1,1;0]", "e[1,2;1]", "e[2,1;0]", "e[2,2;0]", "e[2,2;1]")

    def test_self_bracket_empty(self):
        lam = Composition((2, 2))
        for idx in basis_list(lam):
            assert bracket(lam, idx, idx) == ()

    def test_one_row_per_left_argument(self):
        lam = Composition((1, 2, 2))
        sc = structure_constants(lam)
        assert sc.basis == basis_list(lam)
        assert len(sc.table) == len(sc.basis)
        assert all(sc.basis[a] == x for x, a in sc.index_of.items())
        for row in sc.table:
            for terms in row.values():
                assert terms and list(terms) == sorted(terms)

    def test_antisymmetry_and_grading(self):
        for lam in all_compositions(5):
            basis = basis_list(lam)
            for x, y in itertools.product(basis, repeat=2):
                forward = dict(bracket(lam, x, y))
                backward = dict(bracket(lam, y, x))
                assert forward == {z: -c for z, c in backward.items()}
                for z in forward:
                    assert z.r == x.r + y.r

    def test_matches_matrix_commutators(self):
        # every monotone lam with N <= 7, and the wide ones up to N = 10
        lams = list(all_compositions(7)) + [
            lam for total in range(8, 11)
            for lam in monotone_compositions(total) if lam.n <= 3]
        for lam in lams:
            mats = {idx: basis_element(lam, idx) for idx in basis_list(lam)}
            for (x, mx), (y, my) in itertools.product(mats.items(), repeat=2):
                expected = expand_in_basis(lam, matrix_commutator(mx, my))
                assert dict(bracket(lam, x, y)) == expected, (lam, x, y)

    def test_jacobi_small(self):
        for lam in all_compositions(4):
            basis = basis_list(lam)

            def bracket_into(x, y, acc, outer):
                for z, c in bracket(lam, x, y):
                    for w, c2 in bracket(lam, outer, z):
                        acc[w] = acc.get(w, 0) + c * c2

            for x, y, z in itertools.product(basis, repeat=3):
                acc: dict = {}
                bracket_into(y, z, acc, x)
                bracket_into(z, x, acc, y)
                bracket_into(x, y, acc, z)
                assert all(v == 0 for v in acc.values())


class TestAdjointImages:
    def test_contract(self, monkeypatch):
        """Letters in place are added inline, only letters out of place
        reach insert, each row is looked up once per letter of the words,
        zeros are dropped, and the images come in the order of the labels.

        On lambda = 1,2 the positions 0..4 are e[1,1;0], e[1,2;1],
        e[2,1;0], e[2,2;0] and e[2,2;1]; the last is central.
        """
        lam = Composition((1, 2))
        words = {b"\1\3": 2, b"\2": 5, b"\1\2": 3}
        inserted, looked_up = [], []

        class RecordingRow(dict):
            def get(self, x, default=None):
                looked_up.append(x)
                return super().get(x, default)

        sc = structure_constants(lam)
        table = tuple(RecordingRow(row) for row in sc.table)
        monkeypatch.setattr(centralizer, "structure_constants",
                            lambda lam: sc._replace(table=table))

        def insert(head, w, tail):
            inserted.append((head, w, tail))
            return {bytes(sorted(head + bytes((w,)) + tail)): 1}

        basis = basis_list(lam)
        assert list(adjoint_images(lam, words, [2, 4, 1, 0], insert)) == [
            (basis[2], {b"\3\4": 2, b"\2\4": 3, b"\1\2": -2}),
            (basis[4], {}),
            (basis[1], {b"\1\1": 2, b"\4": -5, b"\1\4": -3}),
            (basis[0], {b"\1\3": 2, b"\2": -5}),
        ]
        assert inserted == [(b"", 4, b"\3"), (b"", 4, b"\2")]
        assert sorted(looked_up) == [1] * 4 + [2] * 4 + [3] * 4


class TestUnitMatrix:
    @given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3),
                    min_size=3, max_size=3),
           st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3),
                    min_size=3, max_size=3),
           st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3),
                    min_size=3, max_size=3))
    def test_ring_ops(self, a, b, c):
        A, B, C = unit_matrix(a), unit_matrix(b), unit_matrix(c)
        assert (A * B) * C == A * (B * C)
        assert A * (B + C) == A * B + A * C
        assert A + B == B + A
        assert not (A - A)
        assert not matrix_commutator(A, A)


class TestLieGenerators:
    @pytest.mark.parametrize("parts, count, dim", [
        ((1,) * 7, 8, 49), ((2, 2, 2, 2), 7, 32), ((2, 4, 4), 9, 26),
        ((1,) * 10, 11, 100)])
    def test_generator_counts(self, parts, count, dim):
        lam = Composition(parts)
        gens = lie_generators(lam)
        assert (len(gens), len(basis_list(lam))) == (count, dim)
        assert len(set(gens)) == count

    def test_walk_order(self):
        """Labels join in the order (r, i == j, i > j, j - i, position):
        upper labels by |i - j| ascending, then lower ones by |i - j|
        descending."""
        for lam in all_compositions(6):
            basis = basis_list(lam)
            keys = [(basis[a].r, basis[a].i == basis[a].j,
                     basis[a].i > basis[a].j, basis[a].j - basis[a].i, a)
                    for a in lie_generators(lam)]
            assert keys == sorted(keys)

    def test_gl_n_takes_n_plus_one_generators(self):
        """On 1^n the walk picks the n - 1 simple raising labels, the one
        lowering label e[n,1;0] and one diagonal label."""
        for n in range(2, 11):
            lam = Composition((1,) * n)
            basis = basis_list(lam)
            gens = [basis[a] for a in lie_generators(lam)]
            assert len(gens) == n + 1
            assert gens == ([BasisIndex(i, i + 1, 0) for i in range(1, n)]
                            + [BasisIndex(n, 1, 0), BasisIndex(1, 1, 0)])

    def test_generator_total_up_to_ten(self):
        assert sum(len(lie_generators(lam))
                   for lam in all_compositions(10)) == 2393

    def test_generators_span_g_e_by_the_closure_oracle(self):
        for lam in all_compositions(9):
            basis = basis_list(lam)
            gens = [basis[a] for a in lie_generators(lam)]
            assert lie_closure_rank(lam, gens) == len(basis), lam

    @pytest.mark.parametrize("n", range(2, 8))
    def test_gl_n_needs_its_one_diagonal_generator(self, n):
        """Without the diagonal label, S generates only sl_n."""
        lam = Composition((1,) * n)
        basis = basis_list(lam)
        gens = [basis[a] for a in lie_generators(lam)]
        diagonal = [x for x in gens if x.i == x.j]
        assert len(diagonal) == 1
        rest = [x for x in gens if x.i != x.j]
        assert lie_closure_rank(lam, rest) == len(basis) - 1

    def test_rank_short_of_dim_raises(self, monkeypatch):
        """The rank, not the walk, certifies S: a reducer that finds every
        row in the span once it holds kept pivots leaves rank kept, be it
        0 or dim - 1, where it refuses only the row of the last pivot."""
        lam = Composition((2, 3))
        real = centralizer.echelon_add
        try:
            for kept in (0, 8):
                monkeypatch.setattr(
                    centralizer, "echelon_add", lambda pivots, row: (
                        len(pivots) < kept and real(pivots, row)))
                composition.state.cache_clear()
                with pytest.raises(RuntimeError, match=f"rank {kept} of 9"):
                    lie_generators(lam)
        finally:
            composition.state.cache_clear()

