import itertools
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nilcent.centralizer import BasisIndex, basis_list, is_admissible
from nilcent.composition import (
    Composition,
    enumerate_mu,
    invariant_degrees,
    monotone_compositions,
    require_increasing,
    shift,
    weight_subcompositions,
)

from conftest import compositions


def all_compositions(max_total, increasing_only=False):
    for total in range(1, max_total + 1):
        for lam in monotone_compositions(total):
            if lam.is_increasing or not increasing_only:
                yield lam


def fewest_parts(lam, r):
    """Fewest nonzero parts over the weight-r subcompositions, by brute
    force over weight_subcompositions."""
    return min(len(mu) - mu.count(0) for mu in weight_subcompositions(lam, r))


class TestComposition:
    def test_string_round_trip(self):
        lam = Composition.from_string("2,3,4")
        assert lam.parts == (2, 3, 4)
        assert lam.to_string() == "2,3,4"
        assert Composition.from_string(lam.to_string()) == lam

    def test_basic_attributes(self):
        lam = Composition((4, 3, 2))
        assert lam.N == 9 and lam.n == 3
        assert not lam.is_increasing
        assert lam.part(1) == 4
        assert lam.reversed() == Composition((2, 3, 4))

    def test_a_frozen_value_of_its_parts(self):
        lam = Composition([1, 2])
        assert lam == Composition((1, 2)) and lam != Composition((2, 1))
        assert lam != (1, 2) and (1, 2) != lam
        assert hash(lam) == hash(((1, 2),))
        assert repr(lam) == "Composition(parts=(1, 2))"
        assert pickle.loads(pickle.dumps(lam)) == lam
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(lam, protocol)) == lam
            # unpickling runs the checks: parts (2, 1, 1) edited to (2, 1, 2)
            data = pickle.dumps(Composition((2, 1, 1)), protocol)
            assert data.count(b"K\x02K\x01K\x01") == 1
            with pytest.raises(ValueError, match="not weakly monotone"):
                pickle.loads(data.replace(b"K\x02K\x01K\x01",
                                          b"K\x02K\x01K\x02"))
        with pytest.raises(AttributeError):
            lam.parts = (3,)
        with pytest.raises(AttributeError):
            del lam.parts
        assert lam.parts == (1, 2)

    @pytest.mark.parametrize("bad", ["", "0", "-1,2", "2,1,2", "1,x",
                                     "1_0", "+2", "\uff11,2"])
    def test_rejects_invalid_strings(self, bad):
        with pytest.raises(ValueError):
            Composition.from_string(bad)

    def test_parses_ascii_digits_with_spaces(self):
        assert Composition.from_string(" 1, 2 ").parts == (1, 2)
        assert Composition.from_string("10").parts == (10,)

    def test_require_increasing(self):
        require_increasing(Composition((1, 2)), "this")
        with pytest.raises(ValueError, match=r"^this needs weakly increasing "
                                             r"parts, got 2,1$"):
            require_increasing(Composition((2, 1)), "this")

    @pytest.mark.parametrize("parts", [(2.7, 3), (2.0, 3), (True, 2), ("1", 2)])
    def test_rejects_parts_that_are_not_ints(self, parts):
        with pytest.raises(ValueError, match="positive integers"):
            Composition(parts)

    def test_rejects_no_parts(self):
        with pytest.raises(ValueError, match="at least one part"):
            Composition(())

    def test_rejects_oversized_total(self):
        with pytest.raises(ValueError):
            Composition((65,))


class TestInvariantDegrees:
    def test_examples(self):
        expected = (1, 1, 1, 1, 2, 2, 2, 3, 3)
        assert invariant_degrees(Composition((4, 3, 2))) == expected
        assert invariant_degrees(Composition((2, 3, 4))) == expected
        assert invariant_degrees(Composition((5,))) == (1,) * 5

    def test_counts_and_monotonicity(self):
        for lam in all_compositions(8, increasing_only=True):
            degrees = invariant_degrees(lam)
            assert len(degrees) == lam.N
            assert all(a <= b for a, b in zip(degrees, degrees[1:]))
            for k in range(1, lam.n + 1):
                assert degrees.count(k) == lam.part(lam.n + 1 - k)
            assert invariant_degrees(lam.reversed()) == degrees

    def test_ppy_degree_sum(self):
        """2 * sum of the d_r = dim g_e + N (Panyushev-Premet-Yakimova)."""
        lams = list(all_compositions(10))
        assert len(lams) == 249
        for lam in lams:
            dim = len(basis_list(lam))
            assert 2 * sum(invariant_degrees(lam)) == dim + lam.N, lam

    def test_matches_min_length_exhaustively(self):
        """invariant_degrees(lam)[r - 1] is the brute-force fewest nonzero
        parts on every (lam, r) with N <= 12."""
        lams = list(all_compositions(12))
        assert len(lams) == 507
        pairs = [(lam, r) for lam in lams for r in range(1, lam.N + 1)]
        assert len(pairs) == 5028
        for lam, r in pairs:
            assert invariant_degrees(lam)[r - 1] == fewest_parts(lam, r), (
                lam, r)


class TestMinLength:
    """The fewest nonzero parts of a weight-r subcomposition: d_r by the
    closed formula, and the walk that enumerate_mu takes it from."""

    def test_examples(self):
        for parts, r, d in (((2, 3, 4), 5, 2), ((2, 3, 4), 9, 3),
                            ((1, 1), 1, 1)):
            lam = Composition(parts)
            assert fewest_parts(lam, r) == invariant_degrees(lam)[r - 1] == d

    def test_brute_force_agreement(self):
        """enumerate_mu keeps exactly the brute-force fewest-part
        subcompositions, in order, on every (lam, r) with N <= 8."""
        for lam in all_compositions(8):
            for r in range(1, lam.N + 1):
                d = fewest_parts(lam, r)
                brute = tuple(mu for mu in weight_subcompositions(lam, r)
                              if len(mu) - mu.count(0) == d)
                assert enumerate_mu(lam, r) == brute, (lam, r)

    def test_out_of_range(self):
        """enumerate_mu checks the weight before it walks."""
        lam = Composition((1, 2))
        for r in (0, 4):
            with pytest.raises(ValueError,
                               match=rf"^weight must lie in 1\.\.3, got {r}$"):
                enumerate_mu(lam, r)

    def test_subcompositions_out_of_range(self):
        lam = Composition((1, 2))
        assert list(weight_subcompositions(lam, 0)) == [(0, 0)]
        for r in (-1, 4):
            with pytest.raises(ValueError, match=r"weight must lie in 0\.\.3"):
                list(weight_subcompositions(lam, r))

    def test_subcompositions_out_of_range_raise_at_the_call(self):
        with pytest.raises(ValueError, match=r"weight must lie in 0\.\.3"):
            weight_subcompositions(Composition((1, 2)), 4)

    def test_subcompositions_complete(self):
        """Every tuple under lam of weight r, in lexicographic order."""
        for lam in all_compositions(8):
            boxes = [range(p + 1) for p in lam.parts]
            for r in range(lam.N + 1):
                brute = [mu for mu in itertools.product(*boxes)
                         if sum(mu) == r]
                assert list(weight_subcompositions(lam, r)) == brute


class TestEnumerateMu:
    def test_examples(self):
        lam = Composition((1, 2))
        assert enumerate_mu(lam, 1) == ((0, 1), (1, 0))
        assert enumerate_mu(lam, 2) == ((0, 2),)
        big = Composition((2, 3, 4))
        assert enumerate_mu(big, 9) == ((2, 3, 4),)

    @given(compositions(), st.data())
    def test_properties(self, lam, data):
        r = data.draw(st.integers(1, lam.N))
        mus = enumerate_mu(lam, r)
        assert mus
        d = fewest_parts(lam, r)
        assert list(mus) == sorted(mus)
        for mu in mus:
            assert type(mu) is tuple and len(mu) == lam.n
            assert sum(mu) == r
            assert sum(1 for p in mu if p) == d
            assert all(0 <= p <= q for p, q in zip(mu, lam.parts))


class TestWeightMinusLengthMonotonicity:
    def test_exhaustive(self):
        """|mu| - l(mu) grows along containment, with a sharp equality case."""
        for lam in all_compositions(6, increasing_only=True):
            for mu in itertools.product(*(range(p + 1) for p in lam.parts)):
                mu_stat = sum(mu) - sum(1 for p in mu if p)
                for nu in itertools.product(*(range(p + 1) for p in mu)):
                    nu_stat = sum(nu) - sum(1 for p in nu if p)
                    assert nu_stat <= mu_stat
                    sharp = all(
                        a == b or (a == 0 and b == 1) for a, b in zip(nu, mu)
                    )
                    assert (nu_stat == mu_stat) == sharp


class TestShiftMatrix:
    @staticmethod
    def matrix(parts):
        lam = Composition(parts)
        return tuple(tuple(shift(lam, i, j) for j in range(1, lam.n + 1))
                     for i in range(1, lam.n + 1))

    def test_examples(self):
        assert self.matrix((1, 2)) == ((0, 1), (0, 0))
        assert self.matrix((3, 3)) == ((0, 0), (0, 0))
        assert self.matrix((2, 3, 4)) == ((0, 1, 2), (0, 0, 1), (0, 0, 0))
        assert self.matrix((4, 3, 2)) == ((0, 0, 0), (1, 0, 0), (2, 1, 0))

    def test_structure(self):
        for lam in all_compositions(6):
            n = lam.n
            assert all(shift(lam, i, i) == 0 for i in range(1, n + 1))
            if lam.is_increasing:
                assert all(
                    shift(lam, i, j) == 0
                    for i in range(1, n + 1) for j in range(1, i)
                )

    def test_additivity_on_aligned_triples(self):
        for lam in all_compositions(6):
            n = lam.n
            for i, j, k in itertools.product(range(1, n + 1), repeat=3):
                if abs(i - j) + abs(j - k) == abs(i - k):
                    assert shift(lam, i, j) + shift(lam, j, k) == shift(lam, i, k)


class TestAdmissibilityInequality:
    """The column-determinant labels e[a,b;mu_b - 1], a and b in the
    support of mu, are admissible exactly when mu_b > s_{a,b}."""

    @staticmethod
    def labels_admissible(lam, mu):
        supp = [b for b, p in enumerate(mu, start=1) if p]
        return all(is_admissible(lam, BasisIndex(a, b, mu[b - 1] - 1))
                   for a in supp for b in supp)

    def test_examples(self):
        lam = Composition((1, 2))
        assert self.labels_admissible(lam, (0, 2))
        assert self.labels_admissible(lam, (1, 2))
        assert not self.labels_admissible(lam, (1, 1))
        assert not is_admissible(lam, BasisIndex(1, 2, 0))
        big = Composition((2, 3, 4))
        assert self.labels_admissible(big, (0, 2, 4))

    def test_always_true_on_minimal_subcompositions(self):
        """The guard in determinant_sum never fires for the summation
        index set."""
        for lam in all_compositions(7):
            for r in range(1, lam.N + 1):
                for mu in enumerate_mu(lam, r):
                    assert self.labels_admissible(lam, mu)


class TestMonotoneCompositions:
    def test_small_inventory(self):
        got = monotone_compositions(3)
        assert [c.parts for c in got] == [(1, 1, 1), (1, 2), (3,), (2, 1)]
        inc = [c for c in got if c.is_increasing]
        assert [c.parts for c in inc] == [(1, 1, 1), (1, 2), (3,)]

    def test_rejects_nonpositive_total(self):
        with pytest.raises(ValueError, match="total must be positive"):
            monotone_compositions(0)

    def test_all_monotone_and_complete(self):
        """Equal, in the documented order, to a filter of all
        2^(total - 1) compositions: the increasing ones in ascending
        lexicographic order, then each non-constant one reversed."""
        for total in range(1, 11):
            got = monotone_compositions(total)
            assert len(set(got)) == len(got)
            for lam in got:
                assert lam.N == total
            every = [tuple(b - a for a, b in zip((0, *cuts), (*cuts, total)))
                     for k in range(total)
                     for cuts in itertools.combinations(range(1, total), k)]
            assert len(every) == 2 ** (total - 1)
            increasing = sorted(c for c in every if list(c) == sorted(c))
            decreasing = [c for c in every if list(c[::-1]) == sorted(c)]
            mirrored = [c[::-1] for c in increasing if len(set(c)) > 1]
            assert sorted(mirrored) == sorted(set(decreasing) - {*increasing})
            assert [c.parts for c in got] == increasing + mirrored
