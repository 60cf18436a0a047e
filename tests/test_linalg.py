import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcent import centralizer, slice as slice_module
from nilcent.composition import Composition
from nilcent.freealg import FreeElement
from nilcent.linalg import echelon_add, format_scalar, rational_rank

from oracles import column_determinant, normalising_add, normalising_rank


def minor_rank(matrix) -> int:
    """Largest k such that some k x k minor is nonzero, each minor taken
    over the free algebra's integer scalars."""
    n_rows, n_cols = len(matrix), len(matrix[0])
    for k in range(min(n_rows, n_cols), 0, -1):
        for rows in itertools.combinations(range(n_rows), k):
            for cols in itertools.combinations(range(n_cols), k):
                if column_determinant([[FreeElement({}) + matrix[i][j]
                                        for j in cols] for i in rows]):
                    return k
    return 0


@st.composite
def integer_matrices(draw):
    n_rows, n_cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    row = st.lists(st.integers(-3, 3), min_size=n_cols, max_size=n_cols)
    matrix = draw(st.lists(row, min_size=n_rows, max_size=n_rows))
    if n_rows > 1 and draw(st.booleans()):
        # force one row to be a combination of the others
        target = draw(st.integers(0, n_rows - 1))
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=n_rows,
                               max_size=n_rows))
        matrix[target] = [
            sum(c * other[j] for i, (c, other) in enumerate(zip(coeffs, matrix))
                if i != target)
            for j in range(n_cols)
        ]
    return matrix


def test_format_scalar():
    assert [format_scalar(c) for c in (3, Fraction(-1, 2), Fraction(4, 2))] == [
        "3", "-1/2", "2"]
    with pytest.raises(TypeError, match="not an exact scalar: 1.5"):
        format_scalar(1.5)


class TestRationalRank:
    @settings(max_examples=300, deadline=None)
    @given(integer_matrices())
    def test_matches_minor_rank(self, matrix):
        expected = minor_rank(matrix)
        dense = [dict(enumerate(row)) for row in matrix]
        assert rational_rank(dense) == expected
        assert dense == [dict(enumerate(row)) for row in matrix]
        # zeros left out, columns keyed by tuples in reversed order
        sparse = [{(-j,): v for j, v in enumerate(row) if v} for row in matrix]
        assert rational_rank(sparse) == expected

    def test_no_rows_and_zero_rows(self):
        assert rational_rank([]) == 0
        assert rational_rank([{}, {0: 0, 1: 0}, {(1, 2): 0}]) == 0


def _combination(rows, coeffs):
    out: dict = {}
    for c, row in zip(coeffs, rows):
        for col, v in row.items():
            out[col] = out.get(col, 0) + c * v
    return out


@st.composite
def sparse_rows(draw, scalars):
    """Rows over up to six columns with most entries left out, some of
    them all zero or combinations of the others."""
    entry = st.one_of(st.just(0), scalars)
    row = st.dictionaries(st.integers(0, 5), entry, max_size=4)
    rows = draw(st.lists(row, max_size=8))
    for _ in range(draw(st.integers(0, 3))):
        if rows:
            coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(rows),
                                   max_size=len(rows)))
            rows.insert(draw(st.integers(0, len(rows))),
                        _combination(rows, coeffs))
    return rows


INTS = st.integers(-5, 5)
FRACTIONS = st.fractions(min_value=-4, max_value=4, max_denominator=6)


class TestEchelonAdd:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(sparse_rows(INTS), sparse_rows(FRACTIONS)))
    def test_matches_normalising_elimination(self, rows):
        """Each row adds a pivot exactly when it adds one to the Fraction
        reference, and the caller's rows are left as they were."""
        before = [dict(row) for row in rows]
        pivots: dict = {}
        reference: dict = {}
        for row in rows:
            assert echelon_add(pivots, row) == normalising_add(reference, row)
        assert set(pivots) == set(reference)
        assert rational_rank(rows) == normalising_rank(rows) == len(pivots)
        assert rows == before

    @settings(max_examples=100, deadline=None)
    @given(sparse_rows(INTS))
    def test_integer_rows_stay_integer(self, rows):
        pivots: dict = {}
        for row in rows:
            echelon_add(pivots, row)
        assert all(type(v) is int for p in pivots.values() for v in p.values())

    def test_pivot_entry_leads_its_row(self):
        pivots: dict = {}
        assert echelon_add(pivots, {2: 3, 4: 1})
        assert echelon_add(pivots, {2: 6, 3: Fraction(1, 2)})
        assert not echelon_add(pivots, {2: -3, 3: Fraction(1, 2), 4: -3})
        assert not echelon_add(pivots, {0: 0})
        assert set(pivots) == {2, 3}
        assert all(min(p) == col for col, p in pivots.items())

    def test_largest_rank_calls_of_the_n7_sweep(self, monkeypatch):
        """The sweep's largest rank calls at N = 7, the centralizer's and
        the Jacobian's, agree with the reference, and no fraction-free
        pivot entry outgrows the entries of the rows."""
        calls = []

        def capture(rows):
            calls.append([dict(row) for row in rows])
            return rational_rank(calls[-1])

        monkeypatch.setattr(centralizer, "rational_rank", capture)
        monkeypatch.setattr(slice_module, "rational_rank", capture)
        lam = Composition((1,) * 7)
        assert centralizer.verify_centralizer(lam).ok
        assert slice_module.jacobian_independence(lam).ok
        assert [len(rows) for rows in calls] == [49, 7]
        for rows in calls:
            pivots: dict = {}
            for row in rows:
                echelon_add(pivots, row)
            assert len(pivots) == normalising_rank(rows) == len(rows)
            largest = max(abs(v) for row in rows for v in row.values())
            assert max(abs(v) for p in pivots.values()
                       for v in p.values()) <= largest

