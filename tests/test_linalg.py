import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from nilcent.linalg import column_determinant, rational_rank


def minor_rank(matrix) -> int:
    """Largest k such that some k x k minor is nonzero."""
    n_rows, n_cols = len(matrix), len(matrix[0])
    for k in range(min(n_rows, n_cols), 0, -1):
        for rows in itertools.combinations(range(n_rows), k):
            for cols in itertools.combinations(range(n_cols), k):
                if column_determinant([[matrix[i][j] for j in cols]
                                       for i in rows]):
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
