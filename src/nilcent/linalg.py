"""Exact scalar helpers and rational linear algebra.

Scalars throughout the package are Python ints or fractions.Fraction; no
floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction

Scalar = (int, Fraction)


def format_scalar(c) -> str:
    """Render an exact scalar as "p" or "p/q"."""
    if not isinstance(c, Scalar):
        raise TypeError(f"not an exact scalar: {c!r}")
    f = Fraction(c)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def parse_scalar(text: str):
    """Inverse of format_scalar; returns int when the value is integral."""
    f = Fraction(text)
    return f.numerator if f.denominator == 1 else f


def format_terms(pairs) -> str:
    """Join (coefficient, monomial-string) pairs into a signed sum."""
    bits = []
    for c, mono in pairs:
        f = Fraction(c)
        sign = "-" if f < 0 else "+"
        mag = -f if f < 0 else f
        if mono == "1":
            body = format_scalar(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{format_scalar(mag)}*{mono}"
        bits.append((sign, body))
    if not bits:
        return "0"
    first_sign, first_body = bits[0]
    text = f"-{first_body}" if first_sign == "-" else first_body
    for sign, body in bits[1:]:
        text += f" {sign} {body}"
    return text


def perm_sign(perm) -> int:
    """Sign of a permutation given as a tuple of distinct comparable values.

    Only the tests use it, as the Leibniz-formula reference for
    column_determinant.
    """
    inversions = sum(
        1
        for a in range(len(perm))
        for b in range(a + 1, len(perm))
        if perm[a] > perm[b]
    )
    return -1 if inversions % 2 else 1


def column_determinant(matrix):
    """Sum over permutations p of sign(p) * m[p0][0] * m[p1][1] * ... .

    Factors multiply in column order, so entries may come from a
    noncommutative ring; they need +, -, * and a truth value that is false
    exactly at zero.  Rows are chosen column by column, depth first, with
    the product of the columns so far shared by every completion; choosing
    the k-th smallest remaining row adds k inversions, which gives the sign,
    and a zero entry prunes every permutation through it.
    """
    rows = [list(row) for row in matrix]
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise ValueError("column determinant needs a nonempty square matrix")
    total = rows[0][0] * 0

    def expand(col, remaining, prod, negative):
        nonlocal total
        for k, row in enumerate(remaining):
            entry = rows[row][col]
            if not entry:
                continue
            term = entry if prod is None else prod * entry
            sign = negative != (k % 2 == 1)
            if col + 1 == n:
                total = total - term if sign else total + term
            else:
                expand(col + 1, remaining[:k] + remaining[k + 1:], term, sign)

    expand(0, tuple(range(n)), None, False)
    return total


def rational_rank(rows) -> int:
    """Rank of a matrix (list of rows of exact scalars) by Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    ncols = len(m[0])
    if any(len(row) != ncols for row in m):
        raise ValueError("ragged matrix")
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = Fraction(1) / m[rank][col]
        m[rank] = [v * inv for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank
