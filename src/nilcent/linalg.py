"""Exact scalars, the column determinant and a sparse exact rank.

Scalars throughout the package are Python ints or fractions.Fraction; no
floating point is used anywhere.  column_determinant expands by row
subsets, so each minor on the leading columns is built once and shared by
every completion.  echelon_add is the one elimination: it reads each row
as a map from column to scalar, so a sparse row costs only its nonzero
entries, and it reduces fraction-free, so integer rows never become
Fractions.  rational_rank is a loop over it, and so is the rank that
certifies a Lie generating set in centralizer.lie_generators.
echelon_add keeps its own drop-if-zero update because sparse, home of
accumulate, imports this module.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

Scalar = (int, Fraction)


def format_scalar(c) -> str:
    """Render an exact scalar as "p" or "p/q"."""
    if not isinstance(c, Scalar):
        raise TypeError(f"not an exact scalar: {c!r}")
    f = Fraction(c)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


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


def column_determinant(matrix):
    """Sum over permutations p of sign(p) * m[p0][0] * m[p1][1] * ... .

    Factors multiply in column order, so entries may come from a
    noncommutative ring; they need +, -, * and a truth value that is false
    exactly at zero.  One loop over the columns keeps minors, a map from a
    row set R (a bitmask) to the column determinant of those rows and the
    first |R| columns, and extends each by every row i outside R:
        F(R | {i}) += (-1)^#{j in R : j > i} * F(R) * m[i][|R|].
    A zero entry, or a minor that has cancelled to zero, is never extended.
    """
    rows = [list(row) for row in matrix]
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise ValueError("column determinant needs a nonempty square matrix")
    minors = {1 << i: row[0] for i, row in enumerate(rows) if row[0]}
    for col in range(1, n):
        extended: dict = {}
        for mask, minor in minors.items():
            for i, row in enumerate(rows):
                entry = row[col]
                if mask >> i & 1 or not entry:
                    continue
                if (mask >> i).bit_count() & 1:
                    entry = -entry
                key = mask | 1 << i
                term = minor * entry
                extended[key] = extended[key] + term if key in extended else term
        minors = {mask: minor for mask, minor in extended.items() if minor}
    return minors.get((1 << n) - 1, rows[0][0] * 0)


def echelon_add(pivots: dict, row: dict) -> bool:
    """Reduce row against pivots; keep what is left as a new pivot row.

    pivots maps a column to the row whose smallest column it is.  A row
    maps columns to exact scalars; zero entries may be left out, and
    columns need only be comparable.  The reduction is fraction-free:
    with a the pivot's entry and b the row's entry at the row's smallest
    column, row <- a * row - b * pivot.  When a and b are ints they are
    first divided by their gcd and a made positive, so integer rows stay
    integer and a unit pivot entry costs no scaling.  The caller's row is
    not changed.  Returns whether a pivot was added, that is, whether the
    row lay outside the span of the pivot rows.
    """
    row = {col: v for col, v in row.items() if v}
    while row:
        col = min(row)
        pivot = pivots.get(col)
        if pivot is None:
            pivots[col] = row
            return True
        a, b = pivot[col], row[col]
        if type(a) is int and type(b) is int:
            g = gcd(a, b) if a > 0 else -gcd(a, b)
            a, b = a // g, b // g
        if a != 1:
            row = {c: a * v for c, v in row.items()}
        for c, v in pivot.items():
            w = row.get(c, 0) - b * v
            if w:
                row[c] = w
            else:
                del row[c]
    return False


def rational_rank(rows) -> int:
    """Rank of a matrix whose rows map columns to exact scalars, by
    echelon_add."""
    pivots: dict = {}
    for row in rows:
        echelon_add(pivots, row)
    return len(pivots)
