"""Free associative algebra on formal generator symbols.

Words are tuples of hashable letters; for a fixed composition the letters
are TSymbol(i, j, s) with s >= 1, subject to the window rule: the symbol
of superscript s vanishes when 0 < s <= shift(i,j) or s > lam_j, and
superscript 0 is the scalar delta_{i,j} (never stored as a letter).  The
column determinant of the twisted symbol matrix produces a monic
polynomial in a central variable u whose coefficients expand the central
generators; loop_weight grades the words, and substituting letters by
centralizer generators sends the top-weight part onto the central
generator of matching weight.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache
from math import comb
from typing import NamedTuple

from .centralizer import BasisIndex
from .composition import (
    Composition,
    invariant_degrees,
    shift_matrix,
    weight_subcompositions,
)
from .enveloping import PbwElement, central_element, pbw_algebra
from .linalg import column_determinant
from .reports import Check, Report
from .sparse import SparseElement, accumulate


class TSymbol(NamedTuple):
    """Formal generator T[i,j;s] with superscript s >= 1."""

    i: int
    j: int
    s: int


class FreeElement(SparseElement):
    """Element of the free associative algebra: words mapped to scalars."""

    __slots__ = ()

    @classmethod
    def zero(cls) -> "FreeElement":
        return cls({})

    @classmethod
    def scalar(cls, c) -> "FreeElement":
        return cls({(): c} if c else {})

    @classmethod
    def letter(cls, x) -> "FreeElement":
        return cls({(x,): 1})

    def _times(self, w1, w2):
        return ((w1 + w2, 1),)

    def _format_monomial(self, word) -> str:
        return "*".join(_format_letter(x) for x in word) or "1"


def _format_letter(x) -> str:
    if isinstance(x, TSymbol):
        return f"T[{x.i},{x.j};{x.s}]"
    return str(x)


def t_symbol(lam: Composition, i: int, j: int, s: int) -> FreeElement:
    """The symbol T[i,j;s] under the window rule of lam."""
    if not (1 <= i <= lam.n and 1 <= j <= lam.n):
        raise ValueError(f"row labels must lie in 1..{lam.n}, got ({i}, {j})")
    if s < 0:
        raise ValueError(f"superscript must be nonnegative, got {s}")
    if s == 0:
        return FreeElement.scalar(1 if i == j else 0)
    if s <= shift_matrix(lam).entry(i, j) or s > lam.part(j):
        return FreeElement.zero()
    return FreeElement.letter(TSymbol(i, j, s))


class UPolynomial(SparseElement):
    """Polynomial in one central variable with free-algebra coefficients.

    Terms map the exponent of u to a nonzero FreeElement.
    """

    __slots__ = ()

    @classmethod
    def zero(cls) -> "UPolynomial":
        return cls({})

    def _scalar(self, c):
        return UPolynomial({0: FreeElement.scalar(c)} if c else {})

    def _times(self, k1, k2):
        return ((k1 + k2, 1),)

    def coefficient(self, k: int) -> FreeElement:
        return self.terms.get(k, FreeElement.zero())

    def degree(self) -> int:
        if not self.terms:
            raise ValueError("the zero polynomial has no degree")
        return max(self.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({self.terms[k]!r})*u^{k}"
                          for k in sorted(self.terms, reverse=True))


def t_entry_polynomial(lam: Composition, i: int, j: int) -> UPolynomial:
    """Entry (i, j) of the twisted matrix: (u - j + 1)^(lam_j) T_{i,j}(u - j + 1).

    Expanded in u: sum over s of T[i,j;s] (u - j + 1)^(lam_j - s).
    """
    width = lam.part(j)
    shift = -(j - 1)
    coeffs: dict[int, FreeElement] = {}
    for s in range(width + 1):
        sym = t_symbol(lam, i, j, s)
        m = width - s
        accumulate(coeffs, ((k, comb(m, k) * shift ** (m - k))
                            for k in range(m + 1)), sym)
    return UPolynomial(coeffs)


@lru_cache(maxsize=None)
def z_polynomial(lam: Composition) -> tuple[FreeElement, ...]:
    """Coefficients (Z_1, ..., Z_N) of the column determinant in u.

    The determinant of the twisted symbol matrix is monic of degree N in
    u; Z_r is the coefficient of u^(N - r).  Requires weakly increasing
    parts.
    """
    if not lam.is_increasing:
        raise ValueError(
            f"the symbol determinant needs weakly increasing parts, got {lam}"
        )
    n = lam.n
    matrix = [
        [t_entry_polynomial(lam, i, j) for j in range(1, n + 1)]
        for i in range(1, n + 1)
    ]
    det = column_determinant(matrix)
    N = lam.N
    if det.degree() != N or det.coefficient(N) != FreeElement.scalar(1):
        raise RuntimeError("symbol determinant is not monic of degree N")
    return tuple(det.coefficient(N - r) for r in range(1, N + 1))


def binomial_z_expansion(lam: Composition, r: int) -> FreeElement:
    """Direct expansion of Z_r as a sum of minor determinants.

    Sums over subcompositions mu of weight r and componentwise nu <= mu
    with nu_1 = mu_1, weighting the full n x n symbol determinant with
    superscripts nu by
        prod_i (1 - i)^(mu_i - nu_i) * binom(lam_i - nu_i, lam_i - mu_i).
    Identically vanishing symbol words are dropped by the window rule.
    """
    if not lam.is_increasing:
        raise ValueError(
            f"the symbol expansion needs weakly increasing parts, got {lam}"
        )
    if not 1 <= r <= lam.N:
        raise ValueError(f"weight must lie in 1..{lam.N}, got {r}")
    n = lam.n
    total = FreeElement.zero()
    for mu in weight_subcompositions(lam, r):
        nu_ranges = [range(mu.part(1), mu.part(1) + 1)] + [
            range(0, mu.part(i) + 1) for i in range(2, n + 1)
        ]
        for nu in itertools.product(*nu_ranges):
            weight = 1
            for i in range(1, n + 1):
                weight *= (1 - i) ** (mu.part(i) - nu[i - 1])
                weight *= comb(lam.part(i) - nu[i - 1], lam.part(i) - mu.part(i))
                if not weight:
                    break
            if not weight:
                continue
            det = column_determinant(
                [[t_symbol(lam, i, j, nu[j - 1]) for j in range(1, n + 1)]
                 for i in range(1, n + 1)]
            )
            total = total + det * weight
    return total


def loop_weight(word) -> int:
    """Sum of (s - 1) over the letters of a word of TSymbols."""
    return sum(x.s - 1 for x in word)


def expansion_identity(lam: Composition, r: int) -> Report:
    """Z_r from the determinant against its direct binomial expansion."""
    lhs = z_polynomial(lam)[r - 1]
    rhs = binomial_z_expansion(lam, r)
    diff = lhs - rhs
    ok = diff.is_zero()
    return Report(
        f"symbol expansion lambda={lam} r={r}",
        (Check(f"Z_{r} matches its binomial expansion", ok,
               "" if ok else f"difference has {len(diff.terms)} words"),),
    )


def substitute_word(lam: Composition, word) -> PbwElement:
    """Image of a word under T[i,j;s+1] -> (-1)^s e[i,j;s], multiplied in order."""
    alg = pbw_algebra(lam)
    out = alg.one()
    for x in word:
        sign = -1 if (x.s - 1) % 2 else 1
        out = out * (sign * alg.embed(BasisIndex(x.i, x.j, x.s - 1)))
    return out


def verify_graded_image(lam: Composition, r: int) -> Report:
    """Loop-weight bound on Z_r and the image of its top-weight part.

    Every word of Z_r must have loop weight at most m = r - d_r, and the
    weight-m part must map onto (-1)^m times the weight-r central
    generator under the letter substitution.
    """
    Zr = z_polynomial(lam)[r - 1]
    m = r - invariant_degrees(lam)[r - 1]
    over = [w for w in Zr.terms if loop_weight(w) > m]
    image = pbw_algebra(lam).zero()
    for word, c in Zr.terms.items():
        if loop_weight(word) == m:
            image = image + c * substitute_word(lam, word)
    sign = -1 if m % 2 else 1
    target = sign * central_element(lam, r)
    diff = image - target
    checks = (
        Check(f"loop weight of Z_{r} bounded by {m}", not over,
              "" if not over else f"{len(over)} words exceed the bound"),
        Check(f"top-weight image equals ({'-' if sign < 0 else '+'}1)^{m} z_{r}",
              diff.is_zero(),
              "" if diff.is_zero() else f"difference has {len(diff.terms)} terms"),
    )
    return Report(f"graded image lambda={lam} r={r}", checks)


def left_minor_cdets(matrix, j: int):
    """Column determinants of all j x j minors in the first j columns."""
    n = len(matrix)
    for rows in itertools.combinations(range(n), j):
        yield rows, column_determinant(
            [[matrix[a][b] for b in range(j)] for a in rows]
        )


def verify_left_minor_vanishing(n: int, trials: int, seed: int) -> Report:
    """Randomized instances of the left-minor vanishing property.

    Each trial builds an n x n matrix over the free algebra whose first j
    columns are arranged to kill every left j x j minor: either one of
    those columns is zero, or the first j columns take entries in the
    commutative subalgebra of words in a single letter with an exact
    linear dependency among them.  Both the hypothesis (all left minors
    vanish) and the conclusion (the full column determinant vanishes) are
    checked on every trial.
    """
    if n < 2:
        raise ValueError("need n >= 2 for a nontrivial minor statement")
    rng = random.Random(seed)
    checks = []
    for trial in range(trials):
        j = rng.randint(1, n - 1)
        mode = rng.choice(("zero-column", "dependent-columns"))
        matrix = [[FreeElement.zero()] * n for _ in range(n)]
        if mode == "zero-column":
            dead = rng.randint(0, j - 1)
            for col in range(j):
                if col == dead:
                    continue
                for row in range(n):
                    matrix[row][col] = _random_element(rng)
        else:
            # single-letter words commute, so dependent columns are honest;
            # the combination coefficients are fixed per column
            x = "x"
            for col in range(j - 1):
                for row in range(n):
                    matrix[row][col] = _random_single_letter_poly(rng, x)
            coeffs = [_combination_coeff(rng, x) for _ in range(j - 1)]
            for row in range(n):
                acc = FreeElement.zero()
                for col in range(j - 1):
                    acc = acc + matrix[row][col] * coeffs[col]
                matrix[row][j - 1] = acc
        for col in range(j, n):
            for row in range(n):
                matrix[row][col] = _random_element(rng)

        hypothesis_ok = all(
            det.is_zero() for _, det in left_minor_cdets(matrix, j)
        )
        conclusion = column_determinant(matrix)
        checks.append(
            Check(f"trial {trial} (j={j}, {mode})",
                  hypothesis_ok and conclusion.is_zero(),
                  "" if hypothesis_ok else "hypothesis violated")
        )
    return Report(f"left-minor vanishing n={n} trials={trials} seed={seed}",
                  tuple(checks))


def _random_element(rng) -> FreeElement:
    letters = ["a", "b", "c", "d"]
    out = FreeElement.zero()
    for _ in range(rng.randint(1, 2)):
        word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 2)))
        out = out + FreeElement({word: rng.choice((-2, -1, 1, 2, 3))})
    return out


def _random_single_letter_poly(rng, x) -> FreeElement:
    out = FreeElement.zero()
    for k in range(rng.randint(1, 3)):
        out = out + FreeElement({(x,) * k: rng.randint(-3, 3)})
    return out


def _combination_coeff(rng, x) -> FreeElement:
    return FreeElement({(x,) * rng.randint(0, 1): rng.choice((-2, -1, 1, 2))})
