"""Free associative algebra on formal generator symbols.

Words are tuples of hashable letters; for a fixed composition the letters
are TSymbol(i, j, s) with s >= 1, subject to the window rule: the symbol
of superscript s >= 1 is a letter exactly when e[i,j;s-1] is a basis
label, which centralizer.is_admissible decides, and vanishes otherwise;
superscript 0 is the scalar delta_{i,j} (never stored as a letter).  The
column determinant of the twisted symbol matrix, linalg.column_minor of
t_entry_polynomial on the columns (j,), produces a monic polynomial in a
central variable u whose coefficients Z_r expand the central generators;
its monomials are pairs (k, word) for u^k * word, so z_polynomial groups
them by k in one pass.  expansion_identity checks Z_r against its
binomial expansion, which sums weighted n x n symbol determinants with
superscripts nu; the weights of each nu are summed first, and each
determinant is column_minor of t_symbol on the columns (j, nu_j), in one
memo for the composition, centralizer.minor_table(lam, t_symbol), so
each minor on a prefix of nu is built once and shared by every nu and
every r that extends that prefix.  The check never reads z_polynomial's
u-expansion.  verify_graded_image checks that the loop weight is bounded
on the words of Z_r and that substituting centralizer generators for the
letters sends the top-weight part onto the central generator of matching
weight.  letter_positions writes each letter T[i,j;s+1] as the position
of e[i,j;s] and tables the loop weights, so the words reach
enveloping.product_sum as bytes, and each shared prefix is multiplied once.
"""

from __future__ import annotations

import itertools
from functools import partial
from math import comb
from typing import NamedTuple

from .centralizer import LETTERS, inadmissible_label, is_admissible, minor_table
from .composition import (
    Composition,
    invariant_degrees,
    per_composition,
    require_increasing,
    require_weight,
    weight_subcompositions,
)
from .enveloping import central_element, pbw_algebra, product_sum
from .linalg import SparseElement, accumulate, column_minor
from .reports import Check, Report, residual_check


class TSymbol(NamedTuple):
    """Formal generator T[i,j;s] with superscript s >= 1."""

    i: int
    j: int
    s: int

    def __str__(self) -> str:
        return f"T[{self.i},{self.j};{self.s}]"


class FreeElement(SparseElement):
    """Element of the free associative algebra: words mapped to scalars."""

    __slots__ = ()

    @classmethod
    def letter(cls, x) -> "FreeElement":
        return cls({(x,): 1})

    def _times(self, w1, w2):
        return ((w1 + w2, 1),)

    def _format_monomial(self, word) -> str:
        return "*".join(map(str, word)) or "1"


def t_symbol(lam: Composition, i: int, j: int, s: int) -> FreeElement:
    """The symbol T[i,j;s] under the window rule of lam: for s >= 1 the
    letter T[i,j;s] when e[i,j;s-1] is admissible, else zero."""
    if not (1 <= i <= lam.n and 1 <= j <= lam.n):
        raise ValueError(f"row labels must lie in 1..{lam.n}, got ({i}, {j})")
    if s < 0:
        raise ValueError(f"superscript must be nonnegative, got {s}")
    if s == 0:
        return FreeElement({(): 1} if i == j else {})
    if not is_admissible(lam, (i, j, s - 1)):
        return FreeElement({})
    return FreeElement.letter(TSymbol(i, j, s))


class UPolynomial(SparseElement):
    """Polynomial in one central variable u over the free algebra.

    The monomial (k, word) stands for u^k * word.
    """

    __slots__ = ()

    def _scalar(self, c):
        return UPolynomial({(0, ()): c} if c else {})

    def _times(self, m1, m2):
        return (((m1[0] + m2[0], m1[1] + m2[1]), 1),)

    def _format_monomial(self, m) -> str:
        k, word = m
        u = [f"u^{k}"] if k else []
        return "*".join(u + list(map(str, word))) or "1"


def t_entry_polynomial(lam: Composition, i: int, j: int) -> UPolynomial:
    """Entry (i, j) of the twisted matrix: (u - j + 1)^(lam_j) T_{i,j}(u - j + 1).

    Expanded in u: sum over s of T[i,j;s] (u - j + 1)^(lam_j - s).
    """
    width = lam.part(j)
    offset = -(j - 1)
    terms: dict = {}
    for s in range(width + 1):
        m = width - s
        for w, c in t_symbol(lam, i, j, s).terms.items():
            accumulate(terms, (((k, w), comb(m, k) * offset ** (m - k))
                               for k in range(m + 1)), c)
    return UPolynomial(terms)


@per_composition
def z_polynomial(lam: Composition) -> tuple[FreeElement, ...]:
    """Coefficients (Z_1, ..., Z_N) of the column determinant in u.

    The determinant of the twisted symbol matrix is monic of degree N in
    u; Z_r is the coefficient of u^(N - r).  Requires weakly increasing
    parts.
    """
    require_increasing(lam, "the symbol determinant")
    n, N = lam.n, lam.N
    det = column_minor({}, partial(t_entry_polynomial, lam),
                       tuple((j,) for j in range(1, n + 1)), (1 << n) - 1)
    lower: list[dict] = [{} for _ in range(N)]
    top: dict = {}
    for (k, w), c in (det.terms if det else {}).items():
        if k < N:
            lower[k][w] = c
        else:
            top[k, w] = c
    if top != {(N, ()): 1}:
        raise RuntimeError("symbol determinant is not monic of degree N")
    return tuple(FreeElement(lower[N - r]) for r in range(1, N + 1))


def binomial_z_expansion(lam: Composition, r: int) -> FreeElement:
    """Direct expansion of Z_r as a sum of minor determinants.

    Sums over subcompositions mu of weight r and componentwise nu <= mu
    with nu_1 = mu_1, weighting the full n x n symbol determinant with
    superscripts nu by
        prod_i (1 - i)^(mu_i - nu_i) * binom(lam_i - nu_i, lam_i - mu_i).
    The determinant depends on nu alone, so the weights are first summed
    over mu, and each determinant is the column_minor of t_symbol on the
    columns ((j, nu_j), ...) and every row, in centralizer.minor_table(lam,
    t_symbol), which shares the minors of a common prefix across every
    nu and every r.  Identically vanishing symbol words are dropped by the
    window rule.
    """
    require_increasing(lam, "the symbol expansion")
    require_weight(lam, r)
    n = lam.n
    weights: dict[tuple, int] = {}
    for mu in weight_subcompositions(lam, r):
        nu_ranges = [range(mu[0], mu[0] + 1)] + [
            range(0, mu[i - 1] + 1) for i in range(2, n + 1)
        ]
        for nu in itertools.product(*nu_ranges):
            weight = 1
            for i in range(1, n + 1):
                weight *= (1 - i) ** (mu[i - 1] - nu[i - 1])
                weight *= comb(lam.part(i) - nu[i - 1], lam.part(i) - mu[i - 1])
            weights[nu] = weights.get(nu, 0) + weight
    # nu_1 = mu_1 and nu <= mu <= lam, so every weight is a nonzero integer
    # of sign (-1)^(r - |nu|): the totals over mu never cancel
    full = (1 << n) - 1
    table = minor_table(lam, t_symbol)
    symbol = partial(t_symbol, lam)
    terms: dict = {}
    for nu, weight in weights.items():
        det = column_minor(table, symbol, tuple(enumerate(nu, start=1)), full)
        if det is not None:  # None: the determinant cancelled
            accumulate(terms, det.terms.items(), weight)
    return FreeElement(terms)


def expansion_identity(lam: Composition, r: int) -> Report:
    """Z_r from the determinant against its direct binomial expansion."""
    require_weight(lam, r)
    diff = z_polynomial(lam)[r - 1] - binomial_z_expansion(lam, r)
    return Report(
        f"symbol expansion lambda={lam} r={r}",
        (residual_check(f"Z_{r} matches its binomial expansion", diff),),
    )


def letter_positions(lam: Composition) -> tuple[dict, bytes]:
    """The position of e[i,j;s] for each letter T[i,j;s+1], and a table of
    each position's loop weight s, one byte per word of centralizer.LETTERS;
    pbw_algebra first caps dim g_e."""
    basis = pbw_algebra(lam).basis
    return ({TSymbol(x.i, x.j, x.r + 1): t for t, x in enumerate(basis)},
            bytes(x.r for x in basis).ljust(len(LETTERS), b"\0"))


def verify_graded_image(lam: Composition, r: int) -> Report:
    """Loop-weight bound on Z_r and the image of its top-weight part.

    Every word of Z_r must have loop weight at most m = r - d_r, and the
    weight-m part must map onto (-1)^m times the weight-r central
    generator under the letter substitution T[i,j;s+1] -> (-1)^s e[i,j;s].
    """
    require_weight(lam, r)
    position, weights = letter_positions(lam)
    m = r - invariant_degrees(lam)[r - 1]
    # the letter signs of a word multiply to (-1)^(its loop weight) = (-1)^m
    sign = -1 if m % 2 else 1
    over, top = FreeElement({}), {}
    for word, c in z_polynomial(lam)[r - 1].terms.items():
        try:
            letters = bytes([position[x] for x in word])
        except KeyError as exc:  # T[i,j;s] with e[i,j;s-1] outside the basis
            i, j, s = exc.args[0]
            raise inadmissible_label(lam, (i, j, s - 1)) from None
        weight = sum(letters.translate(weights))
        if weight > m:
            over.terms[word] = c
        elif weight == m:
            top[letters] = sign * c
    diff = product_sum(lam, top) - sign * central_element(lam, r)
    checks = (
        Check(f"loop weight of Z_{r} bounded by {m}", not over,
              f"{len(over.terms)} words exceed the bound, "
              f"leading {over.leading_term()!r}" if over else ""),
        residual_check(
            f"top-weight image equals ({'-' if sign < 0 else '+'}1)^{m} z_{r}",
            diff),
    )
    return Report(f"graded image lambda={lam} r={r}", checks)
