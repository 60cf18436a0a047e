"""Combinatorics of weakly monotone compositions.

A composition here is a finite sequence of positive integers, kept weakly
monotone because the box numbering of the associated diagram (and hence
every basis label downstream) depends on the order of the parts.  The
module provides the degree sequence of the generating invariants, the
enumeration of subcompositions of a given weight with as few nonzero parts
as possible, and the shift s_{i,j} = lam_j - min(lam_i, lam_j) that
bounds from below the degrees admissible for the row pair (i, j).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

MAX_TOTAL = 64


@dataclass(frozen=True)
class Composition:
    """A weakly monotone tuple of positive part sizes."""

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(self.parts)
        object.__setattr__(self, "parts", parts)
        if not parts:
            raise ValueError("a composition needs at least one part")
        # type, not isinstance: a bool is an int, and 2.7 must not become 2
        if any(type(p) is not int or p < 1 for p in parts):
            raise ValueError(f"parts must be positive integers, got {parts}")
        if sum(parts) > MAX_TOTAL:
            raise ValueError(
                f"total {sum(parts)} exceeds the supported bound {MAX_TOTAL}"
            )
        increasing = all(a <= b for a, b in zip(parts, parts[1:]))
        decreasing = all(a >= b for a, b in zip(parts, parts[1:]))
        if not (increasing or decreasing):
            # sorting silently would renumber boxes and relabel every basis
            # element, so the caller must commit to an order explicitly
            raise ValueError(f"parts {parts} are not weakly monotone")

    @classmethod
    def from_string(cls, text: str) -> "Composition":
        """Parse a comma separated list of parts, e.g. ``"2,3,4"``."""
        try:
            parts = tuple(int(p) for p in text.split(","))
        except ValueError:
            raise ValueError(f"cannot parse composition from {text!r}") from None
        return cls(parts)

    def to_string(self) -> str:
        return ",".join(str(p) for p in self.parts)

    @property
    def N(self) -> int:
        """Total number of boxes."""
        return sum(self.parts)

    @property
    def n(self) -> int:
        """Number of rows."""
        return len(self.parts)

    @property
    def is_increasing(self) -> bool:
        return all(a <= b for a, b in zip(self.parts, self.parts[1:]))

    def part(self, i: int) -> int:
        """The i-th part, 1-based."""
        return self.parts[i - 1]

    def reversed(self) -> "Composition":
        return Composition(self.parts[::-1])

    def __str__(self):
        return self.to_string()


@dataclass(frozen=True)
class SubComposition:
    """A componentwise bounded tuple 0 <= mu_i <= lambda_i.

    Immutable so that weight, length and support can never go stale.
    """

    parent: Composition
    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(self.parts)
        object.__setattr__(self, "parts", parts)
        # type, not isinstance, for the reason given in Composition
        if any(type(p) is not int for p in parts):
            raise ValueError(f"parts must be integers, got {parts}")
        bounds = self.parent.parts
        if len(parts) != len(bounds):
            raise ValueError(
                f"expected {len(bounds)} parts for parent {self.parent}, got {parts}"
            )
        if any(p < 0 or p > b for p, b in zip(parts, bounds)):
            raise ValueError(f"parts {parts} not bounded by {bounds}")

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        """Number of nonzero parts."""
        return sum(1 for p in self.parts if p)

    def part(self, i: int) -> int:
        return self.parts[i - 1]

    def support(self) -> tuple[int, ...]:
        """1-based positions of the nonzero parts, in increasing order."""
        return tuple(i for i, p in enumerate(self.parts, start=1) if p)

    def __str__(self):
        return ",".join(str(p) for p in self.parts)


@lru_cache(maxsize=1)
def invariant_degrees(lam: Composition) -> tuple[int, ...]:
    """Degree sequence (d_1, ..., d_N) of the N generating invariants.

    For weakly increasing parts the value k occurs lam.part(n + 1 - k)
    times, for weakly decreasing parts it occurs lam.part(k) times; either
    way the result is weakly increasing and d_r equals min_length(lam, r).
    """
    counts = lam.parts[::-1] if lam.is_increasing else lam.parts
    out = []
    for k, c in enumerate(counts, start=1):
        out.extend([k] * c)
    return tuple(out)


def require_weight(lam: Composition, r: int) -> None:
    """Raise ValueError unless the weight r lies in 1..N."""
    if not 1 <= r <= lam.N:
        raise ValueError(f"weight must lie in 1..{lam.N}, got {r}")


def min_length(lam: Composition, r: int) -> int:
    """Fewest nonzero parts over subcompositions of lam with weight r.

    Equals the smallest d whose d largest parts sum to at least r.
    """
    require_weight(lam, r)
    total = 0
    for d, p in enumerate(sorted(lam.parts, reverse=True), start=1):
        total += p
        if total >= r:
            return d
    raise AssertionError("unreachable: r <= N")


def weight_subcompositions(lam: Composition, r: int):
    """All subcompositions of weight r, ascending lexicographic in the parts."""
    if not 0 <= r <= lam.N:
        raise ValueError(f"weight must lie in 0..{lam.N}, got {r}")
    bounds = lam.parts
    n = len(bounds)
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + bounds[i]
    prefix: list[int] = []

    def rec(i: int, remaining: int):
        if i == n:
            yield SubComposition(lam, tuple(prefix))
            return
        low = max(0, remaining - suffix[i + 1])
        high = min(bounds[i], remaining)
        for v in range(low, high + 1):
            prefix.append(v)
            yield from rec(i + 1, remaining - v)
            prefix.pop()

    yield from rec(0, r)


@lru_cache(maxsize=MAX_TOTAL)
def enumerate_mu(lam: Composition, r: int) -> tuple[SubComposition, ...]:
    """Weight-r subcompositions with the minimal number of nonzero parts.

    Returned in ascending lexicographic order of the part tuples; never
    empty for 1 <= r <= N.
    """
    d = min_length(lam, r)
    out = tuple(mu for mu in weight_subcompositions(lam, r) if mu.length == d)
    assert out, f"no subcomposition of weight {r} and length {d} under {lam}"
    return out


def shift(lam: Composition, i: int, j: int) -> int:
    """Entry s_{i,j} = lam_j - min(lam_i, lam_j) of the shift matrix, 1-based."""
    return lam.part(j) - min(lam.part(i), lam.part(j))


def factors_admissible(lam: Composition, mu: SubComposition) -> bool:
    """Whether every factor of the column determinant for mu is admissible.

    Rows and columns are the support of mu; the factor in row a, column b
    has degree mu_b - 1, which is admissible exactly when mu_b exceeds the
    shift matrix entry s_{a,b}.  Every (row, column) pair is a factor of
    some permutation, so this covers every summand.
    """
    supp = mu.support()
    return all(mu.part(b) > shift(lam, a, b) for a in supp for b in supp)


def monotone_compositions(total: int) -> list[Composition]:
    """All weakly monotone compositions of the given total.

    Weakly increasing ones first, in ascending lexicographic order, then
    each non-constant one reversed; filtering on is_increasing keeps the
    first block.
    """
    if total < 1:
        raise ValueError("total must be positive")
    out: list[Composition] = []
    prefix: list[int] = []

    def rec(remaining: int, minimum: int):
        if remaining == 0:
            out.append(Composition(tuple(prefix)))
            return
        for p in range(minimum, remaining + 1):
            prefix.append(p)
            rec(remaining - p, p)
            prefix.pop()

    rec(total, 1)
    out.extend(c.reversed() for c in list(out) if c.parts != c.parts[::-1])
    return out
