"""Combinatorics of weakly monotone compositions.

A composition here is a finite sequence of positive integers, kept weakly
monotone because the box numbering of the associated diagram (and hence
every basis label downstream) depends on the order of the parts.  The
module provides the degree sequence of the generating invariants, the
enumeration of subcompositions of a given weight with as few nonzero parts
as possible, and the shift s_{i,j} = lam_j - min(lam_i, lam_j) that
bounds from below the degrees admissible for the row pair (i, j); only
centralizer reads the shift, to state the admissible window.  A
subcomposition mu is a plain tuple of parts 0 <= mu_i <= lam_i, built here
alone, by one recursive walk over the remaining parts, weight and room;
centralizer.determinant_sum walks the minimal ones.  state(lam) is the
one cache: every builder under per_composition writes its result for lam
there once, and only the rewriting memo that the PbwAlgebra there owns
and the linalg.column_minor memos, centralizer.minor_table, grow after;
all of it goes when another composition is asked for.
"""

from __future__ import annotations

from functools import lru_cache, wraps
from typing import NamedTuple

MAX_TOTAL = 64


class Composition(NamedTuple("Composition", [("parts", tuple)])):
    """A weakly monotone tuple of positive part sizes.

    A named tuple of its parts: frozen, equal and hashed as (parts,), so
    equal to no bare tuple of parts.  Construction and unpickling (protocol
    2 and up) run __new__'s checks; _make and _replace would skip them, and
    nothing calls either.
    """

    __slots__ = ()

    def __new__(cls, parts):
        parts = tuple(parts)
        if not parts:
            raise ValueError("a composition needs at least one part")
        # type, not isinstance: a bool is an int, and 2.7 must not become 2
        if any(type(p) is not int or p < 1 for p in parts):
            raise ValueError(f"parts must be positive integers, got {parts}")
        if sum(parts) > MAX_TOTAL:
            raise ValueError(
                f"total {sum(parts)} exceeds the supported bound {MAX_TOTAL}"
            )
        self = super().__new__(cls, parts)
        decreasing = all(a >= b for a, b in zip(parts, parts[1:]))
        if not (self.is_increasing or decreasing):
            # sorting silently would renumber boxes and relabel every basis
            # element, so the caller must commit to an order explicitly
            raise ValueError(f"parts {parts} are not weakly monotone")
        return self

    @classmethod
    def from_string(cls, text: str) -> "Composition":
        """Parse comma separated parts, e.g. ``"2,3,4"``, each ASCII digits:
        int() alone would also read "1_0", "+2" and fullwidth digits."""
        parts = [p.strip() for p in text.split(",")]
        if not all(p.isascii() and p.isdigit() for p in parts):
            raise ValueError(f"cannot parse composition from {text!r}")
        return cls(tuple(map(int, parts)))

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

    __str__ = to_string


@lru_cache(maxsize=1)
def state(lam: Composition) -> dict:
    """Everything cached for lam; asking for another lam drops it whole."""
    return {}


def per_composition(build):
    """Keep build(lam, *args) in state(lam) under (build, *args), unless
    it raises."""
    @wraps(build)
    def cached(lam, *args):
        memo, key = state(lam), (build, *args)
        value = memo.get(key, memo)
        if value is memo:
            value = memo[key] = build(lam, *args)
        return value

    return cached


def invariant_degrees(lam: Composition) -> tuple[int, ...]:
    """Degree sequence (d_1, ..., d_N) of the N generating invariants.

    The value k occurs as often as the k-th largest part, in either
    orientation; the result is weakly increasing, and d_r is the fewest
    nonzero parts of a weight-r subcomposition, which enumerate_mu keeps.
    """
    out = []
    for k, c in enumerate(sorted(lam.parts, reverse=True), start=1):
        out.extend([k] * c)
    return tuple(out)


def require_weight(lam: Composition, r: int) -> None:
    """Raise ValueError unless the weight r lies in 1..N."""
    if not 1 <= r <= lam.N:
        raise ValueError(f"weight must lie in 1..{lam.N}, got {r}")


def require_increasing(lam: Composition, what: str) -> None:
    """Raise ValueError unless the parts of lam weakly increase."""
    if not lam.is_increasing:
        raise ValueError(f"{what} needs weakly increasing parts, got {lam}")


def weight_subcompositions(lam: Composition, r: int):
    """All weight-r subcompositions as part tuples, ascending lexicographic.

    r is checked here, at the call, before the walk is returned.
    """
    if not 0 <= r <= lam.N:
        raise ValueError(f"weight must lie in 0..{lam.N}, got {r}")
    return _subcompositions(lam.parts, r, lam.N)


def _subcompositions(parts: tuple, weight: int, room: int):
    """Tuples mu with 0 <= mu_i <= parts_i summing to weight, ascending
    lexicographic; room is sum(parts)."""
    if not parts:
        yield ()
        return
    head, rest = parts[0], parts[1:]
    room -= head
    for v in range(max(0, weight - room), min(head, weight) + 1):
        for tail in _subcompositions(rest, weight - v, room):
            yield (v, *tail)


@per_composition
def enumerate_mu(lam: Composition, r: int) -> tuple[tuple[int, ...], ...]:
    """The weight-r subcompositions with the fewest nonzero parts, d_r, in
    ascending lexicographic order; never empty for 1 <= r <= N.  One walk
    keeps the fewest-parts mu met so far."""
    require_weight(lam, r)
    out, zeros = [], -1
    for mu in weight_subcompositions(lam, r):
        z = mu.count(0)
        if z > zeros:
            out, zeros = [], z
        if z == zeros:
            out.append(mu)
    if not out:
        raise RuntimeError(f"no subcomposition of weight {r} under {lam}")
    return tuple(out)


def shift(lam: Composition, i: int, j: int) -> int:
    """Entry s_{i,j} = lam_j - min(lam_i, lam_j) of the shift matrix, 1-based."""
    return lam.part(j) - min(lam.part(i), lam.part(j))


def monotone_compositions(total: int) -> list[Composition]:
    """All weakly monotone compositions of the given total.

    Weakly increasing ones first, in ascending lexicographic order, then
    each non-constant one reversed; filtering on is_increasing keeps the
    first block.
    """
    if total < 1:
        raise ValueError("total must be positive")
    out = [Composition(parts) for parts in _increasing(total, 1)]
    out.extend(c.reversed() for c in list(out) if c.parts != c.parts[::-1])
    return out


def _increasing(remaining: int, least: int):
    """Weakly increasing tuples of parts >= least summing to remaining."""
    if not remaining:
        yield ()
    for p in range(least, remaining + 1):
        for tail in _increasing(remaining - p, p):
            yield (p, *tail)
