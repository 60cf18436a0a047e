"""Evaluation on the affine slice and algebraic independence.

The slice base point xi_0 of the dual of the centralizer is 1 on the
labels e[i,i+1;lam_{i+1}-1] when the parts increase, 1 on the mirrored
labels e[i+1,i;lam_i-1] otherwise, and 0 on every other label.  For
increasing parts the slice is xi_0 plus the coordinates p[j,r] on the
bottom-row labels e[n,j;r], 0 <= r < lam_j.  Restriction of top symbols
to the slice is the induced algebra map into the polynomial ring on these
N coordinates, a substitution from slice_values, the one table of every
label's value; for decreasing parts the bottom-row labels fall outside
the admissible window, so restriction needs increasing parts.  The
Jacobian of the invariants at xi_0 certifies their independence for
either orientation; since xi_0 takes only the values 0 and 1, its
entries are read off the monomials of each x_r in one pass.
"""

from __future__ import annotations

from typing import NamedTuple

from .centralizer import BasisIndex, basis_list, inadmissible_label
from .composition import (Composition, invariant_degrees, per_composition,
                          require_increasing, require_weight)
from .invariants import Polynomial, elementary_invariant
from .linalg import accumulate, rational_rank
from .reports import Check, Report


class PVar(NamedTuple):
    """Slice coordinate p[j,t] with 1 <= j <= n and 0 <= t < lam_j."""

    j: int
    t: int


def base_point(lam: Composition) -> dict[BasisIndex, int]:
    """The nonzero values of the slice base point xi_0: 1 on
    e[i,i+1;lam_{i+1}-1] for increasing parts, else on e[i+1,i;lam_i-1]."""
    if lam.is_increasing:
        return {BasisIndex(i, i + 1, lam.part(i + 1) - 1): 1
                for i in range(1, lam.n)}
    return {BasisIndex(i + 1, i, lam.part(i) - 1): 1 for i in range(1, lam.n)}


@per_composition
def slice_values(lam: Composition) -> dict:
    """The value on the slice of every basis label: p[j,t] on the
    bottom-row label e[n,j;t], 1 on the base point, 0 elsewhere."""
    require_increasing(lam, "slice evaluation")
    ones = base_point(lam)
    return {idx: PVar(idx.j, idx.r) if idx.i == lam.n else ones.get(idx, 0)
            for idx in basis_list(lam)}


def slice_coordinates(lam: Composition) -> tuple[PVar, ...]:
    """All N coordinates, ordered by row then offset."""
    return tuple(v for v in slice_values(lam).values() if type(v) is PVar)


def restrict(lam: Composition, p: Polynomial) -> Polynomial:
    """Restriction to the slice of a polynomial in basis labels.

    Each variable evaluates to 0, 1 or a single coordinate, so monomials
    map to monomials and this is the induced algebra homomorphism.  Every
    letter is read, so a label outside the basis raises even in a term
    that vanishes.
    """
    values = slice_values(lam)
    out: dict = {}
    for mono, c in p.terms.items():
        image = []
        for v in mono:
            value = values.get(v)
            if value is None:
                raise inadmissible_label(lam, v)
            image.append(value)
        if all(image):
            accumulate(out, ((tuple(sorted(v for v in image if v != 1)), c),))
    return Polynomial(out)


def expected_restriction(lam: Composition, r: int) -> Polynomial:
    """Predicted slice value of the degree-d_r invariant.

    With d = d_r and s = r - (lam_n + ... + lam_{n-d+2}), the prediction
    is (-1)^(d-1) p[n-d+1, s-1].
    """
    require_increasing(lam, "slice evaluation")
    require_weight(lam, r)
    d = invariant_degrees(lam)[r - 1]
    n = lam.n
    s = r - sum(lam.parts[n - d + 1:])
    sign = -1 if (d - 1) % 2 else 1
    return sign * Polynomial.variable(PVar(n - d + 1, s - 1))


def verify_slice_coordinates(lam: Composition) -> Report:
    """Slice values of all N invariants, plus bijectivity onto coordinates."""
    require_increasing(lam, "slice evaluation")
    checks = []
    hit: dict[PVar, int] = {}
    for r in range(1, lam.N + 1):
        actual = restrict(lam, elementary_invariant(lam, r))
        expected = expected_restriction(lam, r)
        ok = actual == expected
        checks.append(
            Check(f"restrict(x_{r}) = {expected!r}", ok,
                  "" if ok else f"got {actual!r}")
        )
        ((mono, _),) = expected.terms.items()
        hit[mono[0]] = r
    bijective = set(hit) == set(slice_coordinates(lam))
    checks.append(
        Check("weights biject onto slice coordinates", bijective,
              f"{len(hit)} distinct coordinates out of {lam.N}")
    )
    return Report(f"slice restriction lambda={lam}", tuple(checks))


def jacobian_independence(lam: Composition) -> Report:
    """Certify algebraic independence by the exact Jacobian rank at xi_0.

    Rows are the N invariants, columns the basis labels, and the point is
    the slice base point.  Rank N there proves independence.  For
    increasing parts each x_r restricts to +-a distinct slice coordinate,
    so the columns at the coordinate labels already form a signed
    permutation matrix.

    xi_0 is 1 on the base-point labels and 0 elsewhere, so the entries are
    read off the monomials in one pass: a term c*m with exactly one letter
    off the base point, counted with multiplicity, adds c at that letter;
    one with none adds c times its multiplicity at each letter of m; any
    other term vanishes to second order at xi_0.
    """
    ones = base_point(lam)
    rows = []
    for r in range(1, lam.N + 1):
        row: dict = {}
        for m, c in elementary_invariant(lam, r).terms.items():
            rest = [v for v in m if v not in ones]
            if len(rest) == 1:
                accumulate(row, ((rest[0], c),))
            elif not rest:
                accumulate(row, ((v, c * m.count(v)) for v in set(m)))
        rows.append(row)
    rank = rational_rank(rows)
    check = Check(f"Jacobian of x_1..x_{lam.N} at the slice base point has "
                  f"rank {lam.N}", rank == lam.N, f"rank {rank} of {lam.N}")
    return Report(f"algebraic independence lambda={lam}", (check,))
