"""Evaluation on the affine slice and algebraic independence.

The slice lives inside the dual of the centralizer: its points assign to
e[i,j;r] the coordinate p[j,r] when i = n, the constant 1 when j = i + 1
and r = lam_j - 1, and 0 otherwise.  Restriction of top symbols to the
slice is the induced algebra map into the polynomial ring on the N
coordinates p[j,t], 0 <= t < lam_j.  The construction requires weakly
increasing parts; for decreasing parts the bottom-row labels fall outside
the admissible window.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import NamedTuple

from .centralizer import BasisIndex, basis_list, is_admissible
from .composition import Composition, invariant_degrees
from .invariants import Polynomial, elementary_invariant
from .linalg import rational_rank
from .reports import Check, Report
from .sparse import accumulate

JACOBIAN_ATTEMPTS = 5


class PVar(NamedTuple):
    """Slice coordinate p[j,t] with 1 <= j <= n and 0 <= t < lam_j."""

    j: int
    t: int


def _require_increasing(lam: Composition):
    if not lam.is_increasing:
        raise ValueError(
            f"slice evaluation needs weakly increasing parts, got {lam}"
        )


def slice_coordinates(lam: Composition) -> tuple[PVar, ...]:
    """All N coordinates, ordered by row then offset."""
    _require_increasing(lam)
    return tuple(
        PVar(j, t) for j in range(1, lam.n + 1) for t in range(lam.part(j))
    )


def evaluate_basis_at_slice(lam: Composition, idx) -> Polynomial:
    """Value of one basis label as a polynomial in the slice coordinates."""
    _require_increasing(lam)
    idx = BasisIndex(*idx)
    if not is_admissible(lam, idx):
        raise ValueError(f"inadmissible label {tuple(idx)} for lambda={lam}")
    i, j, r = idx
    if i == lam.n:
        return Polynomial.variable(PVar(j, r))
    if j == i + 1 and r == lam.part(j) - 1:
        return Polynomial.constant(1)
    return Polynomial.zero()


def restrict(lam: Composition, p: Polynomial) -> Polynomial:
    """Restriction to the slice of a polynomial in basis labels.

    Each variable evaluates to 0, 1 or a single coordinate, so monomials
    map to monomials and this is the induced algebra homomorphism.
    """
    _require_increasing(lam)
    images: dict = {}
    out: dict = {}
    for mono, c in p.terms.items():
        pvars = []
        dead = False
        for v in mono:
            img = images.get(v)
            if img is None:
                img = evaluate_basis_at_slice(lam, v)
                images[v] = img
            if img.is_zero():
                dead = True
                break
            ((m, cm),) = img.terms.items()
            assert cm == 1, "slice images are monic by construction"
            pvars.extend(m)
        if dead:
            continue
        accumulate(out, ((tuple(sorted(pvars)), c),))
    return Polynomial(out)


def expected_restriction(lam: Composition, r: int) -> Polynomial:
    """Predicted slice value of the degree-d_r invariant.

    With d = d_r and s = r - (lam_n + ... + lam_{n-d+2}), the prediction
    is (-1)^(d-1) p[n-d+1, s-1].
    """
    _require_increasing(lam)
    if not 1 <= r <= lam.N:
        raise ValueError(f"weight must lie in 1..{lam.N}, got {r}")
    d = invariant_degrees(lam)[r - 1]
    n = lam.n
    s = r - sum(lam.parts[n - d + 1:])
    sign = -1 if (d - 1) % 2 else 1
    return sign * Polynomial.variable(PVar(n - d + 1, s - 1))


def verify_slice_coordinates(lam: Composition) -> Report:
    """Slice values of all N invariants, plus bijectivity onto coordinates."""
    _require_increasing(lam)
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


@dataclass(frozen=True)
class JacobianCertificate:
    """Outcome of the randomized full-rank search.

    certified=True proves independence; certified=False is inconclusive.
    """

    lam: Composition
    certified: bool
    rank: int
    target: int
    points_tried: int
    point_index: int | None
    seed: int

    def to_json_obj(self) -> dict:
        return {
            "schema": 1,
            "lambda": self.lam.to_string(),
            "certified": self.certified,
            "rank": self.rank,
            "target": self.target,
            "points_tried": self.points_tried,
            "point_index": self.point_index,
            "seed": self.seed,
        }


def jacobian_independence(lam: Composition, seed: int = 0) -> JacobianCertificate:
    """Certify algebraic independence by exact Jacobian rank at random points.

    Rows are the N invariants, columns the basis labels; points have
    integer coordinates in [-9, 9] drawn from a seeded generator.  Full
    rank at any point is a proof; failure after JACOBIAN_ATTEMPTS points
    is reported as inconclusive, never as a refutation.
    """
    polys = [elementary_invariant(lam, r) for r in range(1, lam.N + 1)]
    variables = basis_list(lam)
    partials = [{v: p.partial(v) for v in p.variables()} for p in polys]
    rng = random.Random(seed)
    target = len(polys)
    best = 0
    point_index = None
    tried = 0
    for k in range(JACOBIAN_ATTEMPTS):
        point = {v: rng.randint(-9, 9) for v in variables}
        rank = rational_rank([{v: q.evaluate(point) for v, q in row.items()}
                              for row in partials])
        tried = k + 1
        best = max(best, rank)
        if rank == target:
            point_index = k
            break
    return JacobianCertificate(
        lam=lam,
        certified=point_index is not None,
        rank=best,
        target=target,
        points_tried=tried,
        point_index=point_index,
        seed=seed,
    )
