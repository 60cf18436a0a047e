"""Top symbols in the symmetric algebra, adjoint and coadjoint actions.

The associated graded of the enveloping algebra is the polynomial ring on
the basis labels; top_symbol extracts the image of an element in its
filtration degree.  The adjoint action extends the bracket as a
derivation; the coadjoint action acts on dual labels with the convention
that labels falling outside the admissible window are zero.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import NamedTuple

from .centralizer import BasisIndex, basis_list, is_admissible, structure_constants
from .composition import Composition, enumerate_mu
from .linalg import column_determinant, format_scalar, parse_scalar
from .reports import Check, Report
from .sparse import SparseElement, accumulate


class Polynomial(SparseElement):
    """Sparse commutative polynomial.

    Monomials are sorted tuples of hashable, orderable variable labels;
    coefficients are exact scalars.  The zero polynomial has no terms.
    """

    __slots__ = ()

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls({})

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls({(): c} if c else {})

    @classmethod
    def variable(cls, v) -> "Polynomial":
        return cls({(v,): 1})

    def degree(self) -> int:
        if not self.terms:
            raise ValueError("the zero polynomial has no degree")
        return max(len(m) for m in self.terms)

    def variables(self) -> set:
        return {v for m in self.terms for v in m}

    def coefficient(self, mono) -> object:
        return self.terms.get(tuple(sorted(mono)), 0)

    def evaluate(self, assignment: dict):
        """Value at a point given as a total map from variables to scalars."""
        total = 0
        for mono, c in self.terms.items():
            v = c
            for var in mono:
                v *= assignment[var]
            total += v
        return total

    def partial(self, var) -> "Polynomial":
        """Partial derivative with respect to one variable."""
        pairs = []
        for mono, c in self.terms.items():
            k = mono.count(var)
            if k:
                pos = mono.index(var)
                pairs.append((mono[:pos] + mono[pos + 1:], k * c))
        return Polynomial(accumulate({}, pairs))

    def _times(self, m1, m2):
        return ((tuple(sorted(m1 + m2)), 1),)

    def _format_monomial(self, mono) -> str:
        if not mono:
            return "1"
        bits = []
        for v, group in itertools.groupby(mono):
            k = len(list(group))
            s = _format_variable(v)
            bits.append(s if k == 1 else f"{s}^{k}")
        return "*".join(bits)


def _format_variable(v) -> str:
    if isinstance(v, BasisIndex):
        return f"e[{v.i},{v.j};{v.r}]"
    if isinstance(v, tuple) and len(v) == 2:
        return f"p[{v[0]},{v[1]}]"
    return str(v)


def top_symbol(a) -> Polynomial:
    """Image of a nonzero enveloping-algebra element in its top degree.

    Normal-form words of maximal length are reread as commutative
    monomials in the basis labels.
    """
    if a.is_zero():
        raise ValueError("the zero element has no top symbol")
    top = max(len(m) for m in a.terms)
    basis = a.algebra.basis
    return Polynomial({
        tuple(basis[t] for t in word): c
        for word, c in a.terms.items()
        if len(word) == top
    })


@lru_cache(maxsize=None)
def elementary_invariant(lam: Composition, r: int) -> Polynomial:
    """Degree d_r invariant: commutative determinant sum over enumerate_mu.

    Built directly in the symmetric algebra, without shifts, so it can
    serve as an independent target for top_symbol(central_element).
    """
    if not 1 <= r <= lam.N:
        raise ValueError(f"weight must lie in 1..{lam.N}, got {r}")
    total = Polynomial.zero()
    for mu in enumerate_mu(lam, r):
        supp = mu.support()
        total = total + column_determinant(
            [[Polynomial.variable(BasisIndex(row, col, mu.part(col) - 1))
              for col in supp]
             for row in supp]
        )
    return total


def adjoint_action(lam: Composition, x, p: Polynomial) -> Polynomial:
    """Derivation extending y -> [x, y] on variables."""
    sc = structure_constants(lam)
    x = BasisIndex(*x)
    if not is_admissible(lam, x):
        raise ValueError(f"inadmissible label {tuple(x)} for lambda={lam}")
    return Polynomial(accumulate({}, (
        (tuple(sorted(mono[:t] + mono[t + 1:] + (z,))), c * cz)
        for mono, c in p.terms.items()
        for t, v in enumerate(mono)
        for z, cz in sc.bracket(x, v)
    )))


def verify_invariant(lam: Composition, r: int) -> Report:
    """Adjoint invariance of the degree-d_r symbol, generator by generator."""
    p = elementary_invariant(lam, r)
    checks = []
    for idx in basis_list(lam):
        q = adjoint_action(lam, idx, p)
        checks.append(
            Check(f"ad e[{idx.i},{idx.j};{idx.r}] kills x_{r}", q.is_zero(),
                  "" if q.is_zero() else f"residual has {len(q.terms)} terms")
        )
    return Report(f"invariance lambda={lam} r={r}", tuple(checks))


class DualIndex(NamedTuple):
    """Label f[i,j;r] of the dual basis vector of e[i,j;r]."""

    i: int
    j: int
    r: int


def dual_index_or_none(lam: Composition, i: int, j: int, r: int):
    """The dual label, or None when (i, j, r) falls outside the window.

    This is the single constructor through which the out-of-window-is-zero
    convention enters.
    """
    idx = BasisIndex(i, j, r)
    return DualIndex(i, j, r) if is_admissible(lam, idx) else None


def coadjoint_action(lam: Composition, x, phi) -> dict:
    """Action of a basis generator on a dual label.

    Returns a map from DualIndex to integer coefficients; inputs or
    outputs outside the admissible window are dropped as zero.
    """
    x = BasisIndex(*x)
    if not is_admissible(lam, x):
        raise ValueError(f"inadmissible label {tuple(x)} for lambda={lam}")
    i, j, r = x
    k, l, s = phi
    if dual_index_or_none(lam, k, l, s) is None:
        return {}
    images = []
    if j == l:
        images.append((dual_index_or_none(lam, k, i, s - r), 1))
    if i == k:
        images.append((dual_index_or_none(lam, j, l, s - r), -1))
    return accumulate({}, ((d, c) for d, c in images if d is not None))


def pairing_consistency(lam: Composition) -> Report:
    """Dual-pairing identity over every basis triple.

    For basis labels x, v, y: the coefficient of y in [x, v] must equal
    minus the coefficient of the dual of v in the coadjoint action of x on
    the dual of y.
    """
    sc = structure_constants(lam)
    basis = basis_list(lam)
    checks = []
    for x in basis:
        bad = ""
        for v in basis:
            bracket = dict(sc.bracket(x, v))
            dual_v = DualIndex(*v)
            for y in basis:
                lhs = bracket.get(y, 0)
                rhs = -coadjoint_action(lam, x, DualIndex(*y)).get(dual_v, 0)
                if lhs != rhs:
                    bad = f"v={tuple(v)}, y={tuple(y)}: {lhs} != {rhs}"
                    break
            if bad:
                break
        checks.append(
            Check(f"pairing at e[{x.i},{x.j};{x.r}]", not bad, bad)
        )
    return Report(f"pairing consistency lambda={lam}", tuple(checks))


def poly_to_json_obj(lam: Composition, p: Polynomial) -> dict:
    """Monomials serialize as sorted [variable, exponent] pairs."""
    items = []
    for mono in sorted(p.terms, key=lambda m: (len(m), m)):
        packed = [[list(v), len(list(g))] for v, g in itertools.groupby(mono)]
        items.append({"monomial": packed,
                      "coeff": format_scalar(p.terms[mono])})
    return {"schema": 1, "lambda": lam.to_string(), "terms": items}


def poly_from_json_obj(obj: dict) -> Polynomial:
    pairs = []
    for t in obj["terms"]:
        mono: tuple = ()
        for v, power in t["monomial"]:
            mono = mono + (BasisIndex(*v),) * power
        pairs.append((tuple(sorted(mono)), parse_scalar(t["coeff"])))
    return Polynomial(accumulate({}, pairs))
