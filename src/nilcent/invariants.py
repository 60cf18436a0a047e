"""Top symbols in the symmetric algebra and the direct invariance walk.

The associated graded of the enveloping algebra is the polynomial ring on
the basis labels; top_symbol extracts the image of an element in its
filtration degree.  elementary_invariant is centralizer.determinant_sum
with the labels as commutative variables, whose minors stay in a
linalg.column_minor memo of their own, centralizer.minor_table.  The
sweep does not walk x_r: it derives invariance from the centrality of
z_r and from top_symbol(z_r) = x_r, since the symbol map commutes with
ad.
verify_invariant is the direct reference for that row.  It checks that
ad of every basis generator, the derivation extending the bracket, kills
an elementary invariant: it rewrites the monomials as words of basis
positions, bytes as in the enveloping algebra, and hands them to
centralizer.annihilator_checks, whose walk, centralizer.adjoint_images,
the centrality check also runs, with each bracket term sorted into its
monomial.  Polynomial supplies ring arithmetic only: the slice
restriction and the Jacobian read what they need off its terms.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right

from .centralizer import (LABEL, LETTERS, BasisIndex, annihilator_checks,
                          determinant_sum, require_letters,
                          structure_constants)
from .composition import Composition, per_composition
from .enveloping import filtration_degree
from .linalg import SparseElement, format_scalar
from .reports import Report


class Polynomial(SparseElement):
    """Sparse commutative polynomial.

    Monomials are sorted tuples of basis labels or slice coordinates PVar;
    coefficients are exact scalars.  The zero polynomial has no terms.
    """

    __slots__ = ()

    @classmethod
    def variable(cls, v) -> "Polynomial":
        return cls({(v,): 1})

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
        return LABEL.format(v)
    return f"p[{v[0]},{v[1]}]"


def top_symbol(a) -> Polynomial:
    """Image of a nonzero enveloping-algebra element in its top degree.

    Normal-form words of maximal length are reread as commutative
    monomials in the basis labels.
    """
    top = filtration_degree(a)
    basis = a.algebra.basis
    return Polynomial({
        tuple(basis[t] for t in word): c
        for word, c in a.terms.items()
        if len(word) == top
    })


@per_composition
def elementary_invariant(lam: Composition, r: int) -> Polynomial:
    """Degree d_r invariant: determinant_sum over commutative labels.

    Built directly in the symmetric algebra, without shifts, so it can
    serve as an independent target for top_symbol(central_element).
    """
    return Polynomial(determinant_sum(lam, r, Polynomial.variable))


def _sorted_insert(head: bytes, v: int, tail: bytes) -> dict:
    """The commutative monomial head * v * tail, sorted; head + tail is
    sorted, as adjoint_images passes it."""
    rest = head + tail
    p = bisect_right(rest, v)
    return {rest[:p] + LETTERS[v] + rest[p:]: 1}


def verify_invariant(lam: Composition, r: int) -> Report:
    """Adjoint invariance of the degree-d_r symbol, generator by generator."""
    require_letters(lam)
    p = elementary_invariant(lam, r)
    sc = structure_constants(lam)
    # words of positions sort as the labels do
    words = {bytes(sc.index_of[v] for v in mono): c
             for mono, c in p.terms.items()}
    checks = annihilator_checks(
        lam, words, _sorted_insert,
        lambda terms: Polynomial({tuple(sc.basis[t] for t in w): c
                                  for w, c in terms.items()}),
        f"ad {{}} kills x_{r}".format)
    return Report(f"invariance lambda={lam} r={r}", checks)


def poly_to_json_obj(lam: Composition, p: Polynomial) -> dict:
    """Monomials serialize as sorted [variable, exponent] pairs."""
    items = []
    for mono in sorted(p.terms, key=lambda m: (len(m), m)):
        packed = [[list(v), len(list(g))] for v, g in itertools.groupby(mono)]
        items.append({"monomial": packed,
                      "coeff": format_scalar(p.terms[mono])})
    return {"schema": 1, "lambda": lam.to_string(), "terms": items}
