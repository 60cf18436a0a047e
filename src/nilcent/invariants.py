"""Top symbols in the symmetric algebra and the adjoint action.

The associated graded of the enveloping algebra is the polynomial ring on
the basis labels; top_symbol extracts the image of an element in its
filtration degree.  adjoint_actions applies ad of the basis generators
it is given, the derivation extending the bracket, to one polynomial by
the walk of sparse.derivation_images that the centrality check also
runs: on words of basis positions, reading the bracket rows of
structure_constants.  verify_invariant checks that every basis generator
kills an elementary invariant p.  ad is a representation,
ad [x, y] = ad x ad y - ad y ad x, so the x in g_e with ad x . p = 0 form
a Lie subalgebra; verify_invariant applies only the generators of
centralizer.lie_generators, and if they all kill p, each basis row is
deduced to pass.  If one leaves a residual, every label is walked, so
each failed row names its own.  Polynomial supplies ring arithmetic
only: the slice restriction and the Jacobian read what they need off its
terms.
"""

from __future__ import annotations

import itertools
from bisect import insort
from functools import lru_cache

from .centralizer import BasisIndex, basis_list, lie_generators, structure_constants
from .composition import MAX_TOTAL, Composition, enumerate_mu
from .linalg import column_determinant, format_scalar
from .reports import Check, Report, residual_check
from .sparse import SparseElement, accumulate, derivation_images


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


@lru_cache(maxsize=MAX_TOTAL)
def elementary_invariant(lam: Composition, r: int) -> Polynomial:
    """Degree d_r invariant: commutative determinant sum over enumerate_mu.

    Built directly in the symmetric algebra, without shifts, so it can
    serve as an independent target for top_symbol(central_element).
    """
    if not 1 <= r <= lam.N:
        raise ValueError(f"weight must lie in 1..{lam.N}, got {r}")
    terms: dict = {}
    for mu in enumerate_mu(lam, r):
        supp = mu.support()
        det = column_determinant(
            [[Polynomial.variable(BasisIndex(row, col, mu.part(col) - 1))
              for col in supp]
             for row in supp]
        )
        accumulate(terms, det.terms.items())
    return Polynomial(terms)


def adjoint_actions(lam: Composition, p: Polynomial, labels):
    """Yield (idx, ad e_idx . p) for the basis positions in labels, in order.

    ad x is the derivation extending v -> [x, v] on variables: each
    bracket term replaces one variable of a monomial, which is sorted
    back into place.  Positions sort as the labels do.
    """
    sc = structure_constants(lam)
    basis, index_of = sc.basis, sc.index_of
    words = {tuple(index_of[v] for v in mono): c for mono, c in p.terms.items()}
    derivations = ((basis[t], sc.table[t].get) for t in labels)
    for x, terms in derivation_images(words, derivations, _sorted_insert):
        yield x, Polynomial({tuple(basis[t] for t in w): c for w, c in terms.items()})


def _sorted_insert(head: tuple, v, tail: tuple) -> dict:
    """The commutative monomial head * v * tail, sorted."""
    mono = list(head + tail)
    insort(mono, v)
    return {tuple(mono): 1}


def verify_invariant(lam: Composition, r: int) -> Report:
    """Adjoint invariance of the degree-d_r symbol, generator by generator.

    The generators of lie_generators(lam) are tried first; if they all
    kill x_r, every row passes.  Otherwise every label is tried, so each
    failed row names its own residual.
    """
    p = elementary_invariant(lam, r)
    basis = basis_list(lam)
    name = f"ad e[{{0.i}},{{0.j}};{{0.r}}] kills x_{r}".format
    if any(q for _, q in adjoint_actions(lam, p, lie_generators(lam))):
        checks = tuple(residual_check(name(idx), q) for idx, q
                       in adjoint_actions(lam, p, range(len(basis))))
    else:
        checks = tuple(Check(name(idx), True) for idx in basis)
    return Report(f"invariance lambda={lam} r={r}", checks)


def poly_to_json_obj(lam: Composition, p: Polynomial) -> dict:
    """Monomials serialize as sorted [variable, exponent] pairs."""
    items = []
    for mono in sorted(p.terms, key=lambda m: (len(m), m)):
        packed = [[list(v), len(list(g))] for v, g in itertools.groupby(mono)]
        items.append({"monomial": packed,
                      "coeff": format_scalar(p.terms[mono])})
    return {"schema": 1, "lambda": lam.to_string(), "terms": items}
