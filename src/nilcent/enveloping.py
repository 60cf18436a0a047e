"""The enveloping algebra of the centralizer, in PBW normal form.

Elements are finite maps from weakly increasing words in the fixed basis
order to exact scalars.  Products are straightened by adjacent
transposition: an out-of-order pair x*y rewrites to y*x + [x, y] with the
bracket read from the tabulated structure constants.  Each rewrite lowers
(word length, inversion count) lexicographically, so the reduction
terminates, and results are memoised per word inside a per-composition
context.  Basis labels are interned as small integers internally; all
public interfaces speak BasisIndex.
"""

from __future__ import annotations

from functools import lru_cache

from .centralizer import BasisIndex, basis_list, structure_constants
from .composition import (
    Composition,
    SubComposition,
    enumerate_mu,
    factors_admissible,
    invariant_degrees,
)
from .linalg import column_determinant, format_scalar
from .reports import Check, Report
from .sparse import SparseElement, accumulate


class PbwAlgebra:
    """Multiplication context for one composition; obtain via pbw_algebra()."""

    def __init__(self, lam: Composition):
        self.lam = lam
        self.basis = basis_list(lam)
        self.index_of = {idx: t for t, idx in enumerate(self.basis)}
        bracket = {}
        for (x, y), terms in structure_constants(lam).table.items():
            bracket[(self.index_of[x], self.index_of[y])] = tuple(
                (self.index_of[z], c) for z, c in terms
            )
        self._bracket = bracket
        self._nf_memo: dict[tuple, dict] = {}
        self._central: dict[int, "PbwElement"] = {}

    def zero(self) -> "PbwElement":
        return PbwElement(self, {})

    def scalar(self, c) -> "PbwElement":
        return PbwElement(self, {(): c} if c else {})

    def one(self) -> "PbwElement":
        return self.scalar(1)

    def embed(self, idx) -> "PbwElement":
        t = self.index_of.get(BasisIndex(*idx))
        if t is None:
            raise ValueError(f"inadmissible label {tuple(idx)} for lambda={self.lam}")
        return PbwElement(self, {(t,): 1})

    def tilde(self, idx) -> "PbwElement":
        """Generator shifted by its diagonal constant.

        e[i,i;0] is lowered by (i - 1) * lam_i; all other generators are
        unchanged.
        """
        idx = BasisIndex(*idx)
        el = self.embed(idx)
        if idx.r == 0 and idx.i == idx.j:
            shift = (idx.i - 1) * self.lam.part(idx.i)
            if shift:
                el = el - self.scalar(shift)
        return el

    def _normal_form(self, word: tuple) -> dict:
        """Memoised normal form of an arbitrary word of interned labels.

        Returned dicts are shared and must not be mutated by callers.
        """
        memo = self._nf_memo
        cached = memo.get(word)
        if cached is not None:
            return cached
        pos = -1
        for t in range(len(word) - 1):
            if word[t] > word[t + 1]:
                pos = t
                break
        if pos < 0:
            result = {word: 1}
        else:
            x, y = word[pos], word[pos + 1]
            head, tail = word[:pos], word[pos + 2:]
            result = dict(self._normal_form(head + (y, x) + tail))
            for z, c in self._bracket.get((x, y), ()):
                accumulate(result,
                           self._normal_form(head + (z,) + tail).items(), c)
        memo[word] = result
        return result


@lru_cache(maxsize=None)
def pbw_algebra(lam: Composition) -> PbwAlgebra:
    return PbwAlgebra(lam)


class PbwElement(SparseElement):
    """An element of the enveloping algebra, stored in normal form."""

    __slots__ = ("algebra",)

    def __init__(self, algebra: PbwAlgebra, terms: dict):
        self.algebra = algebra
        self.terms = terms

    def _new(self, terms: dict) -> "PbwElement":
        return PbwElement(self.algebra, terms)

    def _coerce(self, other):
        other = super()._coerce(other)
        if other is not None and other.algebra.lam != self.algebra.lam:
            raise ValueError("elements from different compositions")
        return other

    def _times(self, m1, m2):
        return self.algebra._normal_form(m1 + m2).items()

    def _format_monomial(self, word) -> str:
        basis = self.algebra.basis
        return "*".join(
            f"e[{basis[t].i},{basis[t].j};{basis[t].r}]" for t in word
        ) or "1"

    def index_terms(self):
        """Yield (tuple of BasisIndex, coefficient) pairs, canonically ordered."""
        basis = self.algebra.basis
        for word in sorted(self.terms, key=lambda w: (len(w), w)):
            yield tuple(basis[t] for t in word), self.terms[word]


def embed(lam: Composition, idx) -> PbwElement:
    return pbw_algebra(lam).embed(idx)


def commutator(a: PbwElement, b: PbwElement) -> PbwElement:
    """a*b - b*a, using the derivation rule when one side is linear.

    For linear y, [x_1...x_k, y] = sum_t x_1...[x_t, y]...x_k, which skips
    the large cancelling products of a full two-sided multiplication.
    """
    if a.algebra.lam != b.algebra.lam:
        raise ValueError("elements from different compositions")
    if all(len(m) <= 1 for m in b.terms):
        return _commutator_linear(a, b)
    if all(len(m) <= 1 for m in a.terms):
        return -_commutator_linear(b, a)
    return a * b - b * a


def _commutator_linear(a: PbwElement, b: PbwElement) -> PbwElement:
    alg = a.algebra
    nf = alg._normal_form
    bracket = alg._bracket
    out: dict = {}
    for m2, c2 in b.terms.items():
        if not m2:
            continue
        y = m2[0]
        for m1, c1 in a.terms.items():
            c = c1 * c2
            for t, x in enumerate(m1):
                terms = bracket.get((x, y))
                if not terms:
                    continue
                head, tail = m1[:t], m1[t + 1:]
                for z, cz in terms:
                    accumulate(out, nf(head + (z,) + tail).items(), c * cz)
    return PbwElement(alg, out)


def filtration_degree(a: PbwElement) -> int:
    """Length of the longest monomial; undefined on zero."""
    if a.is_zero():
        raise ValueError("the zero element has no filtration degree")
    return max(len(m) for m in a.terms)


def cdet_mu(lam: Composition, mu) -> PbwElement:
    """Column determinant attached to a minimal-length subcomposition.

    Matrix rows and columns are labelled by the support of mu; the entry in
    row i, column j is the shifted generator of label (i, j) and degree
    mu_j - 1, and each summand multiplies its factors in column order.
    """
    if not isinstance(mu, SubComposition):
        mu = SubComposition(lam, tuple(mu))
    if mu.weight < 1 or mu.length != invariant_degrees(lam)[mu.weight - 1]:
        raise ValueError(
            f"subcomposition {mu} does not have minimal length for weight {mu.weight}"
        )
    if not factors_admissible(lam, mu):
        raise RuntimeError(f"inadmissible column-determinant factor for mu={mu}")
    supp = mu.support()
    alg = pbw_algebra(lam)
    return column_determinant(
        [[alg.tilde(BasisIndex(row, col, mu.part(col) - 1)) for col in supp]
         for row in supp]
    )


def central_element(lam: Composition, r: int) -> PbwElement:
    """The weight-r generator: sum of column determinants over enumerate_mu."""
    if not 1 <= r <= lam.N:
        raise ValueError(f"weight must lie in 1..{lam.N}, got {r}")
    alg = pbw_algebra(lam)
    cached = alg._central.get(r)
    if cached is None:
        total = alg.zero()
        for mu in enumerate_mu(lam, r):
            total = total + cdet_mu(lam, mu)
        alg._central[r] = cached = total
    return cached


def verify_central(lam: Composition, r: int) -> Report:
    """Commutator of the weight-r generator with every basis generator."""
    z = central_element(lam, r)
    checks = []
    for idx in basis_list(lam):
        c = commutator(z, embed(lam, idx))
        checks.append(
            Check(f"[z_{r}, e[{idx.i},{idx.j};{idx.r}]] = 0", c.is_zero(),
                  "" if c.is_zero() else f"residual has {len(c.terms)} terms")
        )
    return Report(
        f"centrality lambda={lam} r={r} ({len(z.terms)} normal-form terms)",
        tuple(checks),
    )


def pbw_to_json_obj(a: PbwElement) -> dict:
    return {
        "schema": 1,
        "lambda": a.algebra.lam.to_string(),
        "terms": [
            {"monomial": [[b.i, b.j, b.r] for b in word],
             "coeff": format_scalar(c)}
            for word, c in a.index_terms()
        ],
    }
