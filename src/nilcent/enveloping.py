"""The enveloping algebra of the centralizer, in PBW normal form.

Elements are finite maps from weakly increasing words in the fixed basis
order to exact scalars.  Products are straightened by one-letter
insertion: a letter z put between a sorted head and tail moves to its
place in one step, and each letter x it crosses leaves sign * [z, x] in
the place of x, with sign -1 if x stood left of z and +1 if it stood
right of it.  Each such term is a word one letter shorter with one
letter out of place, which is straightened the same way.  Word length
falls at each level, so the reduction terminates, and by the diamond
lemma its result does not depend on the order of the rewriting.  The
centrality check hands the normal form and this insertion to
centralizer.annihilator_checks, whose walk, centralizer.adjoint_images,
applies ad e as a derivation and puts each bracket term back in order by
the insertion.  central_element is centralizer.determinant_sum with the
shifted generators, tilde, as entries, each product taken in column
order; its linalg.column_minor memo, centralizer.minor_table, keeps
every minor, so each is built once for every weight.  Insertions into
unsorted words are memoised per word in pbw_algebra(lam), kept with the
central elements in the one composition.state; _insert says which of
them are stored.

A word is the bytes of its letters' basis positions: b"" is the empty
word and centralizer.LETTERS holds the one-letter words.  Bytes sort as
tuples of positions do, so every output is as with tuples, and they
cache their hash, which every memo and term-map lookup reads.  A
position must so be below 256; for a lam with a larger dim g_e,
PbwAlgebra raises centralizer.WordLimitError before it builds anything.
The basis, its index and the bracket rows come from structure_constants,
which interns them.  product_sum takes words of positions, as
freealg.verify_graded_image builds them; every other public interface
speaks BasisIndex.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from .centralizer import (LABEL, LETTERS, BasisIndex, annihilator_checks,
                          determinant_sum, inadmissible_label,
                          require_letters, structure_constants)
from .composition import Composition, per_composition
from .linalg import SparseElement, accumulate, format_scalar
from .reports import Report


class PbwAlgebra:
    """Rewriting memo and bracket table of one lam; get it by pbw_algebra."""

    def __init__(self, lam: Composition):
        require_letters(lam)
        sc = structure_constants(lam)
        self.lam = lam
        self.basis = sc.basis
        self.index_of = sc.index_of
        self.table = sc.table
        self._nf_memo: dict[bytes, dict] = {}

    def scalar(self, c) -> "PbwElement":
        return PbwElement(self, {b"": c} if c else {})

    def embed(self, idx) -> "PbwElement":
        t = self.index_of.get(BasisIndex(*idx))
        if t is None:
            raise inadmissible_label(self.lam, idx)
        return PbwElement(self, {LETTERS[t]: 1})

    def tilde(self, idx) -> "PbwElement":
        """e[idx], or for idx = (i, i, 0) e[i,i;0] - (i - 1) * lam_i."""
        i, j, r = idx
        el = self.embed(idx)
        if r == 0 and i == j and i > 1:
            el.terms[b""] = (1 - i) * self.lam.part(i)
        return el

    def _insert(self, head: bytes, z: int, tail: bytes,
                store: bool = False) -> dict:
        """Normal form of head + (z,) + tail, where head + tail is sorted.

        The memo is read for every unsorted word but written only when
        store is true: by the recursion, whose shorter words recur across
        insertions, and by product_sum, whose prefix products recur across
        r.  A top-level word from _times or the ad-walk is seldom met
        again, so it is not kept.  Returned dicts are shared and must not
        be mutated by callers.
        """
        word = head + LETTERS[z] + tail
        if (not head or head[-1] <= z) and (not tail or z <= tail[0]):
            return {word: 1}
        result = self._nf_memo.get(word)
        if result is not None:
            return result
        s, h = head + tail, len(head)
        if head and head[-1] > z:
            p = bisect_right(head, z)
            crossed, sign = range(p, h), -1
        else:
            p = h + bisect_left(tail, z)
            crossed, sign = range(h, p), 1
        # x z = z x - [z, x] left of z, and z x = x z + [z, x] right of it
        result = {s[:p] + LETTERS[z] + s[p:]: 1}
        row = self.table[z]
        for q in crossed:
            terms = row.get(s[q])
            if terms:
                left, right = s[:q], s[q + 1:]
                for w, c in terms:
                    accumulate(result,
                               self._insert(left, w, right, True).items(),
                               sign * c)
        if store:
            self._nf_memo[word] = result
        return result


pbw_algebra = per_composition(PbwAlgebra)


class PbwElement(SparseElement):
    """An element of the enveloping algebra, stored in normal form."""

    __slots__ = ("algebra",)

    def __init__(self, algebra: PbwAlgebra, terms: dict):
        self.algebra = algebra
        self.terms = terms

    def _new(self, terms: dict) -> "PbwElement":
        return PbwElement(self.algebra, terms)

    def _scalar(self, c) -> "PbwElement":
        return self.algebra.scalar(c)

    def _coerce(self, other):
        other = super()._coerce(other)
        if other is not None and other.algebra.lam != self.algebra.lam:
            raise ValueError("elements from different compositions")
        return other

    def _times(self, m1, m2):
        """The letters of m2 are inserted one at a time at the right of m1."""
        if not m2:
            return ((m1, 1),)
        insert = self.algebra._insert
        terms = insert(m1, m2[0], b"")
        for z in m2[1:]:
            out: dict = {}
            for w, c in terms.items():
                accumulate(out, insert(w, z, b"").items(), c)
            terms = out
        return terms.items()

    def _format_monomial(self, word) -> str:
        basis = self.algebra.basis
        return "*".join(LABEL.format(basis[t]) for t in word) or "1"

    def index_terms(self):
        """Yield (tuple of BasisIndex, coefficient) pairs, canonically ordered."""
        basis = self.algebra.basis
        for word in sorted(self.terms, key=lambda w: (len(w), w)):
            yield tuple(basis[t] for t in word), self.terms[word]


def product_sum(lam: Composition, words: dict) -> PbwElement:
    """Normal form of sum c * e_x1 ... e_xk over the word: c of words.

    Words are bytes of basis positions x1, ..., xk, as in PbwElement.terms,
    walked in sorted order so that words sharing a prefix are neighbours; a
    stack holds the normal form of every prefix of the current word, and
    each distinct prefix is multiplied out once, by inserting its last
    letter into the terms of the prefix one shorter.  A position at or
    above dim g_e raises ValueError before the walk.
    """
    alg = pbw_algebra(lam)
    top = max(b"".join(words), default=-1)
    if top >= len(alg.basis):
        raise ValueError(f"basis position {top} lies outside dim g_e = "
                         f"{len(alg.basis)} for lambda={lam}")
    insert = alg._insert
    out: dict = {}
    stack = [{b"": 1}]  # stack[d] is the normal form of the first d letters
    prev = b""
    for word in sorted(words):
        shared, limit = 0, min(len(prev), len(word))
        while shared < limit and prev[shared] == word[shared]:
            shared += 1
        del stack[shared + 1:]
        for z in word[shared:]:
            image: dict = {}
            for w, c in stack[-1].items():
                accumulate(image, insert(w, z, b"", True).items(), c)
            stack.append(image)
        accumulate(out, stack[-1].items(), words[word])
        prev = word
    return PbwElement(alg, out)


def filtration_degree(a: PbwElement) -> int:
    """Length of the longest monomial; undefined on zero."""
    if not a:
        raise ValueError("the zero element has no filtration degree")
    return max(len(m) for m in a.terms)


@per_composition
def central_element(lam: Composition, r: int) -> PbwElement:
    """The weight-r generator: determinant_sum of the shifted generators."""
    alg = pbw_algebra(lam)
    return PbwElement(alg, determinant_sum(lam, r, alg.tilde))


def verify_central(lam: Composition, r: int) -> Report:
    """Commutator of the weight-r generator with every basis generator."""
    z = central_element(lam, r)
    alg = z.algebra
    # [z, e_y] is the negative of ad e_y . z
    checks = annihilator_checks(
        lam, z.terms, alg._insert, lambda terms: -PbwElement(alg, terms),
        f"[z_{r}, {{}}] = 0".format)
    return Report(
        f"centrality lambda={lam} r={r} ({len(z.terms)} normal-form terms)",
        checks,
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
