"""Basis, closed-form brackets and matrix model of the centralizer in gl_N.

Boxes of the diagram of lam are numbered 1..N along rows; the nilpotent e
has one Jordan block per row.  The centralizer of e has the basis

    e[i,j;r] = sum of matrix units E_{h,k} over boxes h in row i and
               k in row j with col(k) - col(h) = r,

one for each admissible label, i.e. shift(i,j) <= r < lam_j.  This
module alone knows that window: is_admissible tests a label against it,
basis_list lists the labels inside it, and every other module asks
is_admissible or looks the label up in the basis.  Structure constants
come from the shifted-Yangian bracket rule

    [e[i,j;r], e[k,l;s]] = d_jk e[i,l;r+s] - d_il e[k,j;r+s],

with labels outside the admissible window dropped.  structure_constants
keeps the one bracket table.  It interns each label as its position in
basis_list, whose lexicographic order is label order, and keeps one row
per left argument: table[a][b] is [basis[a], basis[b]] as sorted
(position, coefficient) pairs, and a zero bracket has no entry.  The
sparse matrix model UnitMatrix checks in verify_centralizer that every
basis matrix commutes with e; the tests also check the bracket rule
against matrix commutators with it.  lie_generators picks basis labels
that generate g_e as a Lie algebra and certifies them by the rank of
their bracket closure.  adjoint_images is the one walk of ad basis
elements over words of positions, read straight off the table rows, in
the enveloping and the symmetric algebra alike; the caller supplies
only how a letter out of place is put back in order.  A word is the
bytes of its positions, LETTERS[t] the word of the letter t, so
require_letters stops a lam whose dim g_e exceeds 256 with
WordLimitError.  annihilator_checks, the centrality check, runs the walk
on the generators before every label; invariants.verify_invariant runs
it too, as the direct invariance walk that the tests hold the sweep's
derived invariance row to.

determinant_sum is the paper's sum over mu of column determinants in
the labels e[a,b;mu_b - 1], behind z_r and x_r alike; it looks each
label up in the basis, so a label outside it stops the sum.  The
determinants share their minors: each is linalg.column_minor of the
labels on the columns (b, mu_b - 1) and the rows of the support of mu,
in the memo minor_table(lam, entry), one per entry function, kept in
composition.state(lam) and dropped with it.  A minor is so built once
for every mu and every r that share its columns and rows, and only when
a weight asks for it.  LABEL spells a label, for str.format, and
structure_constants spells each basis label once per composition.
"""

from __future__ import annotations

from typing import NamedTuple

from .composition import Composition, enumerate_mu, per_composition, shift
from .linalg import (SparseElement, accumulate, column_minor, echelon_add,
                     rational_rank)
from .reports import Check, Report, residual_check


class BasisIndex(NamedTuple):
    """Label (i, j, r): row pair and degree of a centralizer basis element."""

    i: int
    j: int
    r: int


LABEL = "e[{0.i},{0.j};{0.r}]"

# LETTERS[t] is the one-letter word of basis position t
LETTERS = tuple(bytes((t,)) for t in range(256))


class WordLimitError(Exception):
    """Raised for a composition with more basis positions than LETTERS."""


def dimension(lam: Composition) -> int:
    """dim g_e from the closed formula: the sum of min(lam_i, lam_j) over
    all pairs of rows."""
    return sum(min(p, q) for p in lam.parts for q in lam.parts)


def require_letters(lam: Composition) -> None:
    """Raise WordLimitError unless every basis position of lam is a byte.

    dim g_e is at most N^2, so every lam with N <= 16 passes.
    """
    dim = dimension(lam)
    if dim > len(LETTERS):
        raise WordLimitError(
            f"dim g_e = {dim} for lambda={lam} exceeds the limit of "
            f"{len(LETTERS)} basis positions that a word of bytes can hold")


def row_start(lam: Composition, i: int) -> int:
    """Number of the first box in row i, 1-based."""
    return 1 + sum(lam.parts[: i - 1])


class UnitMatrix(SparseElement):
    """N x N matrix as a sparse sum of matrix units E(h,k), 1-based."""

    __slots__ = ()

    def _times(self, m1, m2):
        return (((m1[0], m2[1]), 1),) if m1[1] == m2[0] else ()

    def _format_monomial(self, m) -> str:
        return f"E({m[0]},{m[1]})"


def nilpotent_matrix(lam: Composition) -> UnitMatrix:
    """The nilpotent with one Jordan block of size lam_i per row."""
    units = {}
    for i, width in enumerate(lam.parts, start=1):
        start = row_start(lam, i)
        units.update(((start + c, start + c + 1), 1) for c in range(width - 1))
    return UnitMatrix(units)


def is_admissible(lam: Composition, idx: BasisIndex) -> bool:
    i, j, r = idx
    if not (1 <= i <= lam.n and 1 <= j <= lam.n):
        return False
    return shift(lam, i, j) <= r < lam.part(j)


def inadmissible_label(lam: Composition, idx) -> ValueError:
    """The error raised for a label outside the basis of lam."""
    return ValueError(f"inadmissible label {tuple(idx)} for lambda={lam}")


def unit_support(lam: Composition, idx: BasisIndex) -> tuple[tuple[int, int], ...]:
    """The matrix units (h, k) summed by e[i,j;r], in column order."""
    if not is_admissible(lam, idx):
        raise inadmissible_label(lam, idx)
    i, j, r = idx
    si, sj = row_start(lam, i), row_start(lam, j)
    count = min(lam.part(i), lam.part(j) - r)
    return tuple((si + c, sj + c + r) for c in range(count))


def basis_element(lam: Composition, idx: BasisIndex) -> UnitMatrix:
    return UnitMatrix(dict.fromkeys(unit_support(lam, idx), 1))


def basis_list(lam: Composition) -> tuple[BasisIndex, ...]:
    """All admissible labels in lexicographic (i, j, r) order."""
    out = []
    for i in range(1, lam.n + 1):
        for j in range(1, lam.n + 1):
            out.extend(
                BasisIndex(i, j, r) for r in range(shift(lam, i, j), lam.part(j))
            )
    return tuple(out)


class StructureConstants(NamedTuple):
    """The bracket table laid out in the module docstring, and names[a],
    the spelling of basis[a]."""

    basis: tuple
    index_of: dict
    table: tuple
    names: tuple


@per_composition
def structure_constants(lam: Composition) -> StructureConstants:
    """Every bracket of two basis elements, from the closed formula."""
    basis = basis_list(lam)
    index_of = {x: a for a, x in enumerate(basis)}
    table = tuple({} for _ in basis)
    for a, (i, j, r) in enumerate(basis):
        for b in range(a + 1, len(basis)):
            k, l, s = basis[b]
            pairs = []
            if j == k:
                pairs.append((index_of.get((i, l, r + s)), 1))
            if i == l:
                pairs.append((index_of.get((k, j, r + s)), -1))
            expansion = accumulate(
                {}, ((z, c) for z, c in pairs if z is not None))
            if expansion:
                terms = tuple(sorted(expansion.items()))
                table[a][b] = terms
                table[b][a] = tuple((z, -c) for z, c in terms)
    return StructureConstants(basis, index_of, table,
                              tuple(map(LABEL.format, basis)))


@per_composition
def lie_generators(lam: Composition) -> tuple[int, ...]:
    """Positions of a set S of basis labels that generates g_e as a Lie
    algebra, certified by rank.

    The labels are walked by r, upper labels (i < j) first with |i - j|
    ascending, then lower labels with |i - j| descending, then diagonal
    ones, and by position last.  A label joins S when it lies outside the
    span V found so far.  V is then closed under ad S with the bracket
    table: the bracket of each generator with each vector spanning V is
    reduced by echelon_add, and one that adds a pivot spans V too.  A
    closed V is the Lie subalgebra generated by S, so the walk can stop
    as soon as V has rank dim g_e.
    """
    sc = structure_constants(lam)
    basis, table = sc.basis, sc.table
    dim = len(basis)
    order = sorted(range(dim), key=lambda a: (
        basis[a].r, basis[a].i == basis[a].j, basis[a].i > basis[a].j,
        basis[a].j - basis[a].i, a))
    pivots: dict = {}
    gens: list = []
    span: list = []
    for a in order:
        if len(pivots) == dim:
            break
        unit = {a: 1}
        if not echelon_add(pivots, unit):
            continue
        gens.append(a)
        # [s, e_a] = -[a, e_s], and e_s spans V, so a against V is enough
        pending = [(a, v) for v in span]
        span.append(unit)
        while pending and len(pivots) < dim:
            s, v = pending.pop()
            row = table[s]
            image = accumulate({}, ((z, c * cv) for b, cv in v.items()
                                    for z, c in row.get(b, ())))
            if echelon_add(pivots, image):
                pending.extend((t, image) for t in gens)
                span.append(image)
    if len(pivots) < dim:
        raise RuntimeError(f"the basis of lambda={lam} spans rank "
                           f"{len(pivots)} of {dim} under its own brackets")
    return tuple(gens)


def adjoint_images(lam: Composition, words: dict, labels, insert):
    """Yield (idx, ad e_idx . words) for the basis positions in labels,
    in order, words a map from sorted words of positions to coefficients
    and each image such a map with its zeros dropped.

    ad e_idx is the derivation that replaces one letter x of a word at a
    time by the table row [e_idx, x].  The words are indexed by letter
    once, and each row is looked up once per letter that occurs in them.
    A letter that lands in place between the sorted head and tail of its
    word is added inline; one out of place is put in order by
    insert(head, letter, tail), which returns the result as a map from
    words to coefficients.
    """
    sc = structure_constants(lam)
    index: dict = {}
    for m, c in words.items():
        for t, x in enumerate(m):
            index.setdefault(x, []).append((m[:t], m[t + 1:], c))
    for a in labels:
        row = sc.table[a].get
        out: dict = {}
        for x, places in index.items():
            image = row(x)
            if not image:
                continue
            for head, tail, c in places:
                for w, cw in image:
                    if (not head or head[-1] <= w) and (not tail or w <= tail[0]):
                        word = head + LETTERS[w] + tail
                        out[word] = out.get(word, 0) + c * cw
                    else:
                        for word, cm in insert(head, w, tail).items():
                            out[word] = out.get(word, 0) + c * cw * cm
        yield sc.basis[a], {m: c for m, c in out.items() if c}


def annihilator_checks(lam: Composition, words: dict, insert, residual,
                       name) -> tuple[Check, ...]:
    """The row name(label) for every basis label, spelled as in
    structure_constants, which passes when ad of the label kills the
    element whose words adjoint_images walks with insert.

    residual(terms) wraps an image as the sparse element that a failed
    row names.  ad is a representation of g_e, on the enveloping algebra
    and on the symmetric algebra alike, so the x in g_e whose ad kills
    the element form a Lie subalgebra.  The labels of lie_generators are
    tried first: if they all kill the element, so does every basis
    element, and each row is deduced to pass.  Otherwise every label is
    walked, so each failed row names its own residual.
    """
    names = structure_constants(lam).names
    if any(terms for _, terms in
           adjoint_images(lam, words, lie_generators(lam), insert)):
        return tuple(residual_check(name(label), residual(terms))
                     for label, (_, terms) in zip(names, adjoint_images(
                         lam, words, range(len(names)), insert)))
    return tuple(Check(name(label), True) for label in names)


@per_composition
def minor_table(lam: Composition, entry) -> dict:
    """The linalg.column_minor memo of entry for lam, one per entry
    function; it starts empty and grows with every determinant read."""
    return {}


def determinant_sum(lam: Composition, r: int, entry) -> dict:
    """Terms of the sum over mu in enumerate_mu(lam, r) of the column
    determinant of entry(e[a,b;mu_b - 1]), a and b in the support of mu.

    Each label of a mu is found in the basis of lam before its
    determinant is read; for a minimal mu each one is there.  The
    determinant is the column_minor of entry(BasisIndex(a, b, s)) on the
    columns ((b, mu_b - 1), ...) and the rows of the support, in
    minor_table(lam, entry).  A minor is so built once for every mu and
    every r that share its columns and rows, and nothing is built for a
    weight not asked for.
    """
    basis = structure_constants(lam).index_of
    table = minor_table(lam, entry)

    def label_entry(*label):
        return entry(BasisIndex(*label))

    terms: dict = {}
    for mu in enumerate_mu(lam, r):
        supp = [b for b, p in enumerate(mu, start=1) if p]
        for a in supp:
            for b in supp:
                x = BasisIndex(a, b, mu[b - 1] - 1)
                if x not in basis:
                    raise RuntimeError(
                        "inadmissible column-determinant factor "
                        f"{LABEL.format(x)} for mu={','.join(map(str, mu))}")
        cols = tuple((b, mu[b - 1] - 1) for b in supp)
        rows = sum(1 << b - 1 for b in supp)
        det = column_minor(table, label_entry, cols, rows)
        if det is not None:  # None: the determinant cancelled
            accumulate(terms, det.terms.items())
    return terms


def verify_centralizer(lam: Composition) -> Report:
    """Commutation with the nilpotent, dimension count, bracket grading.

    A failed row names a witness: the first basis label whose matrix
    does not commute with e, or the first misgraded bracket term.
    """
    sc = structure_constants(lam)
    basis = sc.basis
    mats = [basis_element(lam, idx) for idx in basis]
    e = nilpotent_matrix(lam)

    witness = next((x for x, m in zip(basis, mats) if m * e != e * m), None)
    expected_dim = dimension(lam)
    rank = rational_rank([m.terms for m in mats])
    dim_ok = len(basis) == expected_dim and rank == expected_dim

    label = LABEL.format
    misgraded = next((
        f"[{label(x)}, {label(basis[b])}] has term {label(basis[z])}"
        for x, row in zip(basis, sc.table) for b, terms in row.items()
        for z, _ in terms if basis[z].r != x.r + basis[b].r), None)

    checks = (
        Check("commutes_with_nilpotent", witness is None,
              f"{label(witness)} does not commute with the Jordan nilpotent"
              if witness else
              f"{len(basis)} basis matrices against the Jordan nilpotent"),
        Check("dimension", dim_ok,
              f"count {len(basis)}, rank {rank}, expected {expected_dim}"),
        Check("bracket_grading", misgraded is None,
              misgraded or "every bracket term has degree r + s"),
    )
    return Report(f"centralizer lambda={lam}", checks)
