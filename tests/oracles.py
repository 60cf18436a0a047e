"""Reference implementations the tests compare the package against.

None of this runs in a nilcent command: each function is an independent
model of something the package computes another way, or a property the
tests check on random instances.  Run as a script, PYTHONPATH=src python
tests/oracles.py runs the reference loops of REFERENCE_LOOPS at N = 7
and 8, beyond the tier-1 tests, and exits 1 if any fails or miscounts.
"""

import itertools
import random
import sys
from fractions import Fraction
from math import comb
from typing import NamedTuple

from nilcent import composition, enveloping, invariants
from nilcent.centralizer import (
    LABEL,
    BasisIndex,
    basis_element,
    basis_list,
    determinant_sum,
    inadmissible_label,
    is_admissible,
    structure_constants,
    unit_support,
)
from nilcent.composition import enumerate_mu, weight_subcompositions
from nilcent.enveloping import PbwElement, pbw_algebra
from nilcent.freealg import (FreeElement, binomial_z_expansion, t_symbol,
                             verify_graded_image)
from nilcent.invariants import Polynomial, verify_invariant
from nilcent.linalg import accumulate, column_minor
from nilcent.reports import Check, Report, residual_check
from nilcent.slice import PVar, base_point


def perm_sign(perm) -> int:
    """Sign of a permutation given as a tuple of distinct comparable values.

    The Leibniz-formula reference for column_determinant.
    """
    inversions = sum(
        1
        for a in range(len(perm))
        for b in range(a + 1, len(perm))
        if perm[a] > perm[b]
    )
    return -1 if inversions % 2 else 1


def column_determinant(matrix):
    """Sum over permutations p of sign(p) * m[p0][0] * m[p1][1] * ... .

    Factors multiply in column order, so entries may come from a
    noncommutative ring; they are SparseElements of one ring.  This is
    column_minor on every row and column, with a memo of its own.
    """
    rows = [list(row) for row in matrix]
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise ValueError("column determinant needs a nonempty square matrix")
    det = column_minor({}, lambda a, col: rows[a - 1][col],
                       tuple((col,) for col in range(n)), (1 << n) - 1)
    return rows[0][0] * 0 if det is None else det


def box_position(lam, k: int) -> tuple[int, int]:
    """(row, column) of box k, with boxes numbered 1..N along rows."""
    for i, width in enumerate(lam.parts, start=1):
        if k <= width:
            return i, k
        k -= width
    raise ValueError(f"box {k} lies outside lambda={lam}")


def matrix_commutator(a, b):
    """[a, b] = a b - b a of two UnitMatrix elements."""
    return a * b - b * a


def expand_in_basis(lam, mat) -> dict:
    """Write a UnitMatrix in the centralizer basis, verifying exactness.

    Distinct basis elements have disjoint unit supports, and (h, k)
    determines its label, so it suffices to group units by label and check
    each group is a constant multiple of the full support.
    """
    groups: dict = {}
    for (h, k), c in mat.terms.items():
        (row_h, col_h), (row_k, col_k) = box_position(lam, h), box_position(lam, k)
        groups.setdefault(BasisIndex(row_h, row_k, col_k - col_h), {})[(h, k)] = c
    out = {}
    for idx, units in groups.items():
        if not is_admissible(lam, idx):
            raise ValueError(f"matrix lies outside the centralizer: unit group {idx}")
        coeffs = set(units.values())
        if len(coeffs) != 1 or set(units) != set(unit_support(lam, idx)):
            raise ValueError(f"matrix lies outside the centralizer: ragged group {idx}")
        out[idx] = coeffs.pop()
    return out


def bracket(lam, x, y) -> tuple:
    """[x, y] as (BasisIndex, coefficient) pairs, read from the bracket
    table of structure_constants; empty when the bracket is zero."""
    sc = structure_constants(lam)
    terms = sc.table[sc.index_of[x]].get(sc.index_of[y], ())
    return tuple((sc.basis[z], c) for z, c in terms)


def normalising_add(pivots: dict, row: dict) -> bool:
    """Reduce row against pivot rows that each lead with 1; keep what is
    left, scaled to lead with 1, as a new pivot row.

    The Fraction reference for linalg.echelon_add, which reduces
    fraction-free.  Returns whether a pivot was added.
    """
    row = {col: v for col, v in row.items() if v}
    while row:
        col = min(row)
        pivot = pivots.get(col)
        if pivot is None:
            inv = Fraction(1) / row[col]
            pivots[col] = {c: v * inv for c, v in row.items()}
            return True
        factor = row[col]
        for c, v in pivot.items():
            w = row.get(c, 0) - factor * v
            if w:
                row[c] = w
            else:
                row.pop(c, None)
    return False


def normalising_rank(rows) -> int:
    """Rank by normalising_add; the reference for linalg.rational_rank."""
    pivots: dict = {}
    for row in rows:
        normalising_add(pivots, row)
    return len(pivots)


def lie_closure_rank(lam, generators) -> int:
    """Dimension of the Lie algebra that the basis matrices of the given
    labels generate inside gl_N.

    Iterated matrix commutators [s_1, [s_2, ... [s_(k-1), s_k]]], level by
    level: each level brackets every generator with the matrices of the
    level before that raised the rank, and the rank is kept by
    normalising_add over matrix units.  Neither the bracket table nor
    echelon_add is used.  The reference for centralizer.lie_generators.
    """
    gens = [basis_element(lam, idx) for idx in generators]
    pivots: dict = {}
    level = [g for g in gens if normalising_add(pivots, g.terms)]
    while level:
        level = [c for s in gens for m in level
                 for c in (matrix_commutator(s, m),)
                 if normalising_add(pivots, c.terms)]
    return len(pivots)


def central_report_all_labels(lam, r) -> Report:
    """verify_central as z * e - e * z in PBW for every basis label e, each
    row with its own residual; the reference for its walk over
    lie_generators."""
    z = enveloping.central_element(lam, r)
    alg = z.algebra
    checks = tuple(
        residual_check(f"[z_{r}, e[{idx.i},{idx.j};{idx.r}]] = 0",
                       z * alg.embed(idx) - alg.embed(idx) * z)
        for idx in alg.basis)
    return Report(
        f"centrality lambda={lam} r={r} ({len(z.terms)} normal-form terms)",
        checks)


def invariant_report_all_labels(lam, r) -> Report:
    """verify_invariant as adjoint_action for every basis label, each row
    with its own residual; the reference for its walk over
    lie_generators."""
    p = invariants.elementary_invariant(lam, r)
    checks = tuple(
        residual_check(f"ad e[{idx.i},{idx.j};{idx.r}] kills x_{r}",
                       adjoint_action(lam, idx, p))
        for idx in basis_list(lam))
    return Report(f"invariance lambda={lam} r={r}", checks)


def failed_invariance_walks(lams) -> list:
    """The (lam, r), lam in lams and r in 1..N, on which verify_invariant,
    the direct invariance walk, fails."""
    return [(lam, r) for lam in lams for r in range(1, lam.N + 1)
            if not verify_invariant(lam, r).ok]


def transposition_normal_form(alg, word: bytes) -> dict:
    """PBW normal form of a word of interned labels, one transposition at a time.

    The first out-of-order pair x*y rewrites to y*x + [x, y], with the
    bracket read from structure_constants; each rewrite lowers (word
    length, inversion count), so the reduction terminates.  The reference
    for the package's one-letter insertion.
    """
    pos = next((t for t in range(len(word) - 1) if word[t] > word[t + 1]), None)
    if pos is None:
        return {word: 1}
    x, y = word[pos], word[pos + 1]
    head, tail = word[:pos], word[pos + 2:]
    result = dict(transposition_normal_form(alg, head + bytes((y, x)) + tail))
    for z, c in bracket(alg.lam, alg.basis[x], alg.basis[y]):
        accumulate(result, transposition_normal_form(
            alg, head + bytes((alg.index_of[z],)) + tail).items(), c)
    return result


def determinant_sum_per_mu(lam, r, entry) -> dict:
    """centralizer.determinant_sum as the paper writes it: one
    column_determinant per mu, each on its own.  The reference for the
    minors the package shares across every mu and r.

    Many mu share a label, so each label's entry is built once, at its
    first use in the call, after the label is found in the basis of lam.
    """
    basis = structure_constants(lam).index_of
    entries: dict = {}
    terms: dict = {}
    for mu in enumerate_mu(lam, r):
        supp = [b for b, p in enumerate(mu, start=1) if p]
        labels = [[BasisIndex(a, b, mu[b - 1] - 1) for b in supp]
                  for a in supp]
        for row in labels:
            for x in row:
                if x in entries:
                    continue
                if x not in basis:
                    raise RuntimeError(
                        "inadmissible column-determinant factor "
                        f"{LABEL.format(x)} for mu={','.join(map(str, mu))}")
                entries[x] = entry(x)
        det = column_determinant([[entries[x] for x in row] for row in labels])
        accumulate(terms, det.terms.items())
    return terms


def failed_determinant_sums(lams) -> list:
    """The (lam, r), lam in lams and r in 1..N, on which determinant_sum
    differs from determinant_sum_per_mu for z_r or for x_r.

    Each lam starts on a cold composition.state.  The z_r are asked for
    by ascending r and the x_r by descending r, so each minor_table
    grows both ways.
    """
    failed = []
    for lam in lams:
        composition.state.cache_clear()
        alg = pbw_algebra(lam)
        weights = range(1, lam.N + 1)
        for entry, order in ((alg.tilde, weights),
                             (Polynomial.variable, reversed(weights))):
            failed.extend((lam, r) for r in order
                          if determinant_sum(lam, r, entry)
                          != determinant_sum_per_mu(lam, r, entry))
    composition.state.cache_clear()
    return list(dict.fromkeys(failed))


def memo_products(memo) -> int:
    """The products linalg.column_minor takes to build each minor of memo
    once: one per row i of a minor on two or more columns whose entry in
    row i and whose minor without row i are both nonzero."""
    return sum(1 for cols, rows in memo if len(cols) > 1
               for i in range(rows.bit_length()) if rows >> i & 1
               and memo[cols[-1:], 1 << i] is not None
               and memo.get((cols[:-1], rows ^ 1 << i)) is not None)


def transposition_product(a, b) -> PbwElement:
    """a * b with every product of words straightened by transposition."""
    alg = a.algebra
    out: dict = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            accumulate(out, transposition_normal_form(alg, m1 + m2).items(),
                       c1 * c2)
    return PbwElement(alg, out)


def pairwise_product(a, b):
    """a * b with one accumulate call per pair of terms, through a's
    _times: the reference for SparseElement's one multiply-accumulate."""
    out: dict = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            accumulate(out, a._times(m1, m2), c1 * c2)
    return a._new(out)


def adjoint_action(lam, x, p) -> Polynomial:
    """Derivation extending v -> [x, v] on variables, position by position.

    The reference for the invariance walk, centralizer.adjoint_images on
    words of positions.
    """
    x = BasisIndex(*x)
    if not is_admissible(lam, x):
        raise ValueError(f"inadmissible label {tuple(x)} for lambda={lam}")
    return Polynomial(accumulate({}, (
        (tuple(sorted(mono[:t] + mono[t + 1:] + (z,))), c * cz)
        for mono, c in p.terms.items()
        for t, v in enumerate(mono)
        for z, cz in bracket(lam, x, v)
    )))


def evaluate(p, assignment: dict):
    """Value of a Polynomial at a point given as a total map from variables
    to scalars.

    With partial, the reference for the slice Jacobian and restriction.
    """
    total = 0
    for mono, c in p.terms.items():
        v = c
        for var in mono:
            v *= assignment[var]
        total += v
    return total


def partial(p, var) -> Polynomial:
    """Partial derivative of a Polynomial with respect to one variable."""
    pairs = []
    for mono, c in p.terms.items():
        k = mono.count(var)
        if k:
            pos = mono.index(var)
            pairs.append((mono[:pos] + mono[pos + 1:], k * c))
    return Polynomial(accumulate({}, pairs))


def evaluate_basis_at_slice(lam, idx) -> Polynomial:
    """Value of one basis label as a polynomial in the slice coordinates.

    The coordinate p[j,r] on a bottom-row label e[n,j;r], the base-point
    value on any other label.  With evaluate, the per-label reference for
    slice.restrict.
    """
    if not lam.is_increasing:
        raise ValueError(f"the slice needs weakly increasing parts, got {lam}")
    idx = BasisIndex(*idx)
    if not is_admissible(lam, idx):
        raise ValueError(f"inadmissible label {tuple(idx)} for lambda={lam}")
    if idx.i == lam.n:
        return Polynomial.variable(PVar(idx.j, idx.r))
    return Polynomial({}) + base_point(lam).get(idx, 0)


def substitute_word(lam, word) -> PbwElement:
    """Image of a word under T[i,j;s+1] -> (-1)^s e[i,j;s], multiplied in order."""
    alg = pbw_algebra(lam)
    out = alg.scalar(1)
    for x in word:
        sign = -1 if (x.s - 1) % 2 else 1
        out = out * (sign * alg.embed(BasisIndex(x.i, x.j, x.s - 1)))
    return out


def loop_weight(word) -> int:
    """Sum of (s - 1) over the letters of a word of TSymbols: the reference
    for the loop-weight table of freealg.letter_positions."""
    return sum(x.s - 1 for x in word)


def position_words(lam, terms) -> dict:
    """{word of labels: c} as {bytes of basis positions: c}, the words of
    enveloping.product_sum; a label outside the basis of lam raises
    centralizer.inadmissible_label."""
    index_of = pbw_algebra(lam).index_of
    out = {}
    for word, c in terms.items():
        labels = [BasisIndex(*x) for x in word]
        for x in labels:
            if x not in index_of:
                raise inadmissible_label(lam, x)
        out[bytes(index_of[x] for x in labels)] = c
    return out


def failed_graded_images(lams) -> list:
    """The (lam, r), lam in lams and r in 1..N, on which
    freealg.verify_graded_image fails."""
    return [(lam, r) for lam in lams for r in range(1, lam.N + 1)
            if not verify_graded_image(lam, r).ok]


def binomial_z_expansion_by_pairs(lam, r: int) -> FreeElement:
    """Z_r as one weighted n x n symbol determinant per pair (mu, nu).

    The reference for freealg.binomial_z_expansion, which sums the
    weights of each nu first and reads its determinant off the minors
    that centralizer.minor_table shares between nu with a common prefix.
    Here every pair builds its own determinant: sums over subcompositions
    mu of weight r and componentwise nu <= mu with nu_1 = mu_1, with
    weight
        prod_i (1 - i)^(mu_i - nu_i) * binom(lam_i - nu_i, lam_i - mu_i).
    """
    n = lam.n
    total = FreeElement({})
    for mu in weight_subcompositions(lam, r):
        nu_ranges = [range(mu[0], mu[0] + 1)] + [
            range(0, mu[i - 1] + 1) for i in range(2, n + 1)
        ]
        for nu in itertools.product(*nu_ranges):
            weight = 1
            for i in range(1, n + 1):
                weight *= (1 - i) ** (mu[i - 1] - nu[i - 1])
                weight *= comb(lam.part(i) - nu[i - 1], lam.part(i) - mu[i - 1])
                if not weight:
                    break
            if not weight:
                continue
            det = column_determinant(
                [[t_symbol(lam, i, j, nu[j - 1]) for j in range(1, n + 1)]
                 for i in range(1, n + 1)]
            )
            total = total + det * weight
    return total


def failed_symbol_expansions(lams) -> list:
    """The (lam, r), lam in lams and r in 1..N, on which
    binomial_z_expansion differs from binomial_z_expansion_by_pairs.

    Each lam is read first on a cold composition.state with r
    descending, then on the warm state with r ascending: a prefix built
    for one r must serve every other r.
    """
    failed = []
    for lam in lams:
        weights = range(1, lam.N + 1)
        want = {r: binomial_z_expansion_by_pairs(lam, r) for r in weights}
        composition.state.cache_clear()
        for order in (reversed(weights), weights):
            failed.extend((lam, r) for r in order
                          if binomial_z_expansion(lam, r) != want[r])
    return list(dict.fromkeys(failed))


# Each reference loop at N = 7 and 8: what it checks, what one (lambda, r)
# is counted as, the oracle, the totals N and whether only increasing
# lambda take part, and the pinned number of (lambda, r).
REFERENCE_LOOPS = (
    ("verify_invariant at N = 8", "walks", failed_invariance_walks,
     (8,), False, 320),
    ("column_minor memo at N = 8", "(lambda, r)", failed_determinant_sums,
     (8,), False, 320),
    ("symbol expansion at N = 7 and 8", "(lambda, r)",
     failed_symbol_expansions, (7, 8), True, 281),
    ("graded image at N = 7 and 8", "(lambda, r)", failed_graded_images,
     (7, 8), True, 281),
)


def reference_lambdas(totals, increasing: bool) -> list:
    """The monotone lambda of the given totals, only the increasing ones
    if increasing is true."""
    return [lam for total in totals
            for lam in composition.monotone_compositions(total)
            if lam.is_increasing or not increasing]


def run_reference_loops(loops=REFERENCE_LOOPS) -> int:
    """Run every loop and print one line for each; 1 if any loop fails
    on some (lambda, r) or counts other than its pinned number, else 0."""
    bad = False
    for what, unit, oracle, totals, increasing, pinned in loops:
        lams = reference_lambdas(totals, increasing)
        pairs = sum(lam.N for lam in lams)
        failed = oracle(lams)
        print(f"{what}: {pairs} {unit}, {len(failed)} failed", *failed,
              flush=True)
        bad = bad or pairs != pinned or bool(failed)
    return int(bad)


class DualIndex(NamedTuple):
    """Label f[i,j;r] of the dual basis vector of e[i,j;r]."""

    i: int
    j: int
    r: int


def dual_index_or_none(lam, i: int, j: int, r: int):
    """The dual label, or None when (i, j, r) falls outside the window.

    This is the single constructor through which the out-of-window-is-zero
    convention enters.
    """
    idx = BasisIndex(i, j, r)
    return DualIndex(i, j, r) if is_admissible(lam, idx) else None


def coadjoint_action(lam, x, phi) -> dict:
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


def pairing_consistency(lam) -> Report:
    """Dual-pairing identity over every basis triple.

    For basis labels x, v, y: the coefficient of y in [x, v] must equal
    minus the coefficient of the dual of v in the coadjoint action of x on
    the dual of y.
    """
    basis = basis_list(lam)
    checks = []
    for x in basis:
        bad = ""
        for v in basis:
            xv = dict(bracket(lam, x, v))
            dual_v = DualIndex(*v)
            for y in basis:
                lhs = xv.get(y, 0)
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


def left_minor_cdets(matrix, j: int):
    """Column determinants of all j x j minors in the first j columns."""
    n = len(matrix)
    for rows in itertools.combinations(range(n), j):
        yield rows, column_determinant(
            [[matrix[a][b] for b in range(j)] for a in rows]
        )


def verify_left_minor_vanishing(n: int, trials: int, seed: int) -> Report:
    """Randomized instances of the left-minor vanishing property.

    Each trial builds an n x n matrix over the free algebra whose first j
    columns are arranged to kill every left j x j minor: either one of
    those columns is zero, or the first j columns take entries in the
    commutative subalgebra of words in a single letter with an exact
    linear dependency among them.  Both the hypothesis (all left minors
    vanish) and the conclusion (the full column determinant vanishes) are
    checked on every trial.
    """
    if n < 2:
        raise ValueError("need n >= 2 for a nontrivial minor statement")
    rng = random.Random(seed)
    checks = []
    for trial in range(trials):
        j = rng.randint(1, n - 1)
        mode = rng.choice(("zero-column", "dependent-columns"))
        matrix = [[FreeElement({})] * n for _ in range(n)]
        if mode == "zero-column":
            dead = rng.randint(0, j - 1)
            for col in range(j):
                if col == dead:
                    continue
                for row in range(n):
                    matrix[row][col] = _random_element(rng)
        else:
            # single-letter words commute, so dependent columns are honest;
            # the combination coefficients are fixed per column
            x = "x"
            for col in range(j - 1):
                for row in range(n):
                    matrix[row][col] = _random_single_letter_poly(rng, x)
            coeffs = [_combination_coeff(rng, x) for _ in range(j - 1)]
            for row in range(n):
                acc = FreeElement({})
                for col in range(j - 1):
                    acc = acc + matrix[row][col] * coeffs[col]
                matrix[row][j - 1] = acc
        for col in range(j, n):
            for row in range(n):
                matrix[row][col] = _random_element(rng)

        hypothesis_ok = all(
            not det for _, det in left_minor_cdets(matrix, j)
        )
        conclusion = column_determinant(matrix)
        checks.append(
            Check(f"trial {trial} (j={j}, {mode})",
                  hypothesis_ok and not conclusion,
                  "" if hypothesis_ok else "hypothesis violated")
        )
    return Report(f"left-minor vanishing n={n} trials={trials} seed={seed}",
                  tuple(checks))


def _random_element(rng) -> FreeElement:
    letters = ["a", "b", "c", "d"]
    out = FreeElement({})
    for _ in range(rng.randint(1, 2)):
        word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 2)))
        out = out + FreeElement({word: rng.choice((-2, -1, 1, 2, 3))})
    return out


def _random_single_letter_poly(rng, x) -> FreeElement:
    out = FreeElement({})
    for k in range(rng.randint(1, 3)):
        out = out + FreeElement({(x,) * k: rng.randint(-3, 3)})
    return out


def _combination_coeff(rng, x) -> FreeElement:
    return FreeElement({(x,) * rng.randint(0, 1): rng.choice((-2, -1, 1, 2))})


if __name__ == "__main__":
    sys.exit(run_reference_loops())
