"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line for one advertised guarantee of
the package, driven by the same per-composition sweep the CLI exposes.
The sweep covers every monotone composition of every N <= 6 in both
orientations; symbol-determinant checks cover the increasing ones with
N <= 5.
"""

import itertools
import math
import random

import pytest

from nilcent.centralizer import BasisIndex, basis_list
from nilcent.cli import EXPANSION_CAP, sweep_composition
from nilcent.composition import Composition, monotone_compositions
from nilcent.enveloping import central_element, pbw_algebra
from nilcent.invariants import Polynomial, elementary_invariant
from nilcent.slice import restrict

from conftest import embed
from oracles import (bracket, failed_invariance_walks,
                     verify_left_minor_vanishing)

MAX_N = 6

ALL_LAMS = sorted(
    (lam for total in range(1, MAX_N + 1)
     for lam in monotone_compositions(total)),
    key=lambda c: (c.N, c.parts),
)
INCREASING = [lam for lam in ALL_LAMS if lam.is_increasing]
WEIGHT_TOTAL = sum(lam.N for lam in ALL_LAMS)
CAPPED = [lam for lam in INCREASING if lam.N <= EXPANSION_CAP]
CAPPED_WEIGHTS = sum(lam.N for lam in CAPPED)


@pytest.fixture(scope="session")
def sweep_rows():
    rows = []
    for lam in ALL_LAMS:
        rows.extend(sweep_composition(lam))
    return rows


def take(rows, check):
    return [r for r in rows if r["check"] == check]


def conclude(capsys, number, label, ok, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {number} {label}: "
              f"{'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


def test_1_centrality(sweep_rows, capsys):
    rows = take(sweep_rows, "centrality")
    covered = {(r["lambda"], r["r"]) for r in rows}
    complete = len(rows) == WEIGHT_TOTAL == len(covered)
    ok = complete and all(r["ok"] for r in rows)
    conclude(capsys, 1, "every z_r commutes with every generator", ok,
             f"{len(rows)} weights over {len(ALL_LAMS)} compositions, N <= {MAX_N}")


def test_2_degree_ledger(sweep_rows, capsys):
    ledger = take(sweep_rows, "degree_ledger")
    filt = take(sweep_rows, "filtration_degree")
    complete = len(ledger) == len(ALL_LAMS) and len(filt) == WEIGHT_TOTAL
    ok = complete and all(r["ok"] for r in ledger + filt)
    conclude(capsys, 2, "filtration degrees match the invariant-degree ledger",
             ok, f"{len(ledger)} ledgers, {len(filt)} degree checks")


def test_3_invariance(sweep_rows, capsys):
    inv = take(sweep_rows, "invariance")
    top = take(sweep_rows, "top_symbol")
    complete = len(inv) == WEIGHT_TOTAL and len(top) == WEIGHT_TOTAL
    ok = complete and all(r["ok"] for r in inv + top)
    conclude(capsys, 3, "top symbols of central z_r match x_r, hence are "
             "adjoint-invariant", ok,
             f"{len(inv)} invariance and {len(top)} symbol checks")


def test_direct_invariance_walk_agrees(sweep_rows):
    """verify_invariant, the direct adjoint walk, passes for every monotone
    lambda with N <= 7, and agrees with the sweep's derived invariance row
    wherever the sweep ran."""
    derived = {(r["lambda"], r["r"]): r["ok"]
               for r in take(sweep_rows, "invariance")}
    lams = [lam for total in range(1, MAX_N + 2)
            for lam in monotone_compositions(total)]
    failed = failed_invariance_walks(lams)
    walked = {(lam.to_string(), r): (lam, r) not in failed
              for lam in lams for r in range(1, lam.N + 1)}
    assert len(walked) == 409 and all(walked.values())
    assert derived == {key: walked[key] for key in derived}
    assert len(derived) == WEIGHT_TOTAL


def test_4_slice_formula(sweep_rows, capsys):
    restr = take(sweep_rows, "slice_restriction")
    bij = take(sweep_rows, "slice_bijection")
    want = sum(lam.N for lam in INCREASING)
    complete = len(restr) == want and len(bij) == len(INCREASING)
    ok = complete and all(r["ok"] for r in restr + bij)
    conclude(capsys, 4, "invariants restrict to signed slice coordinates", ok,
             f"{len(restr)} restrictions over {len(bij)} increasing compositions")


def test_5_algebraic_independence(sweep_rows, capsys):
    rows = take(sweep_rows, "jacobian_rank")
    complete = len(rows) == len(ALL_LAMS)
    ok = complete and all(r["ok"] for r in rows)
    conclude(capsys, 5, "Jacobian of the invariants reaches full rank", ok,
             f"{len(rows)} certificates, exact rank at the slice base point")


def test_6_symbol_expansion(sweep_rows, capsys):
    rows = take(sweep_rows, "symbol_expansion")
    complete = len(rows) == CAPPED_WEIGHTS
    ok = complete and all(r["ok"] for r in rows)
    conclude(capsys, 6, "determinant coefficients match the binomial expansion",
             ok, f"{len(rows)} identities, increasing N <= {EXPANSION_CAP}")


def test_7_graded_image(sweep_rows, capsys):
    rows = take(sweep_rows, "graded_image")
    complete = len(rows) == CAPPED_WEIGHTS
    ok = complete and all(r["ok"] for r in rows)
    conclude(capsys, 7, "top loop-weight parts of Z_r map onto z_r", ok,
             f"{len(rows)} images with the loop-weight bound")


def _char_poly_coefficients(n):
    """Coefficients of det(tI + X) for the generic n x n matrix.

    Entries are the weight-zero variables e[i,j;0]; the determinant is
    expanded directly over permutations, independently of the minor-sum
    construction under test.  Returns [c_0, ..., c_n] with c_k the
    coefficient of t^(n-k).
    """
    coeffs = [Polynomial({}) for _ in range(n + 1)]
    for w in itertools.permutations(range(1, n + 1)):
        inversions = sum(
            1 for a, b in itertools.combinations(range(n), 2) if w[a] > w[b]
        )
        sign = -1 if inversions % 2 else 1
        # product over rows of (t * delta + X[i, w(i)]), tracked by t-degree
        prod = {0: Polynomial({}) + sign}
        for i in range(1, n + 1):
            x = Polynomial.variable(BasisIndex(i, w[i - 1], 0))
            nxt = {}
            for d, p in prod.items():
                nxt[d] = nxt.get(d, Polynomial({})) + p * x
                if w[i - 1] == i:
                    nxt[d + 1] = nxt.get(d + 1, Polynomial({})) + p
            prod = nxt
        for d, p in prod.items():
            coeffs[n - d] = coeffs[n - d] + p
    return coeffs


def test_8_classical_degenerations(capsys):
    checks = 0
    ok = True
    for N in range(1, MAX_N + 1):
        lam = Composition((N,))
        for r in range(1, N + 1):
            ok = ok and central_element(lam, r) == embed(lam, (1, 1, r - 1))
            checks += 1
    for n in range(1, MAX_N + 1):
        lam = Composition((1,) * n)
        coeffs = _char_poly_coefficients(n)
        ok = ok and coeffs[0] == Polynomial({}) + 1
        for r in range(1, n + 1):
            ok = ok and elementary_invariant(lam, r) == coeffs[r]
            checks += 1
    conclude(capsys, 8, "single-block and zero-matrix cases degenerate classically",
             ok, f"{checks} identities against a direct determinant expansion")


def _random_pbw(alg, basis, rng):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        word = tuple(rng.choice(basis) for _ in range(rng.randint(0, 2)))
        terms[word] = rng.randint(-3, 3)
    return sum((c * math.prod(map(alg.embed, word), start=alg.scalar(1))
                for word, c in terms.items()), alg.scalar(0))


def _random_poly(basis, rng):
    p = Polynomial({})
    for _ in range(rng.randint(1, 3)):
        mono = Polynomial({}) + rng.randint(-3, 3)
        for _ in range(rng.randint(0, 2)):
            mono = mono * Polynomial.variable(rng.choice(basis))
        p = p + mono
    return p


def test_9_structural_sanity(capsys):
    failures = []

    jacobi_triples = 0
    for lam in ALL_LAMS:
        basis = basis_list(lam)

        def bracket_into(acc, x, y, scale):
            for z, c in bracket(lam, x, y):
                v = acc.get(z, 0) + scale * c
                if v:
                    acc[z] = v
                elif z in acc:
                    del acc[z]

        for x, y, z in itertools.combinations(basis, 3):
            acc = {}
            for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
                for w, coeff in bracket(lam, a, b):
                    bracket_into(acc, w, c, coeff)
            jacobi_triples += 1
            if acc:
                failures.append(f"jacobi {lam} {x} {y} {z}")
    if jacobi_triples < 1000:
        failures.append("jacobi sweep too small")

    lam = Composition((2, 3))
    alg = pbw_algebra(lam)
    basis = basis_list(lam)
    rng = random.Random(0)
    for k in range(100):
        a, b, c = (_random_pbw(alg, basis, rng) for _ in range(3))
        if (a * b) * c != a * (b * c):
            failures.append(f"associativity triple {k}")

    for n in (2, 3, 4):
        rep = verify_left_minor_vanishing(n, trials=50, seed=0)
        if not rep.ok:
            failures.append(f"left minors n={n}")

    rng = random.Random(0)
    for k in range(50):
        p, q = _random_poly(basis, rng), _random_poly(basis, rng)
        if restrict(lam, p * q) != restrict(lam, p) * restrict(lam, q):
            failures.append(f"restriction pair {k}")

    ok = not failures
    conclude(capsys, 9, "structure constants, rewriting and restriction are sound",
             ok, failures[0] if failures else
             f"{jacobi_triples} Jacobi triples, 100 triples, 150 trials, 50 pairs")
