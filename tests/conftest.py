"""Shared strategies for property tests, and the generator shorthand."""

import math

from hypothesis import settings
from hypothesis import strategies as st

from nilcent.centralizer import basis_list
from nilcent import freealg
from nilcent.composition import monotone_compositions
from nilcent.enveloping import pbw_algebra
from nilcent.freealg import FreeElement
from nilcent.invariants import Polynomial

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")

SMALL_COMPOSITIONS = tuple(
    lam for total in range(1, 5) for lam in monotone_compositions(total)
)


def embed(lam, idx):
    """The generator e[idx] of the enveloping algebra for lam."""
    return pbw_algebra(lam).embed(idx)


def plant_z(monkeypatch, lam, r, extra):
    """Make freealg.z_polynomial(lam) return Z_r + extra in place of Z_r."""
    zs = freealg.z_polynomial(lam)
    planted = zs[:r - 1] + (zs[r - 1] + extra,) + zs[r:]
    monkeypatch.setattr(freealg, "z_polynomial", lambda _: planted)


def compositions(max_total: int = 4, increasing_only: bool = False):
    pool = [lam for lam in SMALL_COMPOSITIONS if lam.N <= max_total]
    if increasing_only:
        pool = [lam for lam in pool if lam.is_increasing]
    return st.sampled_from(pool)


def pbw_elements(lam, max_len: int = 2, max_terms: int = 3):
    """Random enveloping-algebra elements built from products of generators."""
    alg = pbw_algebra(lam)
    word = st.lists(st.sampled_from(alg.basis), min_size=0,
                    max_size=max_len).map(tuple)
    pairs = st.lists(st.tuples(word, st.integers(-3, 3)),
                     min_size=0, max_size=max_terms)
    return pairs.map(lambda ps: sum(
        (c * math.prod(map(alg.embed, w), start=alg.scalar(1))
         for w, c in dict(ps).items()), alg.scalar(0)))


def polynomials(lam, max_degree: int = 2, max_terms: int = 3):
    """Random commutative polynomials in the basis labels."""
    mono = st.lists(st.sampled_from(basis_list(lam)), min_size=0,
                    max_size=max_degree).map(lambda vs: tuple(sorted(vs)))
    pairs = st.lists(st.tuples(mono, st.integers(-3, 3)),
                     min_size=0, max_size=max_terms)

    def build(ps):
        p = Polynomial({})
        for m, c in ps:
            p = p + Polynomial({m: c} if c else {})
        return p

    return pairs.map(build)


def free_elements(max_len: int = 2, max_terms: int = 3):
    """Random free-algebra elements over four generic letters."""
    word = st.lists(st.sampled_from("abcd"), min_size=0,
                    max_size=max_len).map(tuple)
    pairs = st.lists(st.tuples(word, st.integers(-3, 3)),
                     min_size=0, max_size=max_terms)

    def build(ps):
        e = FreeElement({})
        for w, c in ps:
            e = e + FreeElement({w: c} if c else {})
        return e

    return pairs.map(build)
