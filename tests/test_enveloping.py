import gc
import itertools
import math
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcent import centralizer, composition, enveloping
from nilcent.centralizer import (
    BasisIndex,
    adjoint_images,
    basis_list,
    determinant_sum,
    minor_table,
    structure_constants,
)
from nilcent.composition import (Composition, enumerate_mu, invariant_degrees,
                                 monotone_compositions)
from nilcent.enveloping import (
    PbwElement,
    central_element,
    filtration_degree,
    pbw_algebra,
    pbw_to_json_obj,
    product_sum,
    verify_central,
)
from nilcent.freealg import z_polynomial
from nilcent.invariants import Polynomial
from nilcent.linalg import SparseElement

from conftest import compositions, embed, pbw_elements
from oracles import (
    bracket,
    central_report_all_labels,
    failed_determinant_sums,
    loop_weight,
    memo_products,
    position_words,
    transposition_normal_form,
    transposition_product,
)

LAM12 = Composition((1, 2))
LAM11 = Composition((1, 1))


def words(a):
    """Terms of a PbwElement keyed by tuples of BasisIndex."""
    return dict(a.index_terms())


def commutators(a):
    """[a, e_idx] = a * e_idx - e_idx * a keyed by idx, for every basis
    label, by PBW multiplication."""
    lam = a.algebra.lam
    return {idx: a * embed(lam, idx) - embed(lam, idx) * a
            for idx in basis_list(lam)}


def walked_commutators(a):
    """[a, e_idx] keyed by idx, for every basis label, as the negative of
    ad e_idx . a by centralizer.adjoint_images."""
    alg = a.algebra
    return {idx: -PbwElement(alg, terms) for idx, terms in adjoint_images(
        alg.lam, a.terms, range(len(alg.basis)), alg._insert)}


class TestBasicElements:
    def test_embed_and_scalar(self):
        alg = pbw_algebra(LAM12)
        one = alg.scalar(1)
        assert words(one) == {(): 1}
        x = embed(LAM12, (1, 1, 0))
        assert words(x) == {(BasisIndex(1, 1, 0),): 1}
        two_terms = x + embed(LAM12, (2, 2, 1))
        assert len(two_terms.terms) == 2

    def test_embed_inadmissible_raises(self):
        with pytest.raises(ValueError):
            embed(LAM12, (1, 2, 0))

    def test_tilde_examples(self):
        tilde = pbw_algebra(LAM12).tilde
        assert tilde((1, 1, 0)) == embed(LAM12, (1, 1, 0))
        shifted = tilde((2, 2, 0))
        assert shifted == embed(LAM12, (2, 2, 0)) - 2
        assert tilde((1, 2, 1)) == embed(LAM12, (1, 2, 1))

    def test_mixed_contexts_raise(self):
        a = embed(LAM12, (1, 1, 0))
        b = embed(LAM11, (1, 1, 0))
        with pytest.raises(ValueError):
            a + b
        with pytest.raises(ValueError):
            a * b


class TestMultiplication:
    def test_gl2_rewrite_example(self):
        prod = embed(LAM11, (2, 1, 0)) * embed(LAM11, (1, 2, 0))
        assert words(prod) == {
            (BasisIndex(1, 2, 0), BasisIndex(2, 1, 0)): 1,
            (BasisIndex(2, 2, 0),): 1,
            (BasisIndex(1, 1, 0),): -1,
        }

    @given(pbw_elements(LAM12))
    def test_unit_laws(self, a):
        alg = pbw_algebra(LAM12)
        assert alg.scalar(1) * a == a
        assert a * alg.scalar(1) == a
        assert not (alg.scalar(0) * a)
        assert 1 * a == a and a * 1 == a

    @pytest.mark.parametrize("lam", [LAM11, LAM12, Composition((2, 2))])
    @settings(max_examples=40)
    @given(data=st.data())
    def test_associativity_and_distributivity(self, lam, data):
        a = data.draw(pbw_elements(lam))
        b = data.draw(pbw_elements(lam))
        c = data.draw(pbw_elements(lam))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c

    def test_pbw_soundness_exhaustive(self):
        """Generator products reproduce the tabulated bracket, N <= 6."""
        for total in range(1, 7):
            for lam in monotone_compositions(total):
                alg = pbw_algebra(lam)
                basis = basis_list(lam)
                for x, y in itertools.product(basis, repeat=2):
                    lhs = alg.embed(x) * alg.embed(y) - alg.embed(y) * alg.embed(x)
                    rhs = alg.scalar(0)
                    for z, c in bracket(lam, x, y):
                        rhs = rhs + c * alg.embed(z)
                    assert lhs == rhs


INSERTION_COMPOSITIONS = [Composition(p) for p in (
    (1, 2), (2, 2), (1, 1, 2), (1, 2, 2), (2, 3), (1, 1, 1, 1))]


class TestInsertion:
    @pytest.mark.parametrize("lam", INSERTION_COMPOSITIONS, ids=str)
    @given(data=st.data())
    def test_products_match_transposition_oracle(self, lam, data):
        """Generators multiplied in any order straighten as by transposition."""
        alg = pbw_algebra(lam)
        word = data.draw(st.lists(st.integers(0, len(alg.basis) - 1),
                                  max_size=5).map(bytes))
        got = math.prod((alg.embed(alg.basis[t]) for t in word), start=alg.scalar(1))
        assert got.terms == transposition_normal_form(alg, word)

    @pytest.mark.parametrize("lam", INSERTION_COMPOSITIONS, ids=str)
    @given(data=st.data())
    def test_insertion_matches_transposition_oracle(self, lam, data):
        """A letter put anywhere into a sorted word, so that it moves left
        or right, straightens as by transposition."""
        alg = pbw_algebra(lam)
        letter = st.integers(0, len(alg.basis) - 1)
        s = bytes(sorted(data.draw(st.lists(letter, max_size=5))))
        h = data.draw(st.integers(0, len(s)))
        z = data.draw(letter)
        head, tail = s[:h], s[h:]
        assert alg._insert(head, z, tail) == transposition_normal_form(
            alg, head + bytes((z,)) + tail)


def word_sums(lam):
    """Random {word of BasisIndex: c}, with prefixes of its own words.

    Words are unsorted and may repeat letters; each drawn word also brings
    one of its prefixes, so shared paths, the empty word and words that
    end where another goes on are all common.
    """
    word = st.lists(st.sampled_from(basis_list(lam)), max_size=4).map(tuple)

    @st.composite
    def build(draw):
        ws = draw(st.lists(word, max_size=5))
        ws += [w[:draw(st.integers(0, len(w)))] for w in ws]
        return {w: draw(st.integers(-3, 3)) for w in ws}

    return build()


def generator_products(lam, terms):
    """sum c * e_x1 ... e_xk, one public product per letter."""
    alg = pbw_algebra(lam)
    return sum((c * math.prod(map(alg.embed, w), start=alg.scalar(1))
                for w, c in terms.items()), alg.scalar(0))


class TestProductSum:
    @pytest.mark.parametrize("lam", [Composition(p) for p in (
        (1, 2), (2, 2), (1, 1, 2), (1, 1, 1, 1))], ids=str)
    @settings(max_examples=30)
    @given(data=st.data())
    def test_matches_generator_products(self, lam, data):
        terms = data.draw(word_sums(lam))
        assert (product_sum(lam, position_words(lam, terms))
                == generator_products(lam, terms))

    def test_shared_prefixes_and_repeats(self):
        a, b, c = BasisIndex(2, 1, 0), BasisIndex(1, 2, 1), BasisIndex(1, 1, 0)
        terms = {(): 5, (a,): 1, (a, b): -2, (a, b, a): 3, (b, a): 1,
                 (a, a, c): 4, (c, b, b): -1}
        assert (product_sum(LAM12, position_words(LAM12, terms))
                == generator_products(LAM12, terms))

    def test_empty_and_zero(self):
        assert not product_sum(LAM12, {})
        assert product_sum(LAM12, {b"": 3}) == 3
        assert not product_sum(
            LAM12, position_words(LAM12, {(BasisIndex(1, 1, 0),): 0}))

    def test_inadmissible_raises(self):
        """product_sum takes basis positions; a label word stops where it
        is converted to them."""
        with pytest.raises(ValueError, match=r"^inadmissible label \(1, 2, 0\) "
                           "for lambda=1,2$"):
            position_words(LAM12, {(BasisIndex(1, 1, 0), BasisIndex(1, 2, 0)): 1})

    @pytest.mark.parametrize("word", [bytes([9, 0]), bytes([9])], ids=repr)
    def test_position_outside_the_basis_raises(self, word):
        """1,2 has dim g_e = 5; position 9 stops before the walk."""
        with pytest.raises(ValueError, match=r"^basis position 9 lies outside "
                           r"dim g_e = 5 for lambda=1,2$"):
            product_sum(LAM12, {word: 1})


def product_words(lam, r):
    """Words for product_sum at weight r: the top-weight words of Z_r in
    the positions verify_graded_image gives them, or, on a decreasing
    lam, which has no Z_r, the words of z_r read backwards."""
    if lam.is_increasing:
        m = r - invariant_degrees(lam)[r - 1]
        return position_words(lam, {
            tuple(BasisIndex(x.i, x.j, x.s - 1) for x in w): c
            for w, c in z_polynomial(lam)[r - 1].terms.items()
            if loop_weight(w) == m})
    return {w[::-1]: c for w, c in central_element(lam, r).terms.items()}


class TestMemoPolicy:
    def test_top_level_insertion_stores_only_shorter_words(self):
        """e[2,1;0]^2 e[2,2;0] times e[1,2;0] on the right: the word itself
        is not stored, only the recursion's shorter words are."""
        lam = Composition((1, 1, 1))
        composition.state.cache_clear()
        alg = pbw_algebra(lam)
        ix = alg.index_of
        head = bytes((ix[BasisIndex(2, 1, 0)],) * 2 + (ix[BasisIndex(2, 2, 0)],))
        z = ix[BasisIndex(1, 2, 0)]
        word = head + bytes((z,))
        assert alg._insert(head, z, b"") == transposition_normal_form(alg, word)
        assert word not in alg._nf_memo
        assert alg._nf_memo
        assert all(len(w) < len(word) for w in alg._nf_memo)

    @pytest.mark.parametrize("lam", INSERTION_COMPOSITIONS, ids=str)
    @settings(max_examples=30)
    @given(data=st.data())
    def test_any_insertion_stores_only_shorter_words(self, lam, data):
        alg = pbw_algebra(lam)
        alg._nf_memo.clear()
        letter = st.integers(0, len(alg.basis) - 1)
        s = bytes(sorted(data.draw(st.lists(letter, max_size=5))))
        h = data.draw(st.integers(0, len(s)))
        alg._insert(s[:h], data.draw(letter), s[h:])
        assert all(len(w) <= len(s) for w in alg._nf_memo)

    @pytest.mark.parametrize("lam", [Composition(p) for p in (
        (1, 1, 2), (2, 1, 1), (1, 1, 1, 1))], ids=str)
    def test_memo_is_pure_policy(self, lam):
        """Emptying the memo before every call changes no result."""

        def results(cold):
            composition.state.cache_clear()
            alg = pbw_algebra(lam)

            def call(f, *args):
                if cold:
                    alg._nf_memo.clear()
                return f(*args)
            out = [(call(central_element, lam, r).terms,
                    call(verify_central, lam, r),
                    call(product_sum, lam, product_words(lam, r)).terms)
                   for r in range(1, lam.N + 1)]
            assert cold or alg._nf_memo
            return out

        try:
            assert results(cold=True) == results(cold=False)
        finally:
            composition.state.cache_clear()


class TestCommutator:
    def test_example(self):
        got = commutators(embed(LAM12, (1, 1, 0)))[BasisIndex(1, 2, 1)]
        assert got == embed(LAM12, (1, 2, 1))

    @pytest.mark.parametrize("lam", [LAM12, Composition((2, 2))])
    @settings(max_examples=40)
    @given(data=st.data())
    def test_matches_defining_formula(self, lam, data):
        """[a, e] agrees with a*e - e*a exactly, for every generator e."""
        a = data.draw(pbw_elements(lam))
        got = walked_commutators(a)
        assert tuple(got) == basis_list(lam)
        for idx, c in got.items():
            e = embed(lam, idx)
            assert c == a * e - e * a

    @settings(max_examples=30)
    @given(data=st.data())
    def test_matches_transposition_oracle(self, data):
        lam = data.draw(compositions())
        a = data.draw(pbw_elements(lam))
        for idx, c in walked_commutators(a).items():
            e = embed(lam, idx)
            assert c == transposition_product(a, e) - transposition_product(e, a)

    @settings(max_examples=30)
    @given(a=pbw_elements(LAM12), b=pbw_elements(LAM12))
    def test_derivation_rule(self, a, b):
        ca, cb, cab = commutators(a), commutators(b), commutators(a * b)
        for idx in basis_list(LAM12):
            assert cab[idx] == ca[idx] * b + a * cb[idx]

    @pytest.mark.parametrize("lam", [LAM11, LAM12, Composition((2, 2))])
    @settings(max_examples=10)
    @given(data=st.data())
    def test_jacobi(self, lam, data):
        """[[a, x], y] - [[a, y], x] = [a, [x, y]] for generators x, y."""
        a = data.draw(pbw_elements(lam))
        ca = commutators(a)
        nested = {x: commutators(c) for x, c in ca.items()}
        for x, y in itertools.product(basis_list(lam), repeat=2):
            rhs = pbw_algebra(lam).scalar(0)
            for z, c in bracket(lam, x, y):
                rhs = rhs + c * ca[z]
            assert nested[x][y] - nested[y][x] == rhs

    def test_generators_antisymmetric(self):
        for lam in (LAM12, Composition((1, 1, 2))):
            for x, y in itertools.product(basis_list(lam), repeat=2):
                assert (commutators(embed(lam, x))[y]
                        == -commutators(embed(lam, y))[x])

    def test_scalar_commutes(self):
        alg = pbw_algebra(LAM12)
        got = commutators(alg.scalar(7))
        assert tuple(got) == basis_list(LAM12)
        assert all(not c for c in got.values())


class TestCdet:
    """determinant_sum at weights with a single mu: one column determinant
    of shifted generators."""

    @staticmethod
    def cdet(lam, r, mu):
        assert enumerate_mu(lam, r) == (mu,)
        alg = pbw_algebra(lam)
        return PbwElement(alg, determinant_sum(lam, r, alg.tilde))

    def test_single_entry_example(self):
        assert self.cdet(LAM12, 2, (0, 2)) == embed(LAM12, (2, 2, 1))

    def test_two_by_two_example(self):
        got = self.cdet(LAM12, 3, (1, 2))
        assert words(got) == {
            (BasisIndex(1, 1, 0), BasisIndex(2, 2, 1)): 1,
            (BasisIndex(1, 2, 1), BasisIndex(2, 1, 0)): -1,
            (BasisIndex(2, 2, 1),): -1,
        }

    def test_single_block(self):
        lam = Composition((5,))
        assert self.cdet(lam, 3, (3,)) == embed(lam, (1, 1, 2))

    @pytest.mark.parametrize("parts", [(1, 2, 2), (2, 2, 1), (1, 1, 1, 1)])
    def test_each_label_built_once(self, parts):
        """entry runs once per distinct label of the sum at each weight,
        although the mu share labels."""
        lam = Composition(parts)
        alg = pbw_algebra(lam)
        shared = False
        for r in range(1, lam.N + 1):
            calls = []

            def entry(x):
                calls.append(x)
                return alg.tilde(x)

            terms = determinant_sum(lam, r, entry)
            uses = []
            for mu in enumerate_mu(lam, r):
                supp = [b for b, p in enumerate(mu, start=1) if p]
                uses += [BasisIndex(a, b, mu[b - 1] - 1)
                         for a in supp for b in supp]
            assert sorted(calls) == sorted(set(uses))
            assert terms == central_element(lam, r).terms
            shared |= len(uses) > len(calls)
        assert shared

    @pytest.mark.parametrize("parts", [(1, 2, 2), (2, 2, 1), (1, 1, 1, 1)])
    def test_no_admissibility_call(self, monkeypatch, parts):
        """The sums of z_r's and x_r's entries, on a fresh state, find
        their labels in the basis and never call is_admissible."""
        lam = Composition(parts)
        checked = []
        monkeypatch.setattr(centralizer, "is_admissible",
                            lambda lam, idx: checked.append(idx))
        composition.state.cache_clear()
        for r in range(1, lam.N + 1):
            determinant_sum(lam, r, pbw_algebra(lam).tilde)
            determinant_sum(lam, r, Polynomial.variable)
        assert checked == []


class TestMinorTable:
    """determinant_sum reads its determinants from minor_table, which
    shares each minor across every mu and every r."""

    @pytest.mark.parametrize("total", range(1, 8))
    def test_matches_one_determinant_per_mu(self, total):
        """z_r's and x_r's terms equal the sum of one column determinant
        per mu, for every monotone lam with N <= 7 and every r.  The z_r
        are asked for by ascending r and the x_r by descending r, so the
        table grows both ways."""
        assert failed_determinant_sums(monotone_compositions(total)) == []

    def test_builds_only_the_weight_asked_for(self):
        """z_2 of 1^12 builds minors on no more than d_2 = 2 columns."""
        lam = Composition((1,) * 12)
        composition.state.cache_clear()
        try:
            central_element(lam, 2)
            table = minor_table(lam, pbw_algebra(lam).tilde)
            assert invariant_degrees(lam)[1] == 2
            assert max(len(cols) for cols, _ in table) == 2
        finally:
            composition.state.cache_clear()

    @pytest.mark.parametrize("parts", [(1, 1, 1, 1, 1), (1, 2, 2), (2, 1, 1, 1)])
    @pytest.mark.parametrize("descending", [False, True])
    def test_each_product_taken_once(self, monkeypatch, parts, descending):
        """Over every r, in either order, each (cols, rows) minor of the
        table takes the product of the entry of each of its rows by the
        minor without that row once, and only where both are nonzero."""
        lam = Composition(parts)
        products = []
        real = SparseElement._mul_into

        def counted(self, out, other, scale):
            products.append(other)
            return real(self, out, other, scale)

        monkeypatch.setattr(SparseElement, "_mul_into", counted)
        composition.state.cache_clear()
        weights = range(1, lam.N + 1)
        for r in reversed(weights) if descending else weights:
            determinant_sum(lam, r, Polynomial.variable)
        table = minor_table(lam, Polynomial.variable)
        composition.state.cache_clear()
        assert len(products) == memo_products(table)

    def test_a_weight_asked_again_builds_nothing(self):
        """A second pass over every r calls no entry and leaves every
        minor of the table as it was."""
        lam = Composition((1, 2, 2))
        alg = pbw_algebra(lam)
        calls = []

        def entry(x):
            calls.append(x)
            return alg.tilde(x)

        weights = range(1, lam.N + 1)
        first = [determinant_sum(lam, r, entry) for r in weights]
        table = minor_table(lam, entry)
        before = dict(table)
        built = len(calls)
        assert [determinant_sum(lam, r, entry) for r in weights] == first
        assert len(calls) == built
        assert len(table) == len(before)
        assert all(table[key] is minor for key, minor in before.items())


class TestCentralElements:
    def test_weight_one_example(self):
        z1 = central_element(LAM12, 1)
        assert words(z1) == {
            (BasisIndex(1, 1, 0),): 1,
            (BasisIndex(2, 2, 0),): 1,
            (): -2,
        }

    def test_single_block_tower(self):
        lam = Composition((6,))
        for r in range(1, 7):
            assert central_element(lam, r) == embed(lam, (1, 1, r - 1))

    def test_capelli_two_by_two(self):
        z2 = central_element(LAM11, 2)
        assert words(z2) == {
            (BasisIndex(1, 1, 0), BasisIndex(2, 2, 0)): 1,
            (BasisIndex(1, 2, 0), BasisIndex(2, 1, 0)): -1,
            (BasisIndex(2, 2, 0),): -1,
        }

    def test_out_of_range(self):
        for r in (0, 4):
            with pytest.raises(ValueError):
                central_element(LAM12, r)

    def test_filtration_degrees(self):
        assert filtration_degree(central_element(LAM12, 1)) == 1
        assert filtration_degree(central_element(LAM11, 2)) == 2
        alg = pbw_algebra(LAM12)
        assert filtration_degree(alg.scalar(5)) == 0
        with pytest.raises(ValueError):
            filtration_degree(alg.scalar(0))

    def test_reads_the_one_bracket_table(self):
        lam = Composition((1, 2, 2))
        composition.state.cache_clear()
        sc = structure_constants(lam)
        alg = pbw_algebra(lam)
        assert alg.table is sc.table
        assert alg.basis is sc.basis and alg.index_of is sc.index_of

    def test_evicted_algebra_is_freed_at_once(self):
        """The central elements an algebra keeps do not point back at it,
        so evicting it frees it without the cyclic collector."""
        pbw_algebra(Composition((2, 2)))
        gc.disable()
        try:
            central_element(LAM12, 2)
            ref = weakref.ref(pbw_algebra(LAM12))
            pbw_algebra(Composition((2, 2)))
            assert ref() is None
        finally:
            gc.enable()

    def test_verify_central_small(self):
        for lam in (LAM12, Composition((2, 3)), Composition((4,))):
            for r in range(1, lam.N + 1):
                rep = verify_central(lam, r)
                assert rep.ok
                assert len(rep.checks) == len(basis_list(lam))

    def test_failed_check_names_a_witness(self, monkeypatch):
        real = enveloping.central_element
        planted = 2 * embed(LAM12, (1, 1, 0)) * embed(LAM12, (1, 2, 1))
        monkeypatch.setattr(enveloping, "central_element",
                            lambda lam, r: real(lam, r) + planted)
        rep = verify_central(LAM12, 2)
        assert not rep.ok
        details = {c.name: c.detail for c in rep.failures()}
        assert len(details) == 4
        assert details["[z_2, e[2,1;0]] = 0"] == (
            "residual has 3 terms, leading -2*e[1,1;0]*e[2,2;1]")

    def test_generator_walk_matches_all_labels(self):
        """Passing rows deduced from lie_generators are the rows the walk
        over every label gives."""
        for total in range(1, 7):
            for lam in monotone_compositions(total):
                for r in range(1, lam.N + 1):
                    assert verify_central(lam, r) == central_report_all_labels(lam, r)

    @pytest.mark.parametrize("parts", [(1, 1, 1), (2, 2), (3, 2, 1)])
    def test_planted_noncentral_fails_as_all_labels(self, monkeypatch, parts):
        """z_r + e[1,2;0] fails with the rows and witnesses of the walk
        over every label."""
        lam = Composition(parts)
        real = enveloping.central_element
        monkeypatch.setattr(enveloping, "central_element",
                            lambda lam, r: real(lam, r) + embed(lam, (1, 2, 0)))
        for r in range(1, lam.N + 1):
            rep = verify_central(lam, r)
            assert not rep.ok
            assert rep == central_report_all_labels(lam, r)


class TestSerialization:
    def test_coefficient_strings(self):
        from fractions import Fraction
        alg = pbw_algebra(LAM12)
        a = embed(LAM12, (1, 1, 0)) * Fraction(-3, 2)
        obj = pbw_to_json_obj(a)
        assert obj["terms"][0]["coeff"] == "-3/2"

    def test_repr_frozen(self):
        z3 = central_element(LAM12, 3)
        assert repr(z3) == (
            "e[1,1;0]*e[2,2;1] - e[1,2;1]*e[2,1;0] - e[2,2;1]")
