import gc
import itertools
import random

import pytest
from hypothesis import given, settings

from nilcent import composition, freealg
from nilcent.centralizer import (BasisIndex, WordLimitError, is_admissible,
                                 minor_table)
from nilcent.composition import (
    Composition,
    monotone_compositions,
    weight_subcompositions,
)
from nilcent.enveloping import central_element, pbw_algebra
from nilcent.freealg import (
    FreeElement,
    TSymbol,
    UPolynomial,
    binomial_z_expansion,
    expansion_identity,
    letter_positions,
    t_entry_polynomial,
    t_symbol,
    verify_graded_image,
    z_polynomial,
)
from nilcent.linalg import SparseElement, column_minor

from conftest import embed, free_elements, plant_z
from oracles import (
    column_determinant,
    failed_graded_images,
    failed_symbol_expansions,
    left_minor_cdets,
    loop_weight,
    memo_products,
    perm_sign,
    substitute_word,
    verify_left_minor_vanishing,
)

LAM12 = Composition((1, 2))
LAM11 = Composition((1, 1))


def increasing(total):
    return [lam for lam in monotone_compositions(total) if lam.is_increasing]


def T(i, j, s):
    return FreeElement.letter(TSymbol(i, j, s))


def letter(x):
    return FreeElement.letter(x)


class TestFreeElement:
    @settings(max_examples=40)
    @given(a=free_elements(), b=free_elements(), c=free_elements())
    def test_ring_laws(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert a - a == FreeElement({})
        one = FreeElement({(): 1})
        assert one * a == a and a * one == a

    def test_noncommutative(self):
        a, b = letter("a"), letter("b")
        assert a * b != b * a
        assert (a * b - b * a).terms == {("a", "b"): 1, ("b", "a"): -1}

    def test_repr(self):
        assert repr(T(1, 2, 2)) == "T[1,2;2]"
        assert repr(letter("a") * letter("b") - 3) == "a*b - 3"
        assert repr(FreeElement({})) == "0"


def leibniz(m):
    """Sum of sign(p) * m[p0][0] * m[p1][1] * ..., factors in column order."""
    n = len(m)
    total = 0
    for p in itertools.permutations(range(n)):
        prod = perm_sign(p)
        for col in range(n):
            prod = prod * m[p[col]][col]
        total = total + prod
    return total


def scalars(m):
    """An integer matrix lifted to free-algebra scalars."""
    return [[FreeElement({}) + c for c in row] for row in m]


def random_free_matrix(rng, n):
    """n x n free-algebra matrix, about 30% of its entries zero."""
    return [[FreeElement({}) if rng.random() < 0.3
             else letter(rng.choice("abc")) * rng.randint(1, 3)
             + rng.randint(-2, 2)
             for _ in range(n)] for _ in range(n)]


class TestColumnDeterminant:
    def test_one_by_one(self):
        assert column_determinant([[letter("a")]]) == letter("a")

    def test_two_by_two_column_order(self):
        a, b, c, d = (letter(x) for x in "abcd")
        got = column_determinant([[a, b], [c, d]])
        assert got == a * d - c * b

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            column_determinant([[letter("a"), letter("b")]])
        with pytest.raises(ValueError):
            column_determinant([])

    def test_matches_leibniz_on_integers(self):
        rng = random.Random(11)
        for n in (2, 3, 4):
            for _ in range(10):
                m = scalars([[rng.randint(-5, 5) for _ in range(n)]
                             for _ in range(n)])
                assert column_determinant(m) == leibniz(m)
        # free-algebra entries, some zero: the factors of each term must
        # multiply in column order while zero entries prune permutations
        for n in (3, 4, 5, 6):
            for _ in range(5):
                m = random_free_matrix(rng, n)
                assert column_determinant(m) == leibniz(m)

    def test_cancelled_leading_minors(self):
        # entries that are polynomials in one letter commute, so the
        # leading two-column minor on rows {0, 1} cancels and is dropped
        # before the third column; the other minors carry the result
        a = letter("a")
        x, y = a * a - 2, 3 * a * a * a + a
        rng = random.Random(5)
        for n in (3, 4, 6):
            m = random_free_matrix(rng, n)
            m[0][0] = m[0][1] = x
            m[1][0] = m[1][1] = y
            det = column_determinant(m)
            assert det == leibniz(m)
            assert det
        # two equal leading columns cancel every leading minor
        for n in (3, 4):
            column = [a * k + k * k * a * a for k in range(1, n + 1)]
            m = random_free_matrix(rng, n)
            for i in range(n):
                m[i][0] = m[i][1] = column[i]
            assert not column_determinant(m)
            assert not leibniz(m)

    def test_matches_leibniz_in_the_enveloping_algebra(self):
        lam = Composition((1, 1, 1, 1))
        tilde = pbw_algebra(lam).tilde
        m = [[tilde(BasisIndex(i, j, 0)) for j in range(1, 5)]
             for i in range(1, 5)]
        det = column_determinant(m)
        assert det
        assert det == leibniz(m)

    def test_leaves_its_entries_unchanged(self):
        """Products add into fresh term maps, never into an entry's, even
        where one element fills several places or the entry is 1."""
        rng = random.Random(29)
        tilde = pbw_algebra(Composition((1, 1, 1))).tilde
        pbw = [[tilde(BasisIndex(i, j, 0)) for j in range(1, 4)]
               for i in range(1, 4)]
        pbw[2][1] = pbw[0][0]
        matrices = [pbw]
        for n in (1, 2, 3, 4):
            m = random_free_matrix(rng, n)
            m[-1][-1] = m[0][0] = m[0][0] + 1
            m[0][-1] = FreeElement({(): 1})
            matrices.append(m)
        for m in matrices:
            before = [[dict(x.terms) for x in row] for row in m]
            assert column_determinant(m) == leibniz(m)
            assert [[x.terms for x in row] for row in m] == before

    def test_leaves_no_reference_cycle(self):
        m = scalars([[1, 2], [3, 4]])
        gc.collect()
        gc.disable()
        try:
            column_determinant(m)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_equal_integer_columns_vanish(self):
        m = scalars([[2, 2, 5], [3, 3, -1], [-4, -4, 7]])
        assert column_determinant(m) == 0

    @settings(max_examples=25)
    @given(u=free_elements(), v=free_elements(), w=free_elements(),
           x=free_elements())
    def test_column_linearity(self, u, v, w, x):
        def det(col2):
            return column_determinant([[u, col2[0]], [v, col2[1]]])

        combined = det((3 * w + x, 3 * FreeElement({}) + FreeElement({})))
        assert combined == 3 * det((w, FreeElement({}))) + det(
            (x, FreeElement({})))


class Unreadable:
    """An entry that fails on any use: its row must never be read."""

    def __bool__(self):
        raise AssertionError("entry of a row outside the set was read")

    __neg__ = __mul__ = __rmul__ = __bool__


def entry_of(m, read=None):
    """The column_minor entry of the matrix m, on the columns (c,) that
    columns gives: entry(a, c) is m[a - 1][c], row a sitting at bit
    a - 1.  Each read is recorded as (a, c)."""
    def entry(a, c):
        if read is not None:
            read.append((a, c))
        return m[a - 1][c]
    return entry


def columns(cs):
    """The column_minor columns (c,) of the matrix columns cs."""
    return tuple((c,) for c in cs)


class TestColumnMinor:
    def test_full_minor_matches_leibniz(self):
        """On every row the minor is the determinant, and the memo keeps
        a zero minor as None, never as a zero element."""
        rng = random.Random(23)
        for n in (1, 2, 3, 4, 5):
            for _ in range(6):
                m = random_free_matrix(rng, n)
                memo: dict = {}
                det = column_minor(memo, entry_of(m), columns(range(n)),
                                   (1 << n) - 1)
                want = leibniz(m)
                assert det == want if want else det is None
                assert all(v is None or v for v in memo.values())

    def test_gapped_row_sets_match_leibniz(self):
        """Square sub-blocks on any columns, in any order, and on row sets
        with gaps, where the sign counts only the rows of R above i, all
        read through one memo."""
        rng = random.Random(41)
        gapped = 0
        for n in (2, 3, 4, 5, 6):
            m = random_free_matrix(rng, n)
            memo: dict = {}
            for _ in range(25):
                k = rng.randint(1, n)
                rows = sorted(rng.sample(range(n), k))
                cols = tuple(rng.sample(range(n), k))
                gapped += rows[-1] - rows[0] >= k
                want = leibniz([[m[i][c] for c in cols] for i in rows])
                got = column_minor(memo, entry_of(m), columns(cols),
                                   sum(1 << i for i in rows))
                assert got == want if want else got is None
        assert gapped > 20

    def test_leaves_its_memo_and_entries_unchanged(self):
        rng = random.Random(37)
        for n in (2, 3, 4, 5):
            m = random_free_matrix(rng, n)
            m[1][1] = m[0][0] = m[0][0] + 1
            entries = [[dict(x.terms) for x in row] for row in m]
            memo: dict = {}
            for k in range(1, n + 1):
                before = {key: dict(v.terms) for key, v in memo.items() if v}
                column_minor(memo, entry_of(m), columns(range(k)),
                             (1 << k) - 1)
                assert {key: memo[key].terms for key in before} == before
            assert [[x.terms for x in row] for row in m] == entries

    def test_cancelled_minor_is_never_extended(self, monkeypatch):
        """Rows 0 and 1 carry x and then y, so x*y - x*y cancels on rows
        {0, 1}; the minors through row 2 stay, and a third column that
        needs the cancelled minor takes no product with it."""
        x, y, z, w = (letter(c) for c in "xyzw")
        zero = FreeElement({})
        m = [[x, y, zero], [x, y, zero], [zero, z, w]]
        products = []
        real = SparseElement._mul_into

        def counted(self, out, other, scale):
            products.append(self)
            return real(self, out, other, scale)

        monkeypatch.setattr(SparseElement, "_mul_into", counted)
        memo: dict = {}
        two, three = columns((0, 1)), columns((0, 1, 2))
        assert column_minor(memo, entry_of(m), two, 0b011) is None
        assert memo[two, 0b011] is None and len(products) == 2
        assert column_minor(memo, entry_of(m), two, 0b101) == x * z
        assert column_minor(memo, entry_of(m), two, 0b110) == x * z
        del products[:]
        assert column_minor(memo, entry_of(m), three, 0b111) is None
        assert products == []

    def test_rows_outside_the_set_are_never_read(self):
        rng = random.Random(43)
        for n in (3, 4, 5):
            m = random_free_matrix(rng, n)
            for _ in range(10):
                k = rng.randint(1, n - 1)
                rows = sum(1 << i for i in rng.sample(range(n), k))
                read = []
                column_minor({}, entry_of(m, read), columns(range(k)), rows)
                assert read and all(rows >> a - 1 & 1 for a, _ in read)
        # row 2 is outside {1, 3}; the sign counts the rows of R above a
        a, b, c, d = (letter(x) for x in "abcd")
        m = [[b, d], [Unreadable(), Unreadable()], [a, c]]
        assert column_minor({}, entry_of(m), columns((0, 1)),
                            0b101) == b * c - a * d

    def test_entry_gets_the_row_of_each_bit_and_the_column_fields(self):
        """Bit a - 1 of the mask is row a, and each column's fields follow
        the row as separate arguments."""
        read = []

        def entry(*args):
            read.append(args)
            return letter("".join(map(str, args)))

        det = column_minor({}, entry, ((2, 0), (1, 3)), 0b101)
        assert sorted(read) == [(1, 1, 3), (1, 2, 0), (3, 1, 3), (3, 2, 0)]
        assert det == letter("120") * letter("313") - letter(
            "320") * letter("113")


class TestTSymbol:
    def test_window_examples(self):
        assert t_symbol(LAM12, 1, 1, 1) == T(1, 1, 1)
        assert not t_symbol(LAM12, 1, 2, 1)
        assert t_symbol(LAM12, 1, 2, 2) == T(1, 2, 2)
        assert t_symbol(LAM12, 2, 1, 1) == T(2, 1, 1)
        assert not t_symbol(LAM12, 2, 1, 2)
        assert t_symbol(LAM12, 2, 2, 2) == T(2, 2, 2)
        assert not t_symbol(LAM12, 2, 2, 3)

    def test_window_is_the_admissible_one(self):
        """T[i,j;s] is a letter exactly when e[i,j;s-1] is a basis label."""
        for total in range(1, 8):
            for lam in monotone_compositions(total):
                for i, j in itertools.product(range(1, lam.n + 1), repeat=2):
                    for s in range(1, lam.part(j) + 2):
                        letter = FreeElement.letter(TSymbol(i, j, s))
                        expected = letter if is_admissible(
                            lam, (i, j, s - 1)) else FreeElement({})
                        assert t_symbol(lam, i, j, s) == expected

    def test_zero_superscript_is_kronecker(self):
        assert t_symbol(LAM12, 1, 1, 0) == FreeElement({(): 1})
        assert not t_symbol(LAM12, 1, 2, 0)

    def test_bad_labels_raise(self):
        with pytest.raises(ValueError):
            t_symbol(LAM12, 0, 1, 1)
        with pytest.raises(ValueError):
            t_symbol(LAM12, 1, 3, 1)
        with pytest.raises(ValueError):
            t_symbol(LAM12, 1, 1, -1)


def u_coefficient(p, k) -> FreeElement:
    """The coefficient of u^k in a UPolynomial."""
    return FreeElement({w: c for (e, w), c in p.terms.items() if e == k})


def u_degree(p) -> int:
    return max(k for k, _ in p.terms)


def u_plus(x) -> UPolynomial:
    """u + x for a single letter x."""
    return UPolynomial({(1, ()): 1, (0, (x,)): 1})


class TestUPolynomial:
    def test_arithmetic(self):
        p, q = u_plus("a"), u_plus("b")
        prod = p * q
        assert u_degree(prod) == 2
        assert u_coefficient(prod, 2) == FreeElement({(): 1})
        assert u_coefficient(prod, 1) == letter("a") + letter("b")
        assert u_coefficient(prod, 0) == letter("a") * letter("b")
        assert u_coefficient(p + q, 1) == FreeElement({(): 2})
        assert q * p != prod
        assert repr(prod) == "a*b + u^1*a + u^1*b + u^2"

    def test_subtraction_and_negation(self):
        p = u_plus("a")
        assert p - p == UPolynomial({})
        neg = -p
        assert u_coefficient(neg, 1) == FreeElement({(): -1})
        assert u_coefficient(neg, 0) == -letter("a")
        assert neg + p == 0

    def test_entry_polynomial_frozen(self):
        e11 = t_entry_polynomial(LAM12, 1, 1)
        assert e11.terms == {(1, ()): 1, (0, (TSymbol(1, 1, 1),)): 1}
        e12 = t_entry_polynomial(LAM12, 1, 2)
        assert e12.terms == {(0, (TSymbol(1, 2, 2),)): 1}
        e22 = t_entry_polynomial(LAM12, 2, 2)
        assert u_degree(e22) == 2
        assert u_coefficient(e22, 2) == FreeElement({(): 1})
        assert u_coefficient(e22, 1) == T(2, 2, 1) - 2
        assert u_coefficient(e22, 0) == -T(2, 2, 1) + T(2, 2, 2) + 1

    def test_top_coefficient_is_kronecker(self):
        for total in range(1, 6):
            for lam in increasing(total):
                for i in range(1, lam.n + 1):
                    for j in range(1, lam.n + 1):
                        p = t_entry_polynomial(lam, i, j)
                        want = FreeElement({(): 1} if i == j else {})
                        assert u_coefficient(p, lam.part(j)) == want
                        assert u_degree(p) <= lam.part(j)


class TestZPolynomial:
    def test_single_box(self):
        assert z_polynomial(Composition((1,))) == (T(1, 1, 1),)

    def test_single_block(self):
        lam = Composition((4,))
        assert z_polynomial(lam) == tuple(T(1, 1, r) for r in range(1, 5))

    def test_two_boxes_frozen(self):
        Z1, Z2 = z_polynomial(LAM11)
        assert Z1 == T(1, 1, 1) + T(2, 2, 1) - 1
        assert Z2 == (T(1, 1, 1) * T(2, 2, 1) - T(2, 1, 1) * T(1, 2, 1)
                      - T(1, 1, 1))

    def test_hook_frozen(self):
        Z1, Z2, Z3 = z_polynomial(LAM12)
        assert Z1 == T(1, 1, 1) + T(2, 2, 1) - 2
        assert Z2 == (T(1, 1, 1) * T(2, 2, 1) - 2 * T(1, 1, 1) - T(2, 2, 1)
                      + T(2, 2, 2) + 1)
        assert Z3 == (-T(1, 1, 1) * T(2, 2, 1) + T(1, 1, 1) * T(2, 2, 2)
                      - T(2, 1, 1) * T(1, 2, 2) + T(1, 1, 1))

    def test_decreasing_raises(self):
        with pytest.raises(ValueError):
            z_polynomial(Composition((2, 1)))

    @pytest.mark.parametrize("times,plus", [
        (UPolynomial({(0, (TSymbol(1, 1, 1),)): 1}), 0),
        (2, 0),
        (UPolynomial({(1, ()): 1}), 0),
        (0, 0),
        (1, UPolynomial({(3, ()): 1})),
    ], ids=["letter", "two", "u", "zero", "plus-u^3"])
    def test_not_monic_raises(self, monkeypatch, times, plus):
        """Entry (1,1) of the 1,1 matrix, times one factor plus one term,
        leaves the u^2 part a letter, 2 or nothing, or puts a power of u
        above it: with and without a unit u^2 part."""
        lam = Composition((1, 1))
        composition.state.cache_clear()
        original = freealg.t_entry_polynomial

        def planted(lam, i, j):
            p = original(lam, i, j)
            return p * times + plus if (i, j) == (1, 1) else p

        monkeypatch.setattr(freealg, "t_entry_polynomial", planted)
        with pytest.raises(RuntimeError, match="not monic of degree N"):
            z_polynomial(lam)


class TestExpansion:
    def test_loop_weight(self):
        assert loop_weight(()) == 0
        assert loop_weight((TSymbol(1, 1, 1),)) == 0
        assert loop_weight((TSymbol(2, 2, 2),)) == 1
        assert loop_weight((TSymbol(1, 1, 1), TSymbol(2, 2, 3))) == 2

    def test_hook_expansion_matches(self):
        for r in (1, 2, 3):
            assert binomial_z_expansion(LAM12, r) == z_polynomial(LAM12)[r - 1]

    def test_identity_small(self):
        for total in range(1, 5):
            for lam in increasing(total):
                for r in range(1, total + 1):
                    rep = expansion_identity(lam, r)
                    assert rep.ok, rep.failures()

    def test_matches_pair_oracle(self):
        """binomial_z_expansion equals the pair oracle for every r, first
        on a cold state with r descending, then on the warm state with r
        ascending: a prefix built for one r must serve every other r."""
        lams = [lam for total in range(1, 7) for lam in increasing(total)]
        assert failed_symbol_expansions(lams) == []

    @pytest.mark.parametrize("parts", [(1, 1, 2, 2), (1, 2, 3), (1, 1, 1, 3)],
                             ids=lambda p: ",".join(map(str, p)))
    def test_order_and_state_independent(self, parts):
        assert failed_symbol_expansions([Composition(parts)]) == []

    def test_each_prefix_extended_once(self, monkeypatch):
        """Over all r, each minor on a prefix of the columns of a nu, a
        (cols, rows) key of the memo, is built once: one symbol read per
        entry, and one product per row whose entry and whose minor
        without that row are both nonzero.  A second pass over r reads
        nothing and builds nothing."""
        lam = Composition((1, 1, 2, 2))
        composition.state.cache_clear()
        want = z_polynomial(lam)
        reads, products = [], []
        real_symbol, real_mul = freealg.t_symbol, SparseElement._mul_into

        def symbol(*args):
            reads.append(args)
            return real_symbol(*args)

        def counted(self, out, other, scale):
            products.append(other)
            return real_mul(self, out, other, scale)

        monkeypatch.setattr(freealg, "t_symbol", symbol)
        monkeypatch.setattr(SparseElement, "_mul_into", counted)

        def one_pass():
            reads.clear()
            products.clear()
            for r in range(1, lam.N + 1):
                assert binomial_z_expansion(lam, r) == want[r - 1]
            return len(reads), len(products)

        built = one_pass()
        memo = minor_table(lam, symbol)
        before = dict(memo)
        assert built == (sum(len(cols) == 1 for cols, _ in memo),
                         memo_products(memo))
        assert one_pass() == (0, 0)
        assert all(memo[key] is minor for key, minor in before.items())
        assert len(memo) == len(before)
        composition.state.cache_clear()

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            binomial_z_expansion(LAM12, 4)
        with pytest.raises(ValueError):
            binomial_z_expansion(Composition((2, 1)), 1)


@pytest.mark.parametrize("check", [expansion_identity, verify_graded_image],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("r", [0, -1, 4])
def test_symbol_checks_reject_weight_first(monkeypatch, check, r):
    """A bad weight is named before any determinant is built."""
    monkeypatch.setattr(freealg, "z_polynomial",
                        lambda lam: pytest.fail("Z built before checking r"))
    with pytest.raises(ValueError, match=r"weight must lie in 1\.\.3, got"):
        check(LAM12, r)


class TestGradedImage:
    def test_substitution_signs(self):
        assert substitute_word(LAM12, (TSymbol(1, 1, 1),)) == embed(
            LAM12, (1, 1, 0))
        assert substitute_word(LAM12, (TSymbol(2, 2, 2),)) == -embed(
            LAM12, (2, 2, 1))
        got = substitute_word(LAM12, (TSymbol(1, 1, 1), TSymbol(2, 1, 1)))
        assert got == embed(LAM12, (1, 1, 0)) * embed(LAM12, (2, 1, 0))

    def test_single_block(self):
        lam = Composition((4,))
        for r in range(1, 5):
            rep = verify_graded_image(lam, r)
            assert rep.ok, rep.failures()

    def test_capelli_sign_positive(self):
        rep = verify_graded_image(LAM11, 2)
        assert rep.ok
        Z2 = z_polynomial(LAM11)[1]
        image = pbw_algebra(LAM11).scalar(0)
        for word, c in Z2.terms.items():
            if loop_weight(word) == 0:
                image = image + c * substitute_word(LAM11, word)
        assert image == central_element(LAM11, 2)

    def test_hook_top_weight(self):
        rep = verify_graded_image(LAM12, 3)
        assert rep.ok, rep.failures()
        Z3 = z_polynomial(LAM12)[2]
        image = pbw_algebra(LAM12).scalar(0)
        for word, c in Z3.terms.items():
            if loop_weight(word) == 1:
                image = image + c * substitute_word(LAM12, word)
        assert image == -central_element(LAM12, 3)

    def test_small_sweep(self):
        """The tier-1 twin of the CI step on N = 7 and 8: all 135 (lam, r)
        with lam increasing and N <= 6."""
        lams = [lam for total in range(1, 7) for lam in increasing(total)]
        assert sum(lam.N for lam in lams) == 135
        assert failed_graded_images(lams) == []

    def test_table_weight_matches_loop_weight(self):
        """The loop weight read off letter_positions' table equals the sum
        of s - 1 over the letters, on every word of every Z_r of the 29
        increasing lam with N <= 6."""
        lams = [lam for total in range(1, 7) for lam in increasing(total)]
        assert len(lams) == 29
        for lam in lams:
            position, weights = letter_positions(lam)
            assert len(weights) == 256
            for Zr in z_polynomial(lam):
                for word in Zr.terms:
                    letters = bytes(position[x] for x in word)
                    assert sum(letters.translate(weights)) == loop_weight(word)

    @pytest.mark.parametrize("extra", [T(1, 2, 6), T(1, 1, 1) * T(2, 1, 3)],
                             ids=["alone", "after-an-admissible-letter"])
    def test_letter_outside_the_window_raises(self, monkeypatch, extra):
        """A letter T[i,j;s] whose e[i,j;s-1] is no basis label stops the
        check with the package's one message, not a KeyError."""
        plant_z(monkeypatch, LAM12, 3, extra)
        bad = next(x for word in extra.terms for x in word
                   if not is_admissible(LAM12, (x.i, x.j, x.s - 1)))
        with pytest.raises(ValueError) as info:
            verify_graded_image(LAM12, 3)
        assert str(info.value) == (f"inadmissible label {(bad.i, bad.j, bad.s - 1)}"
                                   " for lambda=1,2")

    def test_more_basis_positions_than_bytes(self, monkeypatch):
        """1^17 has dim g_e = 289: the check stops with WordLimitError
        before it builds a word of positions."""
        lam = Composition((1,) * 17)
        monkeypatch.setattr(freealg, "z_polynomial",
                            lambda _: (T(1, 1, 1),) * lam.N)
        composition.state.cache_clear()
        try:
            with pytest.raises(WordLimitError, match="dim g_e = 289"):
                verify_graded_image(lam, 1)
        finally:
            composition.state.cache_clear()


class TestWitnesses:
    """A word added to Z_3 of 1,2 (loop-weight bound 1) is named by each
    check it breaks."""

    def test_top_weight_word(self, monkeypatch):
        plant_z(monkeypatch, LAM12, 3, 5 * T(1, 2, 2))
        exp = expansion_identity(LAM12, 3)
        assert [c.detail for c in exp.failures()] == [
            "residual has 1 terms, leading 5*T[1,2;2]"]
        loop, image = verify_graded_image(LAM12, 3).checks
        assert loop.passed
        assert not image.passed
        assert image.detail == "residual has 1 terms, leading -5*e[1,2;1]"

    def test_over_weight_word(self, monkeypatch):
        plant_z(monkeypatch, LAM12, 3, 7 * T(2, 2, 2) * T(2, 2, 2) + T(1, 1, 1))
        exp = expansion_identity(LAM12, 3)
        assert [c.detail for c in exp.failures()] == [
            "residual has 2 terms, leading 7*T[2,2;2]*T[2,2;2]"]
        loop, image = verify_graded_image(LAM12, 3).checks
        assert not loop.passed
        assert loop.detail == ("1 words exceed the bound, "
                               "leading 7*T[2,2;2]*T[2,2;2]")
        assert image.passed


class TestLeftMinorVanishing:
    def test_zero_first_column(self):
        z = FreeElement({})
        a, b, c, d = (letter(x) for x in "abcd")
        m = [[z, a, b], [z, c, d], [z, a, c]]
        assert all(not det for _, det in left_minor_cdets(m, 1))
        assert not column_determinant(m)

    def test_dependent_single_letter_columns(self):
        """Column 2 = column 1 times x; powers of one letter commute."""
        x = letter("x")
        one = FreeElement({(): 1})
        col1 = [one + x, x * x, 2 * x - 1]
        rest = [letter("a"), letter("b"), letter("c")]
        m = [[col1[i], col1[i] * x, rest[i]] for i in range(3)]
        assert all(not det for _, det in left_minor_cdets(m, 2))
        assert not column_determinant(m)

    def test_distinct_letters_break_hypothesis(self):
        """With noncommuting first columns the minors no longer vanish."""
        a, b, t = letter("a"), letter("b"), letter("t")
        m = [[a, a * t, letter("c")],
             [b, b * t, letter("d")],
             [a + b, (a + b) * t, letter("e")]]
        dets = dict(left_minor_cdets(m, 2))
        assert dets[(0, 1)] == a * b * t - b * a * t
        assert dets[(0, 1)]

    def test_randomized_trials(self):
        for n in (2, 3, 4):
            rep = verify_left_minor_vanishing(n, trials=25, seed=0)
            assert rep.ok, rep.failures()
            assert len(rep.checks) == 25

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            verify_left_minor_vanishing(1, trials=1, seed=0)
