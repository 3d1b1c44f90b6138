from math import factorial

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from memo_check import check_bounded_memo
from foresthopf import hopf
from foresthopf.coeffs import LinComb, _lincomb
from foresthopf.errors import StructureMismatchError
from foresthopf.words import Word, EMPTY_WORD
from foresthopf.forests import PlainForest, OrderedForest, enumerate_ordered
from foresthopf.hopf import (
    HopfStructure, Shuffle, CKForests, Ordered, HeapOrdered,
    FQSym, FQSymDec, get_structure, hopf_axiom_sweep,
    check_antipode, check_coassoc, check_counit, check_delta_mult, tensor,
)
from foresthopf.morphisms import t_sigma
from foresthopf.perms import all_perms
from test_coeffs import assert_clean


class TestShuffle:
    def test_product_multiplicity(self):
        aa = Word((1, 1))
        prod = Shuffle().product(aa, Word((1,)))
        assert prod == LinComb.of(Word((1, 1, 1)), 3)

    def test_product_example(self):
        ab = Word((1, 2))
        c = Word((3,))
        prod = Shuffle().product(ab, c)
        assert str(prod) == "(abc)+(acb)+(cab)"

    def test_coproduct_deconcatenation(self):
        terms = Shuffle().coproduct(Word((1, 2))).sorted_items()
        assert {(str(a), str(b)) for (a, b), _ in terms} == {
            ("()", "(ab)"), ("(a)", "(b)"), ("(ab)", "()"),
        }

    def test_antipode_closed_form(self):
        w = Word((1, 2, 3))
        assert Shuffle().antipode(w) == LinComb.of(Word((3, 2, 1)), -1)
        assert Shuffle().antipode(EMPTY_WORD) == LinComb.of(EMPTY_WORD, 1)

    def test_closed_antipode_matches_recursion(self):
        class RecursiveShuffle(Shuffle):
            antipode = HopfStructure.antipode

        fast, slow = Shuffle(2), RecursiveShuffle(2)
        for n in range(5):
            for w in fast.basis(n):
                assert fast.antipode(w) == slow.antipode(w)


class TestCKForests:
    def test_coproduct_cherry(self):
        f = PlainForest.parse("1[2,2]")
        delta = CKForests(2).coproduct(f)
        assert delta.coeff((PlainForest.parse("1[2]"),
                            PlainForest.parse("2"))) == 2
        assert delta.coeff((PlainForest.parse("1"),
                            PlainForest.parse("2|2"))) == 1
        assert delta.coeff((PlainForest.parse("e"), f)) == 1

    def test_antipode_ladder(self):
        # S(l2) = -l2 + dot*dot
        l2 = PlainForest.parse("1[2]")
        s = CKForests().antipode(l2)
        assert s.coeff(l2) == -1
        assert s.coeff(PlainForest.parse("1|2")) == 1

    def test_antipode_matches_generic(self):
        # the generic recursion runs S(Roo) Lea; the cut recursion
        # Roo S(Lea), written out here, must give the same antipode
        def cut_antipode(f):
            total = LinComb.of(f, -1 if f.n else 1)
            for (roo, lea), c in H.coproduct(f).items():
                if roo.n and lea.n:
                    for g, cg in cut_antipode(lea).items():
                        total = total - LinComb.of(roo * g, c * cg)
            return total

        H = CKForests(2)
        for n in range(4):
            for f in H.basis(n):
                assert H.antipode(f) == cut_antipode(f)


class TestOrdered:
    def test_coproduct_standardizes(self):
        f = OrderedForest.parse("1:1[2:2[3:3]]")
        delta = Ordered().coproduct(f)
        pair = (OrderedForest.parse("1:1"), OrderedForest.parse("1:2[2:3]"))
        assert delta.coeff(pair) == 1

    def test_heap_basis_closed_under_coproduct(self):
        H = HeapOrdered()
        for n in range(5):
            for f in H.basis(n):
                for (a, b), _ in H.coproduct(f).items():
                    assert a.is_heap_ordered() and b.is_heap_ordered()

    def test_heap_basis_closed_under_product(self):
        H = HeapOrdered()
        for f in H.basis(2):
            for g in H.basis(2):
                for fg, _ in H.product_lin(
                        LinComb.of(f), LinComb.of(g)).items():
                    assert fg.is_heap_ordered()


# indices into the basis elements of degree 0 to 3 (ten of them in
# both HeapOrdered and FQSym), with small coefficients that often cancel
lin_terms = st.lists(st.tuples(st.integers(0, 9), st.integers(-2, 2)),
                     max_size=5)


class TestBilinearLayer:
    """product_lin, coproduct_lin and tensor against explicit loops into
    the public LinComb constructor."""

    @pytest.mark.parametrize("structure", [HeapOrdered, FQSym])
    @seed(20261018)
    @settings(max_examples=60, deadline=None)
    @given(a_terms=lin_terms, b_terms=lin_terms)
    # (1 + x)(x - 1) = x - 1 + xx - x: the two x terms cancel
    @example(a_terms=[(0, 1), (1, 1)], b_terms=[(1, 1), (0, -1)])
    # an input that cancels to zero
    @example(a_terms=[(2, 1), (2, -1)], b_terms=[(3, 2)])
    def test_maps_match_double_loops(self, structure, a_terms, b_terms):
        H = structure()
        pool = [x for n in range(4) for x in H.basis(n)]
        a = LinComb((pool[i], c) for i, c in a_terms)
        b = LinComb((pool[i], c) for i, c in b_terms)
        expected = {
            "product_lin": LinComb(
                (z, cx * cy * cz) for x, cx in a.items()
                for y, cy in b.items()
                for z, cz in H.product(x, y).items()),
            "coproduct_lin": LinComb(
                (pair, cx * c) for x, cx in a.items()
                for pair, c in H.coproduct(x).items()),
            "tensor": LinComb(
                ((x, y), cx * cy) for x, cx in a.items()
                for y, cy in b.items()),
        }
        got = {
            "product_lin": H.product_lin(a, b),
            "coproduct_lin": H.coproduct_lin(a),
            "tensor": tensor(a, b),
        }
        for name, value in got.items():
            assert value == expected[name], name
            assert_clean(value)


class TestNonzeroProducers:
    """The producers built by coeffs._nonzero_lincomb, which skips the
    zero scan, never store a zero coefficient: every product and
    coproduct on the basis (each through _unit_sum or a one-key forest
    product), tensor, and the closed form of T^sigma, exhaustively to
    degree 4."""

    @pytest.mark.parametrize("name, d", [
        ("shuffle", 2), ("ck", 2), ("ordered", 2), ("heap", 2),
        ("fqsym", 1), ("fqsym-dec", 2),
    ])
    def test_products_coproducts_and_tensors(self, name, d):
        H = get_structure(name, d)
        basis = {n: H.basis(n) for n in range(5)}
        for n1 in range(5):
            for n2 in range(5 - n1):
                for x in basis[n1]:
                    dx = H.coproduct(x)
                    assert_clean(dx)
                    for y in basis[n2]:
                        assert_clean(H.product(x, y))
                        assert_clean(tensor(dx, H.coproduct(y)))

    def test_simplex_expansion(self):
        for n in range(5):
            for sigma in all_perms(n):
                terms = t_sigma(sigma)
                assert_clean(terms)
                assert terms == LinComb(list(terms.items()))


class TestAxiomSweeps:
    @pytest.mark.parametrize("name,deg,d", [
        ("shuffle", 4, 2),
        ("ck", 4, 1),
        ("ordered", 3, 1),
        ("heap", 4, 1),
        ("heap", 3, 2),
        ("fqsym", 4, 1),
        ("fqsym-dec", 3, 2),
    ])
    def test_sweep(self, name, deg, d):
        H = get_structure(name, d)
        assert hopf_axiom_sweep(H, deg) == []

    def test_antipode_check_catches_breakage(self):
        class Broken(Shuffle):
            def antipode(self, b):
                return LinComb.of(b, 1)

        msg = check_antipode(Broken(), Word((1,)))
        assert msg is not None

    def test_coassoc_check_catches_a_dropped_term(self):
        ladder = PlainForest.parse("1[1[1]]")
        assert check_coassoc(DroppedCut(), ladder) is None
        assert check_coassoc(DroppedCut(last=True), ladder) \
            == "coassociativity fails on 1[1[1]]"

    def test_delta_mult_check_catches_a_dropped_term(self):
        # a cut is dropped from Delta(1|1[1]) only: its factors have
        # degree below 3
        one, ladder = PlainForest.parse("1"), PlainForest.parse("1[1]")
        assert check_delta_mult(CKForests(), one, ladder) is None
        assert check_delta_mult(DroppedCut(last=True), one, ladder) \
            == "Delta not multiplicative on 1, 1[1]"
        # every coefficient of the right side counts: the cut 1[1] x 1
        # of the cherry 1[1,1] has coefficient 2, and the shuffle
        # a * a = 2aa weighs both tensor factors
        cherry, a = PlainForest.parse("1[1,1]"), Word((1,))
        assert check_delta_mult(CKForests(), cherry, cherry) is None
        assert check_delta_mult(Shuffle(), a, a) is None

    def test_antipode_check_catches_each_side(self):
        # the generic recursion S(x) = -x - sum S(x')x'' makes the
        # (S x id) side hold on any coproduct; a dropped term breaks
        # coassociativity, and with it the (id x S) side
        ladder = PlainForest.parse("1[1[1]]")
        assert check_antipode(DroppedCut(), ladder) is None
        assert check_antipode(DroppedCut(last=True), ladder) \
            == "antipode axiom (id x S) fails on 1[1[1]]"

        class NegatedAntipode(CKForests):
            def antipode(self, b):
                value = super().antipode(b)
                return -value if b.n == 3 else value

        assert check_antipode(NegatedAntipode(), ladder) \
            == "antipode axiom (S x id) fails on 1[1[1]]"

    def test_counit_check_catches_a_dropped_trivial_term(self):
        class NoTrivialRight(CKForests):
            def _coproduct(self, b):
                terms = dict(super()._coproduct(b).terms)
                del terms[(b, PlainForest(()))]
                return _lincomb(terms)

        cherry = PlainForest.parse("1[1,1]")
        assert check_counit(CKForests(), cherry) is None
        assert check_counit(NoTrivialRight(), cherry) \
            == "counit axiom fails on 1[1,1]"


def _ordered_forests(n):
    """Cayley's formula: (n+1)^(n-1) ordered forests of degree n, in a
    form that also gives the empty forest's 1 at n = 0."""
    return (n + 1) ** n // (n + 1)


def _pairs_up_to(counts, n):
    """Ordered pairs of basis elements of total degree at most n, from
    the basis size of each degree."""
    return sum(counts(a) * counts(b) for a in range(n + 1)
               for b in range(n + 1 - a))


class TestStructureMemos:
    """The product, coproduct and antipode memos of a structure are
    bounded, and a cap of 5 on one, then on two, then on all three
    changes no result."""

    @pytest.mark.parametrize("make,deg", [
        (lambda: CKForests(2), 4),
        (lambda: Ordered(1), 3),
        (lambda: FQSymDec(2), 3),
        (lambda: DroppedCut(last=True), 4),
    ], ids=["ck-2", "ordered-1", "fqsym-dec-2", "dropped-cut"])
    def test_small_cap_gives_the_same_sweep(self, monkeypatch, make, deg):
        H = make()

        def compute(n):
            return (hopf_axiom_sweep(H, n),
                    [(H.coproduct(b), H.antipode(b)) for b in H.basis(n)])

        # each memo keeps its recorder while the next one is checked
        for name in ("_coproduct_memo", "_antipode_memo", "_product_memo"):
            check_bounded_memo(monkeypatch, H, name, compute, range(deg + 1))

    def test_product_is_read_from_the_memo(self):
        H = Ordered()
        assert len(H._product_memo) == 0
        a, b = OrderedForest.parse("1[2]"), OrderedForest.parse("1")
        first = H.product(a, b)
        assert H.product(a, b) is first
        assert len(Ordered()._product_memo) == 0

    @pytest.mark.parametrize("name, d", [
        ("shuffle", 2), ("ck", 2), ("ordered", 2), ("heap", 2),
        ("fqsym", 1), ("fqsym-dec", 2),
    ])
    def test_memo_keys_the_ordered_pair(self, name, d):
        # every ordered pair up to total degree 4, both orders of a pair
        # read from one memo, so a key that forgets the order of the
        # factors answers one of them with the other's product
        H = get_structure(name, d)
        basis = {n: H.basis(n) for n in range(5)}
        for n1 in range(5):
            for n2 in range(5 - n1):
                for x in basis[n1]:
                    for y in basis[n2]:
                        assert H.product(x, y) == H._product(x, y)
        if name == "ordered":
            a, b = OrderedForest.parse("1:1[2:2]"), OrderedForest.parse("1:1")
            assert H._product(a, b) != H._product(b, a)

    def test_cayley_counts_the_ordered_forests(self):
        assert [len(enumerate_ordered(n)) for n in range(5)] \
            == [_ordered_forests(n) for n in range(5)]

    def test_product_memo_holds_the_pairs_of_a_sweep(self):
        H = Ordered()
        hopf_axiom_sweep(H, 4)
        assert len(H._product_memo) == _pairs_up_to(_ordered_forests, 4)

    def test_sweeps_fit_the_cap(self):
        # hopf-check ordered --degree 6, the largest one-letter sweep
        # within the default bound, memoizes at most the ordered forests
        # up to degree 6, and at most the ordered pairs of them of total
        # degree up to 6; criterion 3's largest sweep, heap with two
        # letters to degree 5, n! 2^n forests of degree n, fewer pairs
        assert sum(_ordered_forests(n) for n in range(7)) == 18_249
        assert _pairs_up_to(_ordered_forests, 6) == 40_489
        assert _pairs_up_to(lambda n: factorial(n) * 2 ** n, 5) == 11_161
        assert 40_489 < hopf.STRUCTURE_MEMO_CAP


class DroppedCut(CKForests):
    """The forest coproduct, and the same with its last proper term
    dropped on every forest of degree 3 and more."""

    def __init__(self, last=False):
        super().__init__()
        self.last = last

    def _coproduct(self, b):
        terms = dict(super()._coproduct(b).terms)
        if self.last and b.n >= 3:
            del terms[[k for k in terms if k[0].n and k[1].n][-1]]
        return _lincomb(terms)


class TestRegistry:
    def test_get_structure_names(self):
        for name in ("shuffle", "ck", "ordered", "heap", "fqsym-dec"):
            assert get_structure(name, 2) is not None
        assert get_structure("fqsym", 1) is not None

    def test_fqsym_refuses_decorations(self):
        # the basis is undecorated, so a decoration count would be
        # silently ignored
        text = (r"fqsym has no decorations \(d={}\); "
                r"use the fqsym-dec structure$")
        with pytest.raises(ValueError, match=text.format(2)):
            FQSym(2)
        with pytest.raises(ValueError, match=text.format(5)):
            get_structure("fqsym", 5)

    def test_unknown_structure(self):
        with pytest.raises(StructureMismatchError):
            get_structure("nope")

    def test_fqsym_dec_basis_size(self):
        H = FQSymDec(2)
        assert len(list(H.basis(2))) == 2 * 4

    def test_counit(self):
        H = FQSym()
        assert H.counit(H.unit()) == 1
        assert H.counit(next(iter(H.basis(2)))) == 0
