import pytest
from hypothesis import example, given, seed, settings, strategies as st

from foresthopf.coeffs import LinComb
from foresthopf.errors import StructureMismatchError
from foresthopf.words import Word, EMPTY_WORD
from foresthopf.forests import PlainForest, OrderedForest
from foresthopf.hopf import (
    sh_product, sh_coproduct, sh_antipode,
    ck_coproduct, ho_coproduct,
    HopfStructure, Shuffle, CKForests, HeapOrdered,
    FQSym, FQSymDec, get_structure, hopf_axiom_sweep,
    check_antipode, tensor,
)
from test_coeffs import assert_clean


class TestShuffle:
    def test_product_multiplicity(self):
        aa = Word((1, 1))
        prod = sh_product(aa, Word((1,)))
        assert prod == LinComb.of(Word((1, 1, 1)), 3)

    def test_product_example(self):
        ab = Word((1, 2))
        c = Word((3,))
        prod = sh_product(ab, c)
        assert prod.render() == "(abc)+(acb)+(cab)"

    def test_coproduct_deconcatenation(self):
        terms = sh_coproduct(Word((1, 2))).sorted_items()
        assert {(str(a), str(b)) for (a, b), _ in terms} == {
            ("()", "(ab)"), ("(a)", "(b)"), ("(ab)", "()"),
        }

    def test_antipode_closed_form(self):
        w = Word((1, 2, 3))
        assert sh_antipode(w) == LinComb.of(Word((3, 2, 1)), -1)
        assert sh_antipode(EMPTY_WORD) == LinComb.of(EMPTY_WORD, 1)

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
        delta = ck_coproduct(f)
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
            for (roo, lea), c in ck_coproduct(f).items():
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
        delta = ho_coproduct(f)
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
pair_terms = st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9),
                                st.integers(-2, 2)), max_size=3)


class TestBilinearLayer:
    """product_lin, coproduct_lin, tensor and tensor_mul against explicit
    loops into the public LinComb constructor."""

    @pytest.mark.parametrize("structure", [HeapOrdered, FQSym])
    @seed(20261018)
    @settings(max_examples=60, deadline=None)
    @given(a_terms=lin_terms, b_terms=lin_terms, t1_terms=pair_terms,
           t2_terms=pair_terms)
    # (1 + x)(x - 1) = x - 1 + xx - x: the two x terms cancel
    @example(a_terms=[(0, 1), (1, 1)], b_terms=[(1, 1), (0, -1)],
             t1_terms=[], t2_terms=[])
    # inputs that cancel to zero
    @example(a_terms=[(2, 1), (2, -1)], b_terms=[(3, 2)],
             t1_terms=[(1, 1, 1), (1, 1, -1)], t2_terms=[(0, 2, 1)])
    def test_maps_match_double_loops(self, structure, a_terms, b_terms,
                                     t1_terms, t2_terms):
        H = structure()
        pool = [x for n in range(4) for x in H.basis(n)]
        a = LinComb((pool[i], c) for i, c in a_terms)
        b = LinComb((pool[i], c) for i, c in b_terms)
        t1 = LinComb(((pool[i], pool[j]), c) for i, j, c in t1_terms)
        t2 = LinComb(((pool[i], pool[j]), c) for i, j, c in t2_terms)
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
            "tensor_mul": LinComb(
                ((p, q), c1 * c2 * cp * cq) for (u, v), c1 in t1.items()
                for (x, y), c2 in t2.items()
                for p, cp in H.product(u, x).items()
                for q, cq in H.product(v, y).items()),
        }
        got = {
            "product_lin": H.product_lin(a, b),
            "coproduct_lin": H.coproduct_lin(a),
            "tensor": tensor(a, b),
            "tensor_mul": H.tensor_mul(t1, t2),
        }
        for name, value in got.items():
            assert value == expected[name], name
            assert_clean(value)


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


class TestRegistry:
    def test_get_structure_names(self):
        for name in ("shuffle", "ck", "ordered", "heap", "fqsym-dec"):
            assert get_structure(name, 2) is not None
        assert get_structure("fqsym", 1) is not None

    def test_fqsym_refuses_decorations(self):
        # the basis is undecorated, so a decoration count would be
        # silently ignored
        with pytest.raises(ValueError, match="use fqsym-dec for --d 2"):
            FQSym(2)
        with pytest.raises(ValueError, match="use fqsym-dec for --d 5"):
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
