from math import comb

from hypothesis import given, settings, strategies as st

from foresthopf.coeffs import LinComb
from foresthopf.perms import Perm, DecoratedPerm, all_perms
from foresthopf.fqsym import (fq_product, fq_coproduct, fq_product_dec,
                              fq_coproduct_dec, unique_factorization)


perms_small = st.integers(1, 4).flatmap(
    lambda n: st.sampled_from(all_perms(n)))


class TestProduct:
    def test_worked_product(self):
        assert str(fq_product(Perm((2, 1)), Perm((1,)))) \
            == "(213)+(231)+(321)"

    def test_term_count_is_binomial(self):
        for p in all_perms(2):
            for q in all_perms(3):
                total = sum(c for _, c in fq_product(p, q).items())
                assert total == comb(5, 2)

    def test_unit(self):
        e = Perm(())
        p = Perm((2, 1, 3))
        assert fq_product(e, p) == LinComb.of(p, 1)
        assert fq_product(p, e) == LinComb.of(p, 1)


class TestCoproduct:
    def test_worked_coproduct(self):
        d = fq_coproduct(Perm((4, 1, 3, 2, 5)))
        got = {(str(a), str(b)) for (a, b), _ in d.items()}
        assert got == {
            ("()", "(41325)"),
            ("(1)", "(1324)"),
            ("(21)", "(213)"),
            ("(312)", "(12)"),
            ("(4132)", "(1)"),
            ("(41325)", "()"),
        }
        assert all(c == 1 for _, c in d.items())

    def test_split_count(self):
        for p in all_perms(3):
            assert len(list(fq_coproduct(p).items())) == 4


class TestUniqueFactorization:
    @given(perms_small, st.integers(0, 4))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, p, k):
        if k > len(p.word):
            return
        p1, p2, zeta = unique_factorization(p, k)
        assert len(p1.word) == k
        assert zeta.is_shuffle(k)
        assert zeta.inverse() @ p1.tensor(p2) == p

    def test_specific(self):
        p1, p2, zeta = unique_factorization(Perm((3, 1, 2)), 1)
        assert p1 == Perm((1,))
        assert p2 == Perm((1, 2))
        assert zeta.inverse() @ p1.tensor(p2) == Perm((3, 1, 2))


class TestDecorated:
    def test_product_rows_travel(self):
        a = DecoratedPerm.parse("(21;xy)")
        b = DecoratedPerm.parse("(1;z)")
        prod = fq_product_dec(a, b)
        tops = {str(t) for t, _ in prod.items()}
        assert tops == {"(213;xyz)", "(231;xzy)", "(321;zxy)"}

    def test_sum_prints_sorted(self):
        # by degree, then top row, then bottom row, whatever the order
        # in which the terms were added
        a = DecoratedPerm.parse("(1;b)")
        b = DecoratedPerm.parse("(1;a)")
        total = fq_product_dec(a, b) + fq_product_dec(b, a)
        assert str(total) == "(12;ab)+(12;ba)+(21;ab)+(21;ba)"

    def test_coproduct_rows_ride_positions(self):
        # splits mirror the undecorated worked example: display word is
        # cut, each side standardized, decoration rows cut at the same spot
        dp = DecoratedPerm.parse("(312;abc)")
        d = fq_coproduct_dec(dp)
        got = {(str(x), str(y)) for (x, y), _ in d.items()}
        assert got == {
            ("(;)", "(312;abc)"),
            ("(1;a)", "(12;bc)"),
            ("(21;ab)", "(1;c)"),
            ("(312;abc)", "(;)"),
        }

    def test_coproduct_counts(self):
        dp = DecoratedPerm.parse("(4132;abca)")
        assert len(list(fq_coproduct_dec(dp).items())) == 5
