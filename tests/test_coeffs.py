from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from foresthopf.coeffs import (GaussianRational, GR_ZERO, GR_ONE, GR_I,
                               parse_gaussian, MultiPoly, FreqExp, LinComb,
                               Accumulator)
from foresthopf.errors import ParseError
from foresthopf.forests import enumerate_heap_ordered
from foresthopf.hopf import STRUCTURES
from foresthopf.morphisms import ThetaMatrix, theta, theta_dec, t_sigma
from foresthopf.perms import all_perms


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=10)
gaussians = st.builds(GaussianRational, rationals, rationals)


class TestGaussianRational:
    def test_field_ops(self):
        a = GaussianRational(Fraction(1, 2), Fraction(-3))
        b = GaussianRational(2, Fraction(1, 3))
        assert a + b == GaussianRational(Fraction(5, 2), Fraction(-8, 3))
        assert a * GR_I == GaussianRational(3, Fraction(1, 2))
        assert (a * b) / b == a
        assert a - a == GR_ZERO
        assert GR_I * GR_I == -GR_ONE
        assert GR_I ** 4 == GR_ONE
        assert GR_I ** -1 == -GR_I
        assert b ** 0 == GR_ONE

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            GR_ONE / GR_ZERO

    @given(gaussians, gaussians)
    def test_mul_commutes(self, a, b):
        assert a * b == b * a

    @given(gaussians)
    def test_inverse(self, a):
        if a:
            assert a / a == GR_ONE

    def test_str(self):
        assert str(GaussianRational(Fraction(1, 2), Fraction(3, 4))) \
            == "1/2+3/4*i"
        assert str(GR_I) == "i"
        assert str(-GR_I) == "-i"
        assert str(GaussianRational(-2, 1)) == "-2+i"
        assert str(GR_ZERO) == "0"
        assert str(GaussianRational(5)) == "5"

    def test_parse_roundtrip(self):
        for text in ["1/2+3/4*i", "i", "-i", "-2+i", "0", "5", "-7/3-2*i"]:
            assert str(parse_gaussian(text)) == text
        with pytest.raises(ParseError):
            parse_gaussian("1+j")

    def test_int_coercion(self):
        assert 2 * GR_I == GaussianRational(0, 2)
        assert GR_ONE + Fraction(1, 2) == GaussianRational(Fraction(3, 2))


class TestMultiPoly:
    def test_ring_ops(self):
        ts = ("t", "s")
        t = MultiPoly.var(ts, "t")
        s = MultiPoly.var(ts, "s")
        p = (t - s) ** 2
        assert p == t * t - 2 * t * s + s * s
        assert str(p) == "t^2-2*t*s+s^2"

    def test_mismatched_vars(self):
        t = MultiPoly.var(("t",), "t")
        s = MultiPoly.var(("s",), "s")
        with pytest.raises(ValueError):
            t + s

    def test_antiderivative_and_subst(self):
        xs = ("x", "s")
        x = MultiPoly.var(xs, "x")
        h = (3 * x ** 2).antiderivative("x")
        assert h == x ** 3
        assert h.subst_var("x", "s") == MultiPoly.var(xs, "s") ** 3

    def test_rename_and_embed(self):
        x = MultiPoly.var(("x",), "x")
        q = (x ** 2).with_vars(("x", "s"))
        assert q.vars == ("x", "s")
        r = q.rename_var("x", "u")
        assert r.vars == ("u", "s")

    def test_str_order(self):
        ts = ("t", "s")
        t, s = MultiPoly.var(ts, "t"), MultiPoly.var(ts, "s")
        p = s * s * MultiPoly.const(ts, Fraction(1, 2)) - t * s \
            + t * t * MultiPoly.const(ts, Fraction(1, 2))
        assert str(p) == "1/2*t^2-t*s+1/2*s^2"


class TestFreqExp:
    def test_algebra(self):
        e1 = FreqExp.exponential("t", 1)
        e2 = FreqExp.exponential("t", 2)
        assert e1 * e2 == FreqExp.exponential("t", 3)
        assert e1 * FreqExp.exponential("s", -1) \
            == FreqExp({(Fraction(1), Fraction(0), Fraction(-1)): GR_ONE})
        assert e1 - e1 == FreqExp.zero()
        assert FreqExp.one() * e1 == e1

    def test_scalar(self):
        e = FreqExp.exponential("u", Fraction(1, 2))
        assert 2 * e == e + e
        assert GR_I * e == FreqExp.exponential("u", Fraction(1, 2), GR_I)

    def test_str(self):
        v = FreqExp.exponential("t", 3, -GR_I)
        assert str(v) == "(-i)·exp(i(3·t))"
        w = FreqExp.exponential("t", 1) - FreqExp.exponential("s", 2)
        assert str(w) == "(-1)·exp(i(2·s))+(1)·exp(i(1·t))"
        assert str(FreqExp.zero()) == "0"
        assert str(FreqExp.one()) == "(1)"


def assert_clean(value):
    """The invariant every value of coeffs keeps: Fraction parts (int or
    Fraction for a LinComb coefficient), keys of the right arity, no
    stored zero term."""
    if isinstance(value, GaussianRational):
        assert type(value.re) is Fraction and type(value.im) is Fraction
        return
    if isinstance(value, LinComb):
        assert all(c and type(c) in (int, Fraction)
                   for c in value.terms.values())
        return
    arity = len(value.vars) if isinstance(value, MultiPoly) else 3
    for key, c in value.terms.items():
        assert len(key) == arity
        assert c
        if isinstance(value, MultiPoly):
            assert type(c) is Fraction
        else:
            assert all(type(x) is Fraction for x in key)
            assert_clean(c)


def assert_same_as_public(value):
    """Equal, and hash-equal, to the value the public constructor builds
    from the same parts."""
    if isinstance(value, GaussianRational):
        public = GaussianRational(value.re, value.im)
    elif isinstance(value, MultiPoly):
        public = MultiPoly(value.vars, dict(value.terms))
    elif isinstance(value, LinComb):
        public = LinComb(dict(value.terms))
    else:
        public = FreqExp(dict(value.terms))
    assert value == public
    assert hash(value) == hash(public)


XS = ("x", "s")
small_ints = st.integers(min_value=-3, max_value=3)
polys = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                        rationals, max_size=4).map(
                            lambda terms: MultiPoly(XS, terms))
freqs = st.tuples(small_ints, small_ints, small_ints)
freq_exps = st.dictionaries(freqs, gaussians, max_size=3).map(FreqExp)
lincombs = st.lists(st.tuples(st.sampled_from("abcd"), small_ints),
                    max_size=6).map(LinComb)


class TestCleanValues:
    def test_gaussian_cancellation(self):
        a = GaussianRational(Fraction(1, 2), Fraction(-3))
        assert a - a == GR_ZERO
        assert_clean(a - a)
        assert not (a - a)

    @given(gaussians, gaussians, small_ints)
    def test_gaussian_parts_stay_fraction(self, a, b, k):
        results = [a + b, a - b, a * b, -a, a + k, k + a, a - k, k - a,
                   a * k, k * a, a ** 3]
        if b:
            results += [a / b, k / b, b ** -2]
        if k:
            results.append(a / k)
        for r in results:
            assert_clean(r)
            assert_same_as_public(r)

    def test_gaussian_product_with_zero_parts(self):
        parts = [Fraction(0), Fraction(1, 2), Fraction(-3)]
        for a in parts:
            for b in parts:
                for c in parts:
                    for d in parts:
                        got = GaussianRational(a, b) * GaussianRational(c, d)
                        assert (got.re, got.im) == (a * c - b * d,
                                                    a * d + b * c)
                        assert_clean(got)

    def test_poly_minus_itself(self):
        x, s = MultiPoly.var(XS, "x"), MultiPoly.var(XS, "s")
        p = x * x - 3 * x * s + Fraction(1, 2)
        assert (p - p).terms == {}
        assert p - p == MultiPoly.zero(XS)

    def test_subst_var_collapses(self):
        x, s = MultiPoly.var(XS, "x"), MultiPoly.var(XS, "s")
        assert (x - s).subst_var("x", "s").terms == {}
        q = (x * s + 2 * x * x - 2 * s * s).subst_var("x", "s")
        assert q.terms == {(0, 2): Fraction(1)}
        assert_clean(q)

    @given(polys, polys, small_ints)
    def test_poly_results_clean(self, p, q, k):
        h = (p * q).antiderivative("x")
        results = [p + q, p - q, p * q, -p, p * k, k * p, p + k, k - p,
                   h, h - h.subst_var("x", "s"), p.with_vars(("x", "u", "s")),
                   p.rename_var("x", "t"), p ** 2]
        for r in results:
            assert_clean(r)
            assert_same_as_public(r)

    def test_freq_accumulation_cancels(self):
        e1 = FreqExp.exponential("t", 1, GR_I)
        e2 = FreqExp.exponential("s", Fraction(1, 2))
        total = Accumulator(FreqExp.zero())
        total.add(e1 + e2, 2)
        total.add(e1, GaussianRational(-2))
        total.add(e2 * 2, -1)
        assert total.value().terms == {}
        total.add(e1)
        assert total.value() == e1
        assert_clean(total.value())

    @given(freq_exps, freq_exps, gaussians)
    def test_freq_results_clean(self, a, b, c):
        total = Accumulator(a)
        total.add(b, c)
        total.add(a * b)
        results = [a + b, a - b, a * b, -a, a * c, c * a, a * 2,
                   total.value()]
        for r in results:
            assert_clean(r)
            assert_same_as_public(r)
        assert total.value() == a + c * b + a * b

    def test_lincomb_minus_itself(self):
        a = LinComb([("a", 1), ("b", Fraction(-1, 2)), ("c", 3)])
        assert (a - a).terms == {}
        assert not (a - a)
        assert a - a == LinComb.zero()

    @given(lincombs, lincombs, small_ints)
    def test_lincomb_results_clean(self, a, b, k):
        total = Accumulator(a)
        total.add(b, k)
        total.add(a, -1)
        results = [a + b, a - b, -a, a * k, k * a, a * Fraction(k, 3),
                   LinComb.of("a", k), LinComb.zero(), total.value()]
        for r in results:
            assert_clean(r)
            assert_same_as_public(r)
        assert total.value() == k * b

    def test_accumulator_keeps_its_space(self):
        total = Accumulator(MultiPoly.zero(XS))
        with pytest.raises(ValueError):
            total.add(MultiPoly.zero(("t", "s")))
        with pytest.raises(TypeError):
            total.add(FreqExp.one())
        with pytest.raises(TypeError):
            total.add(MultiPoly.one(XS), GR_I)
        value = total.value()
        total.add(MultiPoly.one(XS))
        assert value == MultiPoly.zero(XS)
        with pytest.raises(TypeError):
            Accumulator(LinComb.zero()).add(MultiPoly.one(XS))


class TestLinComb:
    def test_normalization(self):
        lc = LinComb([("a", 1), ("b", 2), ("a", -1)])
        assert lc.coeff("a") == 0
        assert set(lc.terms) == {"b"}

    def test_ops(self):
        a = LinComb.of("x") + 2 * LinComb.of("y")
        b = a - LinComb.of("y")
        assert b.coeff("y") == 1
        assert (0 * a) == LinComb.zero()

    def test_render(self):
        from foresthopf.perms import Perm
        lc = LinComb.of(Perm((2, 1)), 1) + LinComb.of(Perm((1, 2)), 1)
        assert str(lc) == "(12)+(21)"
        lc2 = LinComb.of(Perm((1, 2)), Fraction(1, 2)) - LinComb.of(Perm((2, 1)))
        assert str(lc2) == "1/2*(12)-(21)"


def assert_int_coefficients(value):
    assert_clean(value)
    assert all(type(c) is int for c in value.terms.values()), value


class TestIntCoefficients:
    """The Hopf structure constants are integers, and so are the
    coefficients the library stores for them: a LinComb coefficient
    becomes a Fraction only when a division happens."""

    @pytest.mark.parametrize("name", sorted(STRUCTURES))
    def test_basis_maps(self, name):
        # fqsym is undecorated and refuses d = 2
        H = STRUCTURES[name](1 if name == "fqsym" else 2)
        layers = [H.basis(n) for n in range(4)]
        for n, layer in enumerate(layers):
            for b in layer:
                assert_int_coefficients(H.coproduct(b))
                assert_int_coefficients(H.antipode(b))
                assert type(H.counit(b)) is int
                for other in layers[:4 - n]:
                    for b2 in other:
                        assert_int_coefficients(H.product(b, b2))

    def test_t_sigma(self):
        for n in range(6):
            for sigma in all_perms(n):
                assert_int_coefficients(t_sigma(sigma))

    def test_theta_and_its_inverse(self):
        for n in range(5):
            for f in enumerate_heap_ordered(n, 2):
                assert_int_coefficients(theta(f))
                assert_int_coefficients(theta_dec(f))
        table = ThetaMatrix(4)
        for sigma in table.perms:
            assert_int_coefficients(table.inverse_column(sigma))

    def test_a_division_makes_fractions(self):
        a = LinComb.of("x") + LinComb.of("y", -3)
        assert_int_coefficients(a * 2)
        assert_int_coefficients(a - 2 * a)
        for r in [a * Fraction(1, 2), LinComb.of("x") * Fraction(1, 2),
                  LinComb.of("x", "1/2"), LinComb([("x", 1), ("x", "1/3")])]:
            assert_clean(r)
            assert all(type(c) is Fraction for c in r.terms.values()), r
        mixed = a + LinComb.of("y", "1/3")
        assert_clean(mixed)
        assert type(mixed.coeff("x")) is int
        assert type(mixed.coeff("y")) is Fraction
        assert a * Fraction(1, 2) == LinComb([("x", "1/2"), ("y", "-3/2")])
        assert hash(LinComb.of("x", Fraction(4, 2))) == hash(LinComb.of("x", 2))
        assert str(LinComb.of("x", Fraction(-2))) == str(LinComb.of("x", -2))

    def test_bad_coefficients_still_raise(self):
        for bad in [0.5, None, 1j]:
            with pytest.raises(TypeError, match="not an exact rational"):
                LinComb.of("x", bad)
            with pytest.raises(TypeError, match="not an exact rational"):
                LinComb([("x", bad)])
            with pytest.raises(TypeError, match="not an exact rational"):
                LinComb.of("x") * bad
