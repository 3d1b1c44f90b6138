from fractions import Fraction
import importlib.util
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from foresthopf.coeffs import (GaussianRational, GR_ZERO, GR_ONE, GR_I,
                               parse_gaussian, parse_power_sum,
                               parse_rational, MultiPoly, FreqExp, LinComb,
                               Accumulator, _freqexp, _lincomb, _poly,
                               _sparse, _ZERO)
from foresthopf.characters import PolyPath, _integral_from_s
from foresthopf.errors import ParseError
from foresthopf.forests import enumerate_heap_ordered
from foresthopf.fourier import AtomMeasure, TrigPath
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
        for text in ["1+j", "1+", "1++i", "+-i", "i-", "2*", "2*+i", "*i",
                     "i^", "i^2", "1e2", "1_0", "i2"]:
            with pytest.raises(ParseError):
                parse_gaussian(text)
        with pytest.raises(ParseError) as exc:
            parse_gaussian("")
        assert str(exc.value) == "empty Gaussian rational"

    def test_int_coercion(self):
        assert 2 * GR_I == GaussianRational(0, 2)
        assert GR_ONE + Fraction(1, 2) == GaussianRational(Fraction(3, 2))

    @given(rationals)
    def test_real_value_hashes_as_its_real_part(self, q):
        z = GaussianRational(q)
        assert z == q and hash(z) == hash(q)
        assert z in {q} and q in {z}


class TestMultiPoly:
    def test_ring_ops(self):
        ts = ("t", "s")
        t = MultiPoly.var(ts, "t")
        s = MultiPoly.var(ts, "s")
        p = (t - s) ** 2
        assert p == t * t - 2 * t * s + s * s
        assert str(p) == "t^2-2*t*s+s^2"
        assert str(MultiPoly.zero(("t",))) == "0"

    def test_mismatched_vars(self):
        t = MultiPoly.var(("t",), "t")
        s = MultiPoly.var(("s",), "s")
        with pytest.raises(ValueError):
            t + s

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
TS = ("t", "s")
small_ints = st.integers(min_value=-3, max_value=3)
polys = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                        rationals, max_size=4).map(
                            lambda terms: MultiPoly(TS, terms))
line_polys = st.dictionaries(st.tuples(st.integers(0, 3)), rationals,
                             max_size=3).map(
                                 lambda terms: MultiPoly(("x",), terms))
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

    def test_scalar_passes_zero_parts_through(self):
        # a zero part is returned as it is, with no Fraction operation
        a = GaussianRational(0, 2)
        assert (a * Fraction(3)).re is a.re
        for value in (3 * a, a / 3, a / Fraction(3, 2)):
            assert value.re is a.re
            assert_clean(value)
        assert (a * Fraction(3)).im == 6 and (a / 4).im == Fraction(1, 2)

    def test_freq_product_passes_zero_parts_through(self):
        # the sum of two frequency parts, one of them zero, is the other
        # part itself, with no Fraction operation
        a = FreqExp.exponential("t", 2)
        b = FreqExp.exponential("s", -3)
        (fa,), (fb,) = a.terms, b.terms
        (f,) = (a * b).terms
        assert f == (fa[0], _ZERO, fb[2])
        assert f[0] is fa[0] and f[1] is fb[1] and f[2] is fb[2]
        assert_clean(a * b)

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

    def test_integral_from_s_cancels(self):
        # the integral from s to t of 1 * (2x - s) dx is t^2 - t*s: the
        # s^2 terms of the two monomials cancel and leave no stored zero
        gamma = MultiPoly.one(("x",))
        inner = MultiPoly(TS, {(1, 0): 2, (0, 1): -1})
        value = _integral_from_s(gamma, inner)
        assert value.terms == {(2, 0): Fraction(1), (1, 1): Fraction(-1)}
        assert_clean(value)

    @given(polys, polys, line_polys, small_ints)
    def test_poly_results_clean(self, p, q, gamma, k):
        results = [p + q, p - q, p * q, -p, p * k, k * p, p + k, k - p,
                   p ** 2, _integral_from_s(gamma, p),
                   _integral_from_s(gamma, p * q)]
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


# each sparse-sum type: a sum built by its public constructor, the same
# sum built by its trusted one, and a sum with the same terms in another
# space (None for the types that have one space only)
SPACES = {
    "MultiPoly": (MultiPoly(("t",), {(1,): 2}),
                  _poly(("t",), {(1,): Fraction(2)}),
                  MultiPoly(("s",), {(1,): 2})),
    "MultiPoly-zero": (MultiPoly.zero(("t",)), _poly(("t",), {}),
                       MultiPoly.zero(("s",))),
    "AtomMeasure": (AtomMeasure(2), _sparse(AtomMeasure, 2, {}),
                    AtomMeasure(3)),
    "FreqExp": (FreqExp({(1, 0, 0): GR_I}),
                _freqexp({(Fraction(1), _ZERO, _ZERO): GR_I}), None),
    "LinComb": (LinComb({"a": 2}), _lincomb({"a": 2}), None),
}


@pytest.mark.parametrize("name", sorted(SPACES))
def test_space_is_part_of_the_value(name):
    """SparseSum compares, hashes and adds sums over (space, terms)."""
    public, trusted, other = SPACES[name]
    kind = type(public).__name__
    assert public == trusted and trusted == public
    assert hash(public) == hash(trusted)
    total = Accumulator(trusted)
    total.add(public)
    assert total.value() == public + trusted
    with pytest.raises(TypeError,
                       match=f"^not a summand of type {kind}: "):
        total.add(GR_ONE)
    if other is None:
        return
    assert other.terms == public.terms
    assert public != other and other != public
    with pytest.raises(ValueError) as exc:
        Accumulator(public).add(other)
    assert str(exc.value) == (f"{kind} spaces differ: "
                              f"{public.space!r} vs {other.space!r}")
    with pytest.raises(ValueError):
        public + other


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
        assert str(LinComb.zero()) == "0"

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


class TestReader:
    """parse_power_sum and parse_rational: the one reader of the exact
    rationals in path files, behind parse_gaussian, PolyPath and the
    frequencies of TrigPath."""

    def test_terms(self):
        assert parse_power_sum("1/2*x^3 - x + 2", "x", "p") \
            == {3: Fraction(1, 2), 1: -1, 0: 2}
        # repeated powers sum; a decimal is exact
        assert parse_power_sum("2x + x - .5 + 1.", "x", "p") \
            == {1: 3, 0: Fraction(1, 2)}
        assert parse_power_sum("-x^0 + 3*x^1 + 0.25x^12", "x", "p") \
            == {0: -1, 1: 3, 12: Fraction(1, 4)}

    def test_messages(self):
        for text, message in [
                (" ", "empty polynomial"),
                ("1 +", "bad polynomial term '+' in '1 +'"),
                ("2x^", "bad polynomial term '^' in '2x^'"),
                ("1/0 + x", "zero denominator in '1/0'")]:
            with pytest.raises(ParseError) as exc:
                parse_power_sum(text, "x", "polynomial")
            assert str(exc.value) == message

    def test_rational(self):
        for text, value in [("-7/11", Fraction(-7, 11)), ("+5", 5),
                            (" - 1 / 2", Fraction(-1, 2)),
                            ("1.25", Fraction(5, 4)), (".5", Fraction(1, 2)),
                            ("3.", 3)]:
            assert parse_rational(text) == value
        for text in ["", "+", "1e2", "1e-2", "1_0", "1+1", "1/0", "inf",
                     "nan", "0x10", "1/2.5", "\u0661", "i"]:
            with pytest.raises(ParseError):
                parse_rational(text)
        # a constructor given text reads it the same way
        assert GaussianRational("1/2", "-3") == GaussianRational(
            Fraction(1, 2), -3)
        with pytest.raises(ParseError):
            GaussianRational("1e2")

    @given(gaussians)
    def test_reads_str_of_a_gaussian(self, a):
        assert parse_gaussian(str(a)) == a

    @given(line_polys)
    def test_reads_str_of_a_polynomial(self, p):
        assert PolyPath.parse(f"1: {p}").component(1) == p

    def test_reads_the_benchmark_inputs(self):
        # the literal forms the benchmark writes, and then its inputs in
        # full against the plain data its oracles compare with: a reader
        # that refused one would fail every benchmark round
        assert parse_power_sum("2x^1", "x", "p") == {1: 2}
        assert parse_power_sum("1 - 2x^1", "x", "p") == {0: 1, 1: -2}
        assert parse_power_sum("-2/3x^1 + 1x^4", "x", "p") \
            == {1: Fraction(-2, 3), 4: 1}
        assert parse_rational("-7/11") == Fraction(-7, 11)
        assert parse_gaussian("-i") == -GR_I
        assert parse_gaussian("1/2") == Fraction(1, 2)
        spec = importlib.util.spec_from_file_location(
            "perfbench_inputs",
            Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py")
        inputs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(inputs)
        made = inputs.make_inputs("fourier-chen", 1)
        trig = inputs.spec("fourier-j")["path"]
        assert TrigPath.parse(made["fourier-j"]["path"]).components == tuple(
            tuple((f, GaussianRational(*amp)) for f, amp in trig[letter])
            for letter in sorted(trig))
        for text, poly in zip(made["iterated-integrals"]["paths"],
                              inputs.spec("iterated-integrals")["paths"],
                              strict=True):
            assert PolyPath.parse(text).components == tuple(
                MultiPoly(("x",), {(k,): c for k, c in poly[letter].items()})
                for letter in sorted(poly))
