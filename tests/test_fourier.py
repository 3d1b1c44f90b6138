"""Fourier side: sectors, skeleton integrals, chi and J.

Frozen values below were computed by hand from the vertex-factor
product 1/(i Xi_v) and cross-checked through the degree-2 shuffle
relation chi(ab) + chi(ba) = chi(a) chi(b).
"""

from fractions import Fraction
from itertools import combinations, permutations
from math import lcm
import random

import pytest

from memo_check import check_bounded_memo
from test_forests import strictly_above
from foresthopf.coeffs import GaussianRational, GR_ONE, GR_I, FreqExp, LinComb
from foresthopf.errors import (ParseError, MagnitudeTieError,
                               SingularAtomError, BoundExceededError)
from foresthopf.words import Word, all_words
from foresthopf.perms import Perm, all_perms
from foresthopf import fourier, morphisms
from foresthopf.forests import (_ordered, OrderedForest, linear_extensions,
                                enumerate_heap_ordered, ordered_cuts)
from foresthopf.hopf import Shuffle
from foresthopf.memo import Memo
from foresthopf.morphisms import t_sigma
from foresthopf.fourier import (
    TrigPath, AtomMeasure, word_measure, sector_of,
    split_measure, phi_lin, sbar_eval, chi, j_convolution, j_character,
    j_chen_check, rough_path_J,
    phi_multiplicativity_check, e28_check, e22_check, musigma_check,
    converse_check, random_atom, random_measure, sector_sweep, GR_MINUS_I,
)


PATH_TEXT = "1: 1@1\n2: 1@2"
# two frequencies per letter, fractional ones and a Gaussian amplitude
TWO_FREQUENCIES = "1: 1@1, 1/2@-7/11\n2: 1@2, -i@5"


@pytest.fixture(scope="module")
def path():
    return TrigPath.parse(PATH_TEXT)


def freq_term(var, xi, re, im=0):
    return FreqExp.exponential(var, Fraction(xi),
                               GaussianRational(Fraction(re), Fraction(im)))


class TestTrigPath:
    def test_parse(self, path):
        assert path.d == 2
        assert path.component(1) == ((Fraction(1), GR_ONE),)

    def test_amp_forms(self):
        p = TrigPath.parse("1: -i@2, 1/2+3/4*i@-3")
        entries = dict(p.component(1))
        assert entries[Fraction(2)] == GR_MINUS_I
        assert entries[Fraction(-3)] == GaussianRational(
            Fraction(1, 2), Fraction(3, 4))

    def test_repeated_frequency(self):
        with pytest.raises(ParseError):
            TrigPath.parse("1: 1@1, 2@1")

    def test_missing_at(self):
        with pytest.raises(ParseError):
            TrigPath.parse("1: 1")

    def test_no_component_line(self):
        with pytest.raises(ParseError) as exc:
            TrigPath.parse("# a comment\n\n")
        assert str(exc.value) == "a path needs at least one component"

    def test_line_without_colon(self):
        with pytest.raises(ParseError) as exc:
            TrigPath.parse("1 1@1")
        assert str(exc.value) == "missing ':' in path line '1 1@1'"

    def test_bad_indices(self):
        with pytest.raises(ParseError):
            TrigPath.parse("2: 1@1")
        with pytest.raises(ParseError):
            TrigPath.parse("1: 1@1\n1: 1@2")

    def test_component_bounds(self, path):
        with pytest.raises(ParseError):
            path.component(3)


class TestMeasures:
    def test_word_measure_single_atom(self, path):
        nu = word_measure(path, Word((1, 2)))
        assert nu.terms == {(Fraction(1), Fraction(2)): GR_ONE}

    def test_word_measure_expands(self):
        p = TrigPath.parse("1: 1@1, 1@3")
        nu = word_measure(p, Word((1, 1)))
        assert len(nu.terms) == 4

    def test_amps_merge(self):
        a = AtomMeasure(2, {(1, 2): 1})
        b = AtomMeasure(2, [((1, 2), -GR_ONE)])
        assert not (a + b).terms

    def test_repeated_vectors_are_summed(self):
        key = (Fraction(1), Fraction(2))
        assert AtomMeasure(2, [((1, 2), 1), (key, GR_I)]).terms \
            == {key: GaussianRational(1, 1)}
        assert not AtomMeasure(2, [(key, 1), ((1, 2), -1)]).terms

    def test_terms_are_exact(self):
        mu = AtomMeasure(2, {(1, "1/2"): 3})
        [(freq, amp)] = mu.terms.items()
        assert freq == (Fraction(1), Fraction(1, 2))
        assert all(type(x) is Fraction for x in freq)
        assert amp == GaussianRational(3) and type(amp) is GaussianRational
        assert repr(mu) == f"AtomMeasure(2, {[(freq, amp)]})"

    def test_refuses_floats_and_mixed_arities(self):
        with pytest.raises(TypeError, match="not an exact rational"):
            AtomMeasure(1, {(0.5,): 1})
        with pytest.raises(ValueError,
                           match="mixed arities inside one measure"):
            AtomMeasure(2, [((1, 2), 1), ((1,), 1)])

    def test_compose_permutes_coordinates(self):
        composed = AtomMeasure(2, {(5, 7): 1}).compose(Perm((2, 1)))
        assert composed.terms == {(Fraction(7), Fraction(5)): GR_ONE}


class TestSectors:
    def test_sector_of(self):
        assert sector_of((Fraction(3), Fraction(1), Fraction(2))) \
            == Perm((2, 3, 1))
        assert sector_of((Fraction(-2), Fraction(1))) == Perm((2, 1))

    def test_repeated_frequency_is_stable(self):
        assert sector_of((Fraction(1), Fraction(1))) == Perm((1, 2))

    def test_magnitude_tie(self):
        with pytest.raises(MagnitudeTieError) as info:
            sector_of((Fraction(1), Fraction(-1)))
        assert str(info.value) == "frequencies 1 and -1 share a magnitude"

    def test_sectors_are_the_validated_permutations(self):
        # tie-free frequencies in every order, and repeats of one
        # frequency, which sort stably by position
        cases = [tuple(Fraction(f) for f in freq) for n in range(5)
                 for freq in permutations([3, -1, Fraction(5, 2), -7][:n])]
        cases += [(Fraction(2), Fraction(-1), Fraction(2)),
                  (Fraction(-3),) * 3, (Fraction(1, 2), Fraction(1, 2))]
        for freq in cases:
            sigma = sector_of(freq)
            public = Perm(sigma.word)
            assert sigma == public and hash(sigma) == hash(public), freq
            assert [abs(freq[p - 1]) for p in sigma.word] \
                == sorted(abs(f) for f in freq), freq

    def test_split_reassemble(self):
        mu = AtomMeasure(2, {(3, 1): 1, (1, 2): GR_I})
        total = AtomMeasure(2)
        for sigma, piece in split_measure(mu).items():
            total = total + piece.compose(sigma.inverse())
        assert total == mu

    def test_sorted_pieces(self):
        mu = AtomMeasure(2, {(3, 1): 1})
        # only the nonempty sector is listed
        assert split_measure(mu) == {Perm((2, 1)): AtomMeasure(2, {(1, 3): 1})}


def one_atom_value(forest, freq, var="t"):
    """The skeleton value of one forest against one unit atom:
    exp(i sum(freq) var) times the product of the vertex factors."""
    return phi_lin(LinComb.of(forest),
                   AtomMeasure(forest.n, [(freq, 1)]), var)


def e18_closed_form(forest, freq, amp, var="t"):
    """Closed form: amp exp(i sum var) / prod Xi_v, computed from the
    partial order alone. Differs from the skeleton recursion by a
    factor i^{-n}; kept as an independent cross-check route."""
    denom = Fraction(1)
    for v in range(1, forest.n + 1):
        xi = freq[v - 1]
        for w in strictly_above(forest, v):
            xi += freq[w - 1]
        if xi == 0:
            raise SingularAtomError(
                f"frequency sum vanishes at vertex {v} of {forest}")
        denom *= xi
    return FreqExp.exponential(var, sum(freq, Fraction(0)), amp / denom)


class TestSkeleton:
    def test_dot(self):
        got = one_atom_value(OrderedForest.parse("1"), (Fraction(1),))
        assert got == freq_term("t", 1, 0, -1)

    def test_ladder(self):
        got = one_atom_value(OrderedForest.parse("1[2]"),
                             (Fraction(1), Fraction(2)))
        assert got == freq_term("t", 3, Fraction(-1, 6))

    def test_cherry(self):
        got = one_atom_value(OrderedForest.parse("1[2,3]"),
                             (Fraction(1), Fraction(2), Fraction(3)))
        assert got == freq_term("t", 6, 0, Fraction(1, 36))

    def test_forest_multiplies(self):
        got = one_atom_value(OrderedForest.parse("1|2"),
                             (Fraction(1), Fraction(2)))
        assert got == freq_term("t", 3, Fraction(-1, 2))

    def test_singular_vertex(self):
        with pytest.raises(SingularAtomError):
            one_atom_value(OrderedForest.parse("1[2]"),
                           (Fraction(1), Fraction(-1)))

    def test_closed_form_ratio(self):
        # the closed form drops every factor of 1/i
        freqs = {1: (Fraction(2),), 2: (Fraction(2), Fraction(5))}
        for text in ["1", "1[2]", "1|2"]:
            f = OrderedForest.parse(text)
            freq = freqs[f.n]
            scale = GR_MINUS_I ** f.n
            assert one_atom_value(f, freq) \
                == scale * e18_closed_form(f, freq, GR_ONE)

    def test_not_heap_ordered(self):
        # vertex 1 hangs below vertex 2: its parent comes after it
        f = OrderedForest.parse("2:1[1:1]")
        freq = (Fraction(1), Fraction(2))
        with pytest.raises(ValueError, match="not heap-ordered"):
            fourier._xi_product(f.parent, freq)
        with pytest.raises(ValueError, match="not heap-ordered"):
            one_atom_value(f, freq)

    def test_leaves_children_unbuilt(self):
        # the product reads the parent tuple alone
        f = _ordered((0, 1, 1, 0), (1, 1, 1, 1))
        freq = tuple(map(Fraction, (1, 2, 4, 8)))
        assert fourier._xi_product(f.parent, freq) == (7 * 4 * 2 * 8, 15)

    def test_turns(self):
        q = Fraction(-3, 7)
        xi = Fraction(5, 2)
        for n in range(8):
            for var in ("t", "s"):
                assert fourier._skeleton_term(n, q, xi, var) \
                    == FreqExp.exponential(var, xi, GR_MINUS_I ** n * q), n


def _nonresonant_atom(rng, n):
    """A random (frequency vector, amplitude) pair with distinct
    magnitudes and no vanishing sum of frequencies over any nonempty set
    of coordinates."""
    while True:
        freq, amp = random_atom(rng, n)
        if all(sum(c) for k in range(1, n + 1)
               for c in combinations(freq, k)):
            return freq, amp


class TestSkeletonRoutes:
    """The vertex recursion against the closed form over the partial
    order (strictly_above), which differs from it by (-i)^n."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_heap_ordered_forest(self, n):
        rng = random.Random(1000 + n)
        scale = GR_MINUS_I ** n
        for f in enumerate_heap_ordered(n, 1):
            for _ in range(2):
                freq, amp = _nonresonant_atom(rng, n)
                assert one_atom_value(f, freq) * amp \
                    == scale * e18_closed_form(f, freq, amp), (f, freq, amp)

    def test_integer_frequencies(self):
        got = one_atom_value(OrderedForest.parse("1|2"), (1, 2))
        assert got == freq_term("t", 3, Fraction(-1, 2))
        for key, c in got.terms.items():
            assert all(type(x) is Fraction for x in key)
            assert type(c.re) is Fraction and type(c.im) is Fraction

    def test_both_routes_refuse_a_resonant_atom(self):
        # Xi at the root is 1 + 2 - 3 = 0
        freq = (Fraction(1), Fraction(2), Fraction(-3))
        for text in ["1[2[3]]", "1[2,3]"]:
            f = OrderedForest.parse(text)
            with pytest.raises(SingularAtomError):
                one_atom_value(f, freq)
            with pytest.raises(SingularAtomError):
                e18_closed_form(f, freq, GR_ONE)


def _sbar_reference(forest, freq, var, memo):
    """The antipode evaluation as an exponential sum, by the recursion
    S(F) = -F - sum over proper cuts Roo S(Lea); memo maps (forest,
    freq, var) to the values already computed."""
    if forest.n == 0:
        return FreqExp.one()
    freq = tuple(freq)
    key = (forest, freq, var)
    if key in memo:
        return memo[key]
    total = one_atom_value(forest, freq, var)
    for cut in ordered_cuts(forest):
        if cut.roo.n and cut.lea.n:
            total = total + (
                one_atom_value(cut.roo, [freq[i] for i in cut.roo_at], var)
                * _sbar_reference(cut.lea, [freq[i] for i in cut.lea_at],
                                  var, memo))
    memo[key] = -total
    return memo[key]


class TestSbarEval:
    """The rational antipode evaluation against the exponential-sum
    recursion it replaces."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_heap_ordered_forest(self, n):
        rng = random.Random(2000 + n)
        memo = {}
        for f in enumerate_heap_ordered(n, 1):
            freq, _ = _nonresonant_atom(rng, n)
            xi = sum(freq)
            for var in ("t", "s"):
                assert fourier._skeleton_term(
                    n, sbar_eval(f.parent, freq), xi, var) \
                    == _sbar_reference(f, freq, var, memo), (f, freq)

    def test_empty_forest(self):
        assert sbar_eval((), ()) == 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_homogeneous_of_degree_minus_n(self, n):
        # R(lam xi) lam^n = R(xi): chi and the forest route evaluate at
        # integer multiples of the frequencies and rely on it; the
        # second lam turns every coordinate into an int
        rng = random.Random(3000 + n)
        lam = Fraction(-7, 3)
        for f in enumerate_heap_ordered(n, 1):
            freq, _ = _nonresonant_atom(rng, n)
            scale = lcm(*[x.denominator for x in freq])
            ints = tuple([int(scale * x) for x in freq])
            for k, scaled in ((lam, tuple([lam * x for x in freq])),
                              (scale, ints)):
                assert sbar_eval(f.parent, scaled) * k ** n \
                    == sbar_eval(f.parent, freq), (f, freq, k)


class TestChi:
    def test_frozen_values(self, path):
        assert str(chi(path, Word.parse("a"))) == "(-i)·exp(i(1·t))"
        assert str(chi(path, Word.parse("b"))) == "(-1/2*i)·exp(i(2·t))"
        assert str(chi(path, Word.parse("ab"))) == "(-1/6)·exp(i(3·t))"
        assert str(chi(path, Word.parse("ba"))) == "(-1/3)·exp(i(3·t))"
        assert str(chi(path, Word.parse("aa"))) == "(-1/2)·exp(i(2·t))"

    def test_empty_word(self, path):
        assert chi(path, Word(())) == FreqExp.one()
        # the sector expansion of the empty atom is its amplitude
        amp = GaussianRational(2, -3)
        for var in ("t", "u", "s"):
            assert fourier.chi_measure(AtomMeasure(0, {(): amp}), var) \
                == FreqExp.one() * amp

    def test_shuffle_character(self, path):
        # chi(w1 shuffle w2) = chi(w1) chi(w2)
        for w1 in all_words(1, 2):
            for w2 in all_words(2, 2):
                lhs = FreqExp.zero()
                for w, c in Shuffle().product(w1, w2).items():
                    lhs = lhs + c * chi(path, w)
                assert lhs == chi(path, w1) * chi(path, w2)

    def test_repeated_letter_word(self, path):
        # (1,1) hits the stable-sector branch; value must still satisfy
        # 2 chi(aa) = chi(a)^2
        two = chi(path, Word((1, 1))) + chi(path, Word((1, 1)))
        assert two == chi(path, Word((1,))) * chi(path, Word((1,)))


    @pytest.mark.parametrize("var", ["s", "u"])
    def test_other_variables_match_the_sector_expansion(self, var,
                                                        monkeypatch):
        # chi in s or u is read from chi in t; the reference expands the
        # measure in that variable
        old = fourier._CHI_MEMO
        monkeypatch.setattr(fourier, "_CHI_MEMO", Memo(old.cap, old.compute))
        p = TrigPath.parse(TWO_FREQUENCIES)
        for n in range(5):
            for w in all_words(n, 2):
                assert chi(p, w, var) \
                    == fourier.chi_measure(word_measure(p, w), var), w

    def test_one_sector_expansion_per_word(self, path, monkeypatch):
        old = fourier._CHI_MEMO
        monkeypatch.setattr(fourier, "_CHI_MEMO", Memo(old.cap, old.compute))
        original = fourier.chi_measure
        calls = []
        monkeypatch.setattr(fourier, "chi_measure",
                            lambda nu, *args: calls.append(nu)
                            or original(nu, *args))
        for w in all_words(3, 2):
            j_character(path, w)
        # J reads chi in t on the prefixes and in s on the reversed
        # suffixes, which together are the 15 words up to length 3
        assert len(calls) == 15
        assert {w for _, w, _ in fourier._CHI_MEMO} \
            == {w for n in range(4) for w in all_words(n, 2)}
        assert {var for _, _, var in fourier._CHI_MEMO} == {"t", "s"}


class TestJ:
    def test_routes_agree(self, path):
        for text in ["a", "ab", "ba", "aab", "aba", "abb"]:
            char, conv = rough_path_J(path, Word.parse(text))
            assert char == conv

    def test_frozen_value(self, path):
        got = j_character(path, Word.parse("ab"))
        assert str(got) == ("(-1/3)·exp(i(3·s))+(1/2)·exp(i(1·t+2·s))"
                            + "+(-1/6)·exp(i(3·t))")

    def test_vanishes_at_equal_times(self, path):
        # setting s = t merges each (a, 0, c) key into a + c
        got = j_character(path, Word.parse("ab"))
        merged = {}
        for (et, eu, es), c in got.terms.items():
            assert eu == 0
            key = et + es
            merged[key] = merged.get(key, GaussianRational(0)) + c
        assert all(not v for v in merged.values())

    def test_chen(self, path):
        for text in ["ab", "ba", "aba"]:
            w = Word.parse(text)
            lhs = j_character(path, w, "t", "s")
            rhs = FreqExp.zero()
            for k in range(len(w) + 1):
                left = j_character(path, Word(w.letters[:k]), "t", "u")
                right = j_character(path, Word(w.letters[k:]), "u", "s")
                rhs = rhs + left * right
            assert lhs == rhs

    def test_chen_check(self, path):
        for n in range(4):
            for w in all_words(n, 2):
                assert j_chen_check(path, w) is None, w

    def test_chen_check_names_the_word(self, path, monkeypatch):
        # J doubled on every word breaks Chen on every nonempty word
        original = fourier.j_convolution
        monkeypatch.setattr(fourier, "j_convolution",
                            lambda *args: 2 * original(*args))
        assert j_chen_check(path, Word.parse("ab")) == "J Chen fails on (ab)"

    def test_empty_word(self, path):
        assert j_convolution(path, Word(())) == FreqExp.one()

    def test_singular_atom(self):
        p = TrigPath.parse("1: 1@1\n2: 1@2\n3: 1@-3")
        with pytest.raises(SingularAtomError):
            chi(p, Word((1, 2, 3)))

    @pytest.mark.parametrize("hi, lo", [("t", "t"), ("u", "s"), ("s", "t")])
    def test_routes_agree_in_other_variables(self, hi, lo):
        p = TrigPath.parse("1: 1@1, 1/2@-7/11\n2: 1@2, -i@5")
        for n in range(1, 4):
            for w in all_words(n, 2):
                assert j_convolution(p, w, hi, lo) \
                    == j_character(p, w, hi, lo), w

    def test_equal_times_vanish(self, path):
        # J from a time to itself is the counit
        for w in all_words(3, 2):
            assert j_convolution(path, w, "t", "t") == FreqExp.zero()

    def test_resonant_atom_text(self):
        # Xi at the root is 1 + 2 - 3 = 0; the error repeats exactly,
        # since no memo keeps a failed evaluation
        p = TrigPath.parse("1: 1@1\n2: 1@2\n3: 1@-3")
        text = "frequency sum vanishes at vertex 1 of 1:1[2:1[3:1]]"
        for _ in range(2):
            with pytest.raises(SingularAtomError) as info:
                j_convolution(p, Word((1, 2, 3)))
            assert str(info.value) == text
        for _ in range(2):
            with pytest.raises(SingularAtomError) as info:
                j_convolution(p, Word((1, 3, 2)))
            assert str(info.value) \
                == "frequency sum vanishes at vertex 1 of 1:1[2:1,3:1]"

    def test_forest_route_names_the_vertex(self):
        # `fno j` shows the character route's error, so the golden
        # files do not reach these texts
        p = TrigPath.parse("1: 1@1, 1@-2\n2: 1@3")
        for text, vertex in [
                ("aaaa", "vertex 2 of 1:1[2:1[3:1[4:1]]]"),
                ("baaa", "vertex 1 of 1:1[2:1[3:1]]|4:1")]:
            with pytest.raises(SingularAtomError) as info:
                j_convolution(p, Word.parse(text))
            assert str(info.value) == f"frequency sum vanishes at {vertex}"

    def test_chi_bound_after_memo(self, path):
        w = Word((1, 2, 1))
        value = chi(path, w, bound=3)
        assert chi(path, w, bound=3) is value
        with pytest.raises(BoundExceededError):
            chi(path, w, bound=2)

    def test_equal_paths_share_memo_entries(self, monkeypatch):
        old = fourier._CHI_MEMO
        monkeypatch.setattr(fourier, "_CHI_MEMO", Memo(old.cap, old.compute))
        first, second = TrigPath.parse(PATH_TEXT), TrigPath.parse(PATH_TEXT)
        assert first is not second
        assert first == second and hash(first) == hash(second)
        w = Word((1, 2))
        value = chi(first, w)
        assert chi(second, w) is value
        assert len(fourier._CHI_MEMO) == 1

    def test_path_is_immutable(self, path):
        with pytest.raises(AttributeError):
            path.components = ()
        with pytest.raises(AttributeError):
            path.extra = 1

    def test_bounded_sbar_memo(self, monkeypatch):
        p = TrigPath.parse("1: 1@1, 1/2@-7/11\n2: 1@2, -i@5")
        words = [w for n in range(1, 4) for w in all_words(n, 2)]
        check_bounded_memo(monkeypatch, fourier, "_SBAR_MEMO",
                           lambda w: j_convolution(p, w), words)

    def test_bounded_chi_memo(self, monkeypatch):
        p = TrigPath.parse("1: 1@1, 1/2@-7/11\n2: 1@2, -i@5")
        words = [w for n in range(1, 4) for w in all_words(n, 2)]
        check_bounded_memo(monkeypatch, fourier, "_CHI_MEMO",
                           lambda w: j_character(p, w), words)


class TestSectorTable:
    """The per-permutation merged cuts of T^sigma, the per-shape cuts,
    and the integer rescaling that chi and the forest route apply to
    each atom."""

    FRACTIONAL = "1: 1@1/3, 1@-7/11\n2: 1@5/2"

    def test_bounded_sector_memo(self, monkeypatch):
        p = TrigPath.parse(self.FRACTIONAL)
        words = [w for n in range(1, 4) for w in all_words(n, 2)]
        check_bounded_memo(monkeypatch, fourier, "_SECTOR_MEMO",
                           lambda w: j_convolution(p, w), words)

    def test_bounded_cuts_memo(self, monkeypatch):
        shapes = [f.parent for n in range(5)
                  for f in enumerate_heap_ordered(n, 1)]
        check_bounded_memo(monkeypatch, fourier, "_CUTS_MEMO",
                           fourier._cuts, shapes)

    def test_bound_after_degree_6_is_cached(self, monkeypatch):
        p = TrigPath.parse("1: 1@1\n2: 1@2")
        w = Word((1, 2, 1, 1, 2, 2))
        with monkeypatch.context() as m:
            old = fourier._SECTOR_MEMO
            m.setattr(fourier, "_SECTOR_MEMO", Memo(old.cap, old.compute))
            with pytest.raises(BoundExceededError) as cold:
                j_convolution(p, w, bound=4)
        j_convolution(p, w)
        assert any(sigma.n == 6 for sigma in fourier._SECTOR_MEMO)
        with pytest.raises(BoundExceededError) as warm:
            j_convolution(p, w, bound=4)
        assert str(warm.value) == str(cold.value) \
            == "degree 6 exceeds bound 4; raise the bound explicitly"

    def test_t_sigma_has_one_store(self, monkeypatch):
        # chi reads T^sigma from morphisms' memo alone, and the forest
        # route's table per sigma holds only merged cuts
        for owner, name in [(fourier, "_CHI_MEMO"), (fourier, "_SECTOR_MEMO"),
                            (morphisms, "_T_SIGMA_MEMO")]:
            old = getattr(owner, name)
            monkeypatch.setattr(owner, name, Memo(old.cap, old.compute))
        p = TrigPath.parse(self.FRACTIONAL)
        w = Word((1, 2, 1))
        sectors = set(split_measure(word_measure(p, w)))
        assert len(sectors) > 1
        chi(p, w)
        assert fourier._SECTOR_MEMO == {}
        assert set(morphisms._T_SIGMA_MEMO) == sectors
        j_convolution(p, w)
        assert set(fourier._SECTOR_MEMO) == sectors
        for cuts in fourier._SECTOR_MEMO.values():
            assert type(cuts) is tuple and cuts
            for cut in cuts:
                assert type(cut) is tuple and len(cut) == 5
                assert type(cut[0]) is tuple and type(cut[4]) is int

    def test_routes_agree_with_fraction_frequencies(self):
        p = TrigPath.parse(self.FRACTIONAL)
        for n in range(1, 5):
            for w in all_words(n, 2):
                assert j_convolution(p, w) == j_character(p, w), w

    def test_chi_matches_the_unscaled_sector_expansion(self):
        # the reference evaluates every forest of T^sigma in Fractions,
        # with no rescaling
        p = TrigPath.parse(self.FRACTIONAL)
        for n in range(1, 5):
            for w in all_words(n, 2):
                mu = word_measure(p, w)
                expected = FreqExp.zero()
                for sigma, piece in split_measure(mu).items():
                    expected = expected + phi_lin(t_sigma(sigma), piece)
                assert fourier.chi_measure(mu) == expected, w

    def test_magnitude_tie_names_the_path_frequencies(self):
        p = TrigPath.parse("1: 1@1/2\n2: 1@-1/2")
        text = "frequencies 1/2 and -1/2 share a magnitude"
        for route in (j_convolution, chi):
            with pytest.raises(MagnitudeTieError) as info:
                route(p, Word((1, 2)))
            assert str(info.value) == text


class TestIdentities:
    MU1 = AtomMeasure(1, {(2,): 1})
    MU2 = AtomMeasure(2, {(1, 3): 1, (7, 5): GR_I})

    def test_phi_multiplicative(self):
        f1 = OrderedForest.parse("1")
        f2 = OrderedForest.parse("1[2]")
        assert phi_multiplicativity_check(f1, self.MU1, f2, self.MU2) is None

    def test_e22(self):
        for eps in all_perms(2):
            assert e22_check(self.MU2, eps) is None

    def test_musigma(self):
        assert musigma_check(self.MU1, self.MU2) is None

    def test_e28(self):
        f = OrderedForest.parse("1:1[2:2]|3:1")
        mu = AtomMeasure(3, {(1, 2, 4): 1})
        for sigma in linear_extensions(f):
            assert e28_check(f, mu, sigma) is None

    def test_converse(self):
        assert converse_check(self.MU1, self.MU2) is None

    def test_random_sweep(self):
        assert sector_sweep(cases=25, max_n=3, seed=20260816) == []

    def test_random_measures_have_distinct_magnitudes(self):
        rng = random.Random(5)
        for _ in range(20):
            mu = random_measure(rng, 3)
            for freq in mu.terms:
                mags = [abs(x) for x in freq]
                assert len(set(mags)) == len(mags)


def _drop_first_shuffle(monkeypatch):
    original = fourier.shuffles
    monkeypatch.setattr(fourier, "shuffles", lambda k, l: original(k, l)[1:])


def _forget_compose(monkeypatch):
    monkeypatch.setattr(AtomMeasure, "compose", lambda self, eps: self)


class TestChecksNameTheFailure:
    """Each identity against a mutant of one of its inputs: the exact
    message, and None (or []) without the mutant."""

    MU1, MU2 = TestIdentities.MU1, TestIdentities.MU2

    def test_phi_multiplicative(self, monkeypatch):
        f1, f2 = OrderedForest.parse("1"), OrderedForest.parse("1[2]")
        assert phi_multiplicativity_check(f1, self.MU1, f2, self.MU2) is None
        original = fourier.phi_lin
        monkeypatch.setattr(fourier, "phi_lin",
                            lambda *args: 2 * original(*args))
        assert phi_multiplicativity_check(f1, self.MU1, f2, self.MU2) \
            == "phi not multiplicative on 1:1, 1:1[2:1]"

    def test_e28(self, monkeypatch):
        f = OrderedForest.parse("1:1[2:2]|3:1")
        mu = AtomMeasure(3, {(1, 2, 4): 1})
        sigma = Perm.parse("132")
        assert e28_check(f, mu, sigma) is None
        # the relabeling of the forest dropped
        monkeypatch.setattr(fourier, "act", lambda s, forest: forest)
        assert e28_check(f, mu, sigma) \
            == "relabeling invariance fails on 1:1[2:2]|3:1 with (132)"

    def test_e22(self, monkeypatch):
        eps = Perm.parse("21")
        assert e22_check(self.MU2, eps) is None
        _forget_compose(monkeypatch)
        assert e22_check(self.MU2, eps) \
            == "sector identity fails at sigma=(12), eps=(21)"

    def test_musigma(self, monkeypatch):
        assert musigma_check(self.MU1, self.MU2) is None
        _drop_first_shuffle(monkeypatch)
        assert musigma_check(self.MU1, self.MU2) \
            == "tensor sector identity fails at (1), (21)"

    def test_converse_shuffled_route(self, monkeypatch):
        assert converse_check(self.MU1, self.MU2) is None
        _drop_first_shuffle(monkeypatch)
        assert converse_check(self.MU1, self.MU2) \
            == "chi extension fails on the shuffled tensor measure"

    def test_converse_product_route(self, monkeypatch):
        original = fourier.phi_lin
        monkeypatch.setattr(fourier, "phi_lin",
                            lambda *args: 2 * original(*args))
        assert converse_check(self.MU1, self.MU2) \
            == "product reading disagrees with the sector expansion"

    def test_sweep_reassembly_and_sectors(self, monkeypatch):
        assert sector_sweep(cases=1, max_n=3, seed=6) == []
        _forget_compose(monkeypatch)
        assert sector_sweep(cases=1, max_n=3, seed=6) == [
            "case 0: reassembly fails",
            "case 0: sector identity fails at sigma=(312), eps=(213)"]

    def test_sweep_tensor_sectors(self, monkeypatch):
        assert sector_sweep(cases=1, max_n=3, seed=1) == []
        _drop_first_shuffle(monkeypatch)
        assert sector_sweep(cases=1, max_n=3, seed=1) \
            == ["case 0: tensor sector identity fails at (1), (1)"]
