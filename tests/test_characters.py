"""Exact iterated integrals of polynomial paths.

Expected polynomials below were integrated by hand (and cross-checked
via the degree-2 Chen identity I(ab)+I(ba) = I(a)I(b)) before being
frozen here.
"""

import pytest

from memo_check import check_bounded_memo
from foresthopf import characters
from foresthopf.coeffs import MultiPoly, LinComb
from foresthopf.memo import Memo
from foresthopf.errors import ParseError
from foresthopf.words import Word, all_words
from foresthopf.perms import Perm, all_perms
from foresthopf.forests import PlainForest
from foresthopf.hopf import Shuffle, CKForests
from foresthopf.characters import (
    Character, convolve, char_inverse, validate_character,
    PolyPath, iter_int_word, iter_int_tree, iter_int_char,
    tree_integral_factorization_check, chen_check, fubini_matches_t_sigma,
)


def unit_character(structure, one, name="eta"):
    def fn(b):
        if b.n == 0:
            return one
        return one - one
    return Character(structure, fn, one, name=name)


def tree_int_char(path, structure):
    """The skeleton-integral character on the forest structure."""
    return Character(structure, lambda f: iter_int_tree(path, f),
                     MultiPoly.one(("t", "s")), name="Itree")


PATH_TEXT = "1: 1\n2: 2x"


@pytest.fixture(scope="module")
def path():
    return PolyPath.parse(PATH_TEXT)


class TestPolyParsing:
    def test_terms(self):
        p = PolyPath.parse("1: 1/2*x^3 - x + 2")
        assert str(p.component(1)) == "1/2*x^3-x+2"

    def test_compact_forms(self):
        p = PolyPath.parse("1: 2x\n2: x^2\n3: -x")
        assert str(p.component(1)) == "2*x"
        assert str(p.component(2)) == "x^2"
        assert str(p.component(3)) == "-x"

    def test_comments_and_blanks(self):
        p = PolyPath.parse("# driving path\n\n1: x\n")
        assert p.d == 1

    def test_bad_index(self):
        with pytest.raises(ParseError):
            PolyPath.parse("2: x")
        with pytest.raises(ParseError):
            PolyPath.parse("1: x\n1: x")
        with pytest.raises(ParseError):
            PolyPath.parse("one: x")

    def test_bad_term(self):
        with pytest.raises(ParseError):
            PolyPath.parse("1: x + y")
        with pytest.raises(ParseError):
            PolyPath.parse("1: ")

    def test_letter_out_of_range(self, path):
        with pytest.raises(ParseError):
            path.component(3)


class TestWordIntegrals:
    def test_degree_one(self, path):
        assert str(iter_int_word(path, Word((1,)))) == "t-s"
        assert str(iter_int_word(path, Word((2,)))) == "t^2-s^2"

    def test_degree_two(self, path):
        assert str(iter_int_word(path, Word((1, 2)))) \
            == "1/3*t^3-t*s^2+2/3*s^3"
        assert str(iter_int_word(path, Word((2, 1)))) \
            == "2/3*t^3-t^2*s+1/3*s^3"
        assert str(iter_int_word(path, Word((1, 1)))) \
            == "1/2*t^2-t*s+1/2*s^2"

    def test_empty_word(self, path):
        assert iter_int_word(path, Word(())) == MultiPoly.one(("t", "s"))

    def test_vanishes_at_coincident_times(self, path):
        # s = t as polynomials, not only at one point: the coefficients
        # of each total degree sum to zero
        for w in all_words(3, 2):
            at_t = {}
            for (i, j), c in iter_int_word(path, w).terms.items():
                at_t[i + j] = at_t.get(i + j, 0) + c
            assert at_t and not any(at_t.values())

    def test_shuffle_character(self, path):
        I = iter_int_char(path, Shuffle(2))
        assert validate_character(I, 3) == []

    def test_chen(self, path):
        for w in ["12", "21", "112", "1221"]:
            assert chen_check(path, Word.parse(w)) is None

    def test_convolution_unit(self, path):
        H = Shuffle(2)
        I = iter_int_char(path, H)
        eta = unit_character(H, I.one)
        both = convolve(char_inverse(I), I)
        for n in range(3):
            for w in all_words(n, 2):
                assert both(w) == eta(w)


class TestTreeIntegrals:
    def test_ladder_equals_word(self, path):
        f = PlainForest.parse("1[2]")
        assert iter_int_tree(path, f) == iter_int_word(path, Word((1, 2)))

    def test_cherry_value(self, path):
        f = PlainForest.parse("1[2,2]")
        assert str(iter_int_tree(path, f)) \
            == "1/5*t^5-2/3*t^3*s^2+t*s^4-8/15*s^5"

    def test_forest_multiplies(self, path):
        f = PlainForest.parse("1|2")
        assert iter_int_tree(path, f) == (
            iter_int_word(path, Word((1,))) * iter_int_word(path, Word((2,))))

    def test_factorization(self, path):
        for n in range(5):
            for f in PlainForestPool.get(n):
                assert tree_integral_factorization_check(path, f) is None

    def test_tree_character_multiplicative(self, path):
        Itree = tree_int_char(path, CKForests(2))
        assert validate_character(Itree, 3) == []


class PlainForestPool:
    _cache = {}

    @classmethod
    def get(cls, n):
        if n not in cls._cache:
            from foresthopf.forests import enumerate_plain_forests
            cls._cache[n] = enumerate_plain_forests(n, 2)
        return cls._cache[n]


class TestFubini:
    def test_matches_inverse_elements(self):
        for sigma in all_perms(3):
            assert fubini_matches_t_sigma(sigma, (1, 2, 3)) is None
            assert fubini_matches_t_sigma(sigma, (2, 1, 2)) is None

    def test_spot_degree_four(self):
        sigma = Perm.parse("2413")
        assert fubini_matches_t_sigma(sigma, (1, 2, 1, 2)) is None


class TestCharacterPlumbing:
    def test_eval_lin(self, path):
        I = iter_int_char(path, Shuffle(2))
        lc = LinComb([(Word((1,)), 2), (Word((2,)), -1)])
        assert I.eval_lin(lc) == 2 * I(Word((1,))) - I(Word((2,)))

    def test_bounded_word_integral_memo(self, monkeypatch, path):
        words = [w for n in range(0, 4) for w in all_words(n, 2)]
        check_bounded_memo(monkeypatch, characters, "_WORD_INTEGRAL_MEMO",
                           lambda w: iter_int_word(path, w), words)

    def test_equal_paths_share_memo_entries(self, monkeypatch):
        old = characters._WORD_INTEGRAL_MEMO
        monkeypatch.setattr(characters, "_WORD_INTEGRAL_MEMO",
                            Memo(old.cap, old.compute))
        first, second = PolyPath.parse(PATH_TEXT), PolyPath.parse(PATH_TEXT)
        assert first is not second
        assert first == second and hash(first) == hash(second)
        w = Word((1, 2))
        value = iter_int_word(first, w)
        assert iter_int_word(second, w) is value
        assert len(characters._WORD_INTEGRAL_MEMO) == 1

    def test_path_is_immutable(self, path):
        with pytest.raises(AttributeError):
            path.components = ()
        with pytest.raises(AttributeError):
            path.extra = 1

    def test_mismatched_convolution(self, path):
        from foresthopf.errors import StructureMismatchError
        a = iter_int_char(path, Shuffle(2))
        b = iter_int_char(path, Shuffle(3))
        with pytest.raises(StructureMismatchError):
            convolve(a, b)


class TestChecksNameTheFailure:
    """Each check against a mutant of one of its inputs: the exact
    message, and None (or []) without the mutant."""

    def test_unit_not_sent_to_one(self, path, monkeypatch):
        assert validate_character(iter_int_char(path, Shuffle(2)), 2) == []
        original = characters.iter_int_word
        # doubled on the empty word alone, where the law holds otherwise
        monkeypatch.setattr(characters, "iter_int_word",
                            lambda p, w: 2 * original(p, w) if not w.n
                            else original(p, w))
        assert validate_character(iter_int_char(path, Shuffle(2)), 2) \
            == ["unit is not sent to 1"]

    def test_product_law(self, path, monkeypatch):
        assert validate_character(iter_int_char(path, Shuffle(2)), 3) == []
        original = characters.iter_int_word
        # doubled on the word ab alone, which breaks the law where ab is
        # a factor or a term of the shuffle
        monkeypatch.setattr(characters, "iter_int_word",
                            lambda p, w: 2 * original(p, w)
                            if w.letters == (1, 2) else original(p, w))
        assert validate_character(iter_int_char(path, Shuffle(2)), 3) == [
            "I((a))I((b)) != I((a).(b))", "I((b))I((a)) != I((b).(a))",
            "I((a))I((ab)) != I((a).(ab))", "I((b))I((ab)) != I((b).(ab))",
            "I((ab))I((a)) != I((ab).(a))", "I((ab))I((b)) != I((ab).(b))"]

    def test_tree_integral_factorization(self, path, monkeypatch):
        f = PlainForest.parse("1[2]")
        assert tree_integral_factorization_check(path, f) is None
        original = characters.theta_small
        monkeypatch.setattr(characters, "theta_small",
                            lambda forest: -original(forest))
        assert tree_integral_factorization_check(path, f) \
            == "tree integral does not factor through words on 1[2]"

    def test_chen(self, path, monkeypatch):
        w = Word.parse("ab")
        assert chen_check(path, w) is None
        original = characters.iter_int_word
        monkeypatch.setattr(characters, "iter_int_word",
                            lambda *args: 2 * original(*args))
        assert chen_check(path, w) == "Chen identity fails on (ab)"

    def test_fubini(self, monkeypatch):
        sigma = Perm.parse("231")
        assert fubini_matches_t_sigma(sigma, (1, 2, 3)) is None
        original = characters.t_sigma_by_matrix
        monkeypatch.setattr(characters, "t_sigma_by_matrix",
                            lambda s: -original(s))
        assert fubini_matches_t_sigma(sigma, (1, 2, 3)) \
            == "Fubini expansion disagrees with T^(231) on (1, 2, 3)"
