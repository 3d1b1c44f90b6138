from itertools import permutations
from operator import attrgetter

import pytest
from hypothesis import given, strategies as st

from memo_check import check_entry_goes_with_its_object
from test_forests import fresh
from foresthopf import perms, words
from foresthopf.words import (Word, EMPTY_WORD, _word, all_words,
                              parse_letters)
from foresthopf.perms import (Perm, DecoratedPerm, _decorated, _perm,
                              all_perms, standardize, shuffles)
from foresthopf.forests import enumerate_ordered, linear_extensions
from foresthopf.errors import ParseError


class TestWords:
    def test_parse_letters(self):
        assert parse_letters("abc") == (1, 2, 3)
        assert parse_letters("132") == (1, 3, 2)
        assert parse_letters("10,27,3") == (10, 27, 3)
        with pytest.raises(ParseError):
            parse_letters("a0")
        with pytest.raises(ParseError):
            parse_letters("x!")

    @pytest.mark.parametrize("text,message", [
        ("1,x", "bad letter 'x' in '1,x'"),
        ("1,0", "letters must be >= 1, got 0"),
    ])
    def test_comma_list_names_the_bad_letter(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_letters(text)
        assert str(exc.value) == message

    def test_space_inside_letters(self):
        assert Word.parse("a b") is Word.parse("ab")

    def test_letters_past_26_print_as_a_list(self):
        assert str(Word((1, 27))) == "(1,27)"

    def test_word_basics(self):
        w = Word.parse("(abc)")
        assert w == Word((1, 2, 3))
        assert str(w) == "(abc)"
        assert str(w.reverse()) == "(cba)"
        assert w + Word((1,)) == Word((1, 2, 3, 1))
        assert len(EMPTY_WORD) == 0
        assert str(EMPTY_WORD) == "()"

    def test_all_words(self):
        assert [str(w) for w in all_words(2, 2)] \
            == ["(aa)", "(ab)", "(ba)", "(bb)"]
        assert len(all_words(3, 2)) == 8
        assert all_words(0, 3) == [EMPTY_WORD]


class TestPerms:
    def test_parse_and_str(self):
        p = Perm.parse("(231)")
        assert p.word == (2, 3, 1)
        assert str(p) == "(231)"
        assert str(Perm(tuple(range(1, 11)))) == "(1,2,3,4,5,6,7,8,9,10)"
        with pytest.raises(ParseError):
            Perm.parse("221")

    def test_composition_convention(self):
        # (alpha o beta)(i) = alpha(beta(i))
        a = Perm((2, 3, 1))
        b = Perm((3, 1, 2))
        assert (a @ b).word == tuple(a(b(i)) for i in (1, 2, 3))
        assert a @ a.inverse() == Perm.identity(3)

    def test_inverse(self):
        p = Perm((4, 1, 3, 2))
        inv = p.inverse()
        for i in range(1, 5):
            assert inv(p(i)) == i

    def test_tensor(self):
        assert Perm((2, 1)).tensor(Perm((1, 2))).word == (2, 1, 3, 4)

    def test_standardize(self):
        assert standardize((4, 1, 3)) == Perm((3, 1, 2))
        assert standardize((3, 2, 5)) == Perm((2, 1, 3))
        assert standardize(()) == Perm(())

    def test_shuffles(self):
        sh = shuffles(2, 1)
        assert [str(z) for z in sh] == ["(123)", "(132)", "(312)"]
        for z in sh:
            assert z.is_shuffle(2)
        assert not Perm((2, 1, 3)).is_shuffle(2)
        assert len(shuffles(3, 2)) == 10

    @given(st.integers(1, 4), st.integers(0, 3))
    def test_shuffle_count(self, k, l):
        from math import comb
        assert len(shuffles(k, l)) == comb(k + l, k)


class TestDecoratedPerm:
    def test_from_ell(self):
        # bottom row lists decorations of the values in display order
        p = Perm((2, 1, 3))
        dp = DecoratedPerm.from_ell(p, (1, 2, 3))
        assert dp.bottom == (2, 1, 3)
        assert str(dp) == "(213;bac)"
        assert dp.ell(2) == 2
        assert tuple(dp.ell(v) for v in range(1, 4)) == (1, 2, 3)

    def test_parse(self):
        dp = DecoratedPerm.parse("(213;bac)")
        assert dp.perm == Perm((2, 1, 3))
        assert dp.bottom == (2, 1, 3)
        with pytest.raises(ParseError):
            DecoratedPerm.parse("(21;abc)")
        with pytest.raises(ParseError) as exc:
            DecoratedPerm.parse("213")
        assert str(exc.value) == "expected 'perm;letters', got '213'"


def assert_perm_as_public(p):
    public = Perm(p.word)
    assert p == public and hash(p) == hash(public), p


def assert_word_as_public(w):
    public = Word(w.letters)
    assert w == public and hash(w) == hash(public), w


class TestTrustedConstructors:
    """Permutations and words built inside the library without
    validation are the values the public constructors build from the
    same fields."""

    def test_perm_operations(self):
        layers = {n: all_perms(n) for n in range(6)}
        for n, layer in layers.items():
            for p in layer:
                assert_perm_as_public(p)
                assert_perm_as_public(p.inverse())
                if n <= 4:
                    for q in layer:
                        assert_perm_as_public(p @ q)
                for q in layers[max(0, 5 - n)]:
                    assert_perm_as_public(p.tensor(q))

    def test_standardize(self):
        values = (2, 5, 7, 11, 13)
        for k in range(len(values) + 1):
            for seq in permutations(values, k):
                assert_perm_as_public(standardize(seq))

    def test_shuffles(self):
        for k in range(6):
            for l in range(6 - k):
                for zeta in shuffles(k, l):
                    assert_perm_as_public(zeta)

    def test_linear_extensions(self):
        for n in range(5):
            for f in enumerate_ordered(n):
                for sigma in linear_extensions(f):
                    assert_perm_as_public(sigma)

    def test_word_operations(self):
        layers = {n: all_words(n, 2) for n in range(5)}
        for n, layer in layers.items():
            for w in layer:
                assert_word_as_public(w)
                assert_word_as_public(w.reverse())
                for m in range(5 - n):
                    for v in layers[m]:
                        assert_word_as_public(w + v)


class TestSharedInstances:
    """At most one instance of each permutation, decorated permutation
    and word is alive: the public, parsed and trusted constructions of
    one are the same object."""

    def test_perms(self):
        for n in range(6):
            for p in all_perms(n):
                assert _perm(fresh(p.word)) is p
                assert Perm(list(p.word)) is p
                assert Perm.parse(str(p)) is p

    def test_decorated_perms(self):
        for n in range(4):
            for p in all_perms(n):
                for w in all_words(n, 2):
                    dp = _decorated(p, fresh(w.letters))
                    assert DecoratedPerm(p.word, list(w.letters)) is dp
                    assert DecoratedPerm.parse(str(dp)) is dp
                    ell = [dp.ell(v) for v in range(1, n + 1)]
                    assert DecoratedPerm.from_ell(p, ell) is dp

    def test_words(self):
        for n in range(5):
            for w in all_words(n, 3):
                assert _word(fresh(w.letters)) is w
                assert Word(list(w.letters)) is w
                assert Word.parse(str(w)) is w

    @pytest.mark.parametrize("owner,name,build,fields", [
        (perms, "_PERM_INTERN", lambda: Perm((3, 1, 2, 5, 4, 6, 7, 8, 9, 10)),
         attrgetter("word")),
        (perms, "_DECORATED_INTERN",
         lambda: DecoratedPerm.parse("(21;zy)"), attrgetter("perm", "bottom")),
        (words, "_WORD_INTERN", lambda: Word((9, 9, 8, 7)),
         attrgetter("letters")),
    ], ids=["perm", "decorated-perm", "word"])
    def test_entry_goes_with_its_object(self, owner, name, build, fields):
        check_entry_goes_with_its_object(getattr(owner, name), build, fields)


class TestPublicConstructorsReject:
    @pytest.mark.parametrize("word,message", [
        ((1, 1), "not a permutation word: (1, 1)"),
        ((2, 3), "not a permutation word: (2, 3)"),
        ((0, 1), "not a permutation word: (0, 1)"),
    ])
    def test_perm(self, word, message):
        with pytest.raises(ValueError) as exc:
            Perm(word)
        assert str(exc.value) == message

    @pytest.mark.parametrize("letters", [(0,), (1, 0), (2, -1)])
    def test_word(self, letters):
        with pytest.raises(ValueError) as exc:
            Word(letters)
        assert str(exc.value) == "letters must be positive"

    @pytest.mark.parametrize("seq,message", [
        ((3, 3), "not a permutation word: (2, 2)"),
        ((4, 1, 4), "not a permutation word: (3, 1, 3)"),
    ])
    def test_standardize_repeated_values(self, seq, message):
        with pytest.raises(ValueError) as exc:
            standardize(seq)
        assert str(exc.value) == message

    def test_decorated_perm_keeps_letter_check(self):
        with pytest.raises(ValueError) as exc:
            DecoratedPerm(Perm((2, 1)), (1, 0))
        assert str(exc.value) == "letters must be positive"
