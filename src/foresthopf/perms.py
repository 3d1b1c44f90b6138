"""Permutations in word form and their decorated variant.

A permutation sigma of {1..n} is stored as the word (sigma(1),...,sigma(n)).
Composition is (alpha @ beta)(i) = alpha(beta(i)).  A decorated permutation
carries a second row of letters below the word, b_i = ell(sigma(i)), as in
the two-row notation "213;bac"; the decoration of the VALUE v is recovered
as ell(v) = b at the position where v occurs.

Perm has one validating public constructor, Perm(word), used at parse
and public boundaries, and one trusted constructor, _perm(word), which
checks nothing: its argument must already be a tuple of ints that is a
permutation of 1..n.  Inverses, compositions, block sums, shuffles,
standardizations and the enumerations are permutations by
construction, so they are built through _perm.  DecoratedPerm likewise
has a trusted constructor, _decorated(perm, bottom), for a Perm and a
tuple of as many positive ints; the FQSym operations and from_ell build
through it.

At most one instance of each permutation and of each decorated
permutation is alive.  _perm and _decorated look their arguments up in
a memo.Intern table (_PERM_INTERN, _DECORATED_INTERN) and build only
when no live instance exists; a public constructor validates and then
returns the trusted constructor's result.  So equal permutations are
identical, and equality and hashing are those of object identity, done
in C.  A table holds nothing alive, so it needs no cap.
"""

from __future__ import annotations

from itertools import combinations, permutations as _itertools_permutations

from .errors import ParseError
from .memo import DEAD, Immutable, Intern
from .words import _unwrap, parse_letters, render_letters


class Perm(Immutable):
    __slots__ = ("word", "__weakref__")

    def __new__(cls, word):
        word = tuple(int(v) for v in word)
        if sorted(word) != list(range(1, len(word) + 1)):
            raise ValueError(f"not a permutation word: {word}")
        return _perm(word)

    @classmethod
    def identity(cls, n):
        return cls(range(1, n + 1))

    @classmethod
    def parse(cls, text):
        text = _unwrap(text)
        try:
            return cls(parse_letters(text))
        except (ValueError, ParseError) as exc:
            raise ParseError(f"bad permutation {text!r}") from exc

    @property
    def n(self):
        return len(self.word)

    def __len__(self):
        return len(self.word)

    def __call__(self, i):
        return self.word[i - 1]

    def inverse(self):
        inv = [0] * len(self.word)
        for pos, v in enumerate(self.word, start=1):
            inv[v - 1] = pos
        return _perm(tuple(inv))

    def __matmul__(self, other):
        if len(self.word) != len(other.word):
            raise ValueError("size mismatch in composition")
        word = self.word
        return _perm(tuple([word[v - 1] for v in other.word]))

    def tensor(self, other):
        """Block sum: acts as self on {1..k} and shifted other above."""
        k = len(self.word)
        return _perm(self.word + tuple([v + k for v in other.word]))

    def is_shuffle(self, k):
        """True if the inverse is increasing on {1..k} and on {k+1..n}."""
        inv = self.inverse().word
        left = inv[:k]
        right = inv[k:]
        return all(a < b for a, b in zip(left, left[1:])) and \
            all(a < b for a, b in zip(right, right[1:]))

    def sort_key(self):
        return (len(self.word), self.word)

    def __str__(self):
        if len(self.word) == 0:
            return "()"
        if max(self.word) <= 9:
            return "(" + "".join(str(v) for v in self.word) + ")"
        return "(" + ",".join(str(v) for v in self.word) + ")"

    def __repr__(self):
        return f"Perm({self.word!r})"


_new = object.__new__
_set_word = Perm.word.__set__
_PERM_INTERN = Intern()
_perm_get = _PERM_INTERN.get


def _perm(word):
    """Trusted constructor: word is a tuple of ints that is already a
    permutation of 1..n."""
    p = _perm_get(word, DEAD)()
    if p is None:
        p = _new(Perm)
        _set_word(p, word)
        _PERM_INTERN.add(word, p)
    return p


def all_perms(n):
    """Sigma_n in lexicographic word order."""
    return [_perm(w) for w in _itertools_permutations(range(1, n + 1))]


def standardize(seq):
    """The unique increasing relabeling of distinct values onto {1..k}."""
    ranks = {v: r for r, v in enumerate(sorted(seq), start=1)}
    word = tuple([ranks[v] for v in seq])
    if len(ranks) != len(word):
        raise ValueError(f"not a permutation word: {word}")
    return _perm(word)


def interleavings(a, b):
    """The order-preserving merges of two sequences, as tuples.

    One merge per choice of the positions taken by a, in the
    lexicographic order of those positions.
    """
    a, b = tuple(a), tuple(b)
    for positions in combinations(range(len(a) + len(b)), len(a)):
        merged = list(b)
        # inserting at increasing positions puts each a-entry in place
        for p, v in zip(positions, a):
            merged.insert(p, v)
        yield tuple(merged)


def shuffles(k, l):
    """All (k,l)-shuffles of {1..k+l}, lexicographic.

    zeta is a shuffle iff zeta^{-1} is increasing on both blocks;
    equivalently zeta is determined by the set of positions where the
    values 1..k land, in order.
    """
    if k < 0 or l < 0:
        raise ValueError("k and l must be >= 0")
    return [_perm(word) for word in interleavings(range(1, k + 1),
                                                    range(k + 1, k + l + 1))]


class DecoratedPerm(Immutable):
    """A permutation with a letter attached to every value.

    Stored as the word plus the bottom display row (bottom[i-1] is the
    letter under sigma(i)).  ell(v), the letter on the value v, is the
    display entry at v's position.
    """

    __slots__ = ("perm", "bottom", "__weakref__")

    def __new__(cls, perm, bottom):
        if not isinstance(perm, Perm):
            perm = Perm(perm)
        bottom = tuple(int(v) for v in bottom)
        if len(bottom) != len(perm):
            raise ValueError("decoration row length mismatch")
        if any(v < 1 for v in bottom):
            raise ValueError("letters must be positive")
        return _decorated(perm, bottom)

    @classmethod
    def from_ell(cls, perm, ell):
        """Build from the letter-on-value map, ell[v-1] for value v, a
        positive int; the letters are not checked."""
        if not isinstance(perm, Perm):
            perm = Perm(perm)
        return _decorated(perm, tuple([ell[v - 1] for v in perm.word]))

    @classmethod
    def parse(cls, text):
        text = _unwrap(text)
        if ";" not in text:
            raise ParseError(f"expected 'perm;letters', got {text!r}")
        top, bottom = text.split(";", 1)
        try:
            return cls(Perm.parse(top), parse_letters(bottom))
        except ValueError as exc:
            raise ParseError(str(exc)) from None

    @property
    def n(self):
        return len(self.perm)

    def ell(self, v):
        """Letter attached to the value v."""
        return self.bottom[self.perm.inverse()(v) - 1]

    def sort_key(self):
        return (self.n, self.perm.word, self.bottom)

    def __str__(self):
        top = str(self.perm)[1:-1]
        return f"({top};{render_letters(self.bottom)})"

    def __repr__(self):
        return f"DecoratedPerm({self.perm!r}, {self.bottom!r})"


_set_perm = DecoratedPerm.perm.__set__
_set_bottom = DecoratedPerm.bottom.__set__
_DECORATED_INTERN = Intern()
_decorated_get = _DECORATED_INTERN.get


def _decorated(perm, bottom):
    """Trusted constructor: perm is a Perm and bottom a tuple of as many
    positive ints."""
    key = (perm, bottom)
    p = _decorated_get(key, DEAD)()
    if p is None:
        p = _new(DecoratedPerm)
        _set_perm(p, perm)
        _set_bottom(p, bottom)
        _DECORATED_INTERN.add(key, p)
    return p
