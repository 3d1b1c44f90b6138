"""Words over the alphabet {1..d} and their text forms.

A word doubles as the decoration sequence of a trunk tree read root to
leaf, so the same letter conventions are used for decoration arguments
throughout the library: single characters ("abc" or "123", with a = 1),
or a comma-separated list of integers when the alphabet is large.

Word has one validating public constructor, Word(letters), used at
parse and public boundaries, and one trusted constructor,
_word(letters), which checks nothing: its argument must already be a
tuple of positive ints.  Concatenations, reversals, the enumeration and
the shuffle-algebra operations are built through _word.

At most one instance of each word is alive: _word looks its letters up
in a memo.Intern table, _WORD_INTERN, and builds a word only when no
live one exists, and Word(letters) validates and then returns _word's
result.  So equal words are identical, and equality and hashing are
those of object identity, done in C.  The table holds no word alive, so
it needs no cap.

A Path is immutable and compares by its type and components; its hash
is computed once, so memos key on the path itself.
"""

from __future__ import annotations

from .errors import ParseError
from .memo import DEAD, Immutable, Intern


def parse_letters(text):
    """Parse a letter sequence into a tuple of positive integers.

    Accepts "abc" (a = 1, b = 2, ...), "123" (each digit one letter,
    zero excluded), a mix of the two, or "1,2,10" for letters past 9.
    """
    text = text.strip()
    if not text:
        return ()
    if "," in text:
        out = []
        for part in text.split(","):
            part = part.strip()
            try:
                v = int(part)
            except ValueError as exc:
                raise ParseError(f"bad letter {part!r} in {text!r}") from exc
            if v < 1:
                raise ParseError(f"letters must be >= 1, got {v}")
            out.append(v)
        return tuple(out)
    out = []
    for ch in text:
        if ch.isspace():
            continue
        if ch.isdigit():
            v = int(ch)
            if v == 0:
                raise ParseError("letter 0 is not allowed")
        elif "a" <= ch <= "z":
            v = ord(ch) - ord("a") + 1
        else:
            raise ParseError(f"bad letter {ch!r} in {text!r}")
        out.append(v)
    return tuple(out)


def _unwrap(text):
    """text stripped, less one pair of enclosing parentheses."""
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    return text


def render_letters(letters):
    """Inverse of parse_letters, preferring "abc" over comma lists."""
    if not letters:
        return ""
    if max(letters) <= 26:
        return "".join(chr(ord("a") + v - 1) for v in letters)
    return ",".join(str(v) for v in letters)


class Path(Immutable):
    """Derivative components of a driving path, one per letter 1..d.

    A subclass names the parser of one component body as _parse_body.
    Equal paths are those of one type with equal components.
    """

    __slots__ = ("components", "_hash")

    def __init__(self, components):
        components = tuple(components)
        if not components:
            raise ParseError("a path needs at least one component")
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "_hash", hash((type(self), components)))

    def __eq__(self, other):
        return type(self) is type(other) \
            and self.components == other.components

    def __hash__(self):
        return self._hash

    @property
    def d(self):
        return len(self.components)

    def component(self, letter):
        if not 1 <= letter <= self.d:
            raise ParseError(f"letter {letter} outside 1..{self.d}")
        return self.components[letter - 1]

    @classmethod
    def parse(cls, text):
        """A component file, lines 'i: body' with i = 1..d.

        Blank lines and '#' comments are skipped; each body goes through
        _parse_body.
        """
        found = {}
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if ":" not in line:
                raise ParseError(f"missing ':' in path line {line!r}")
            head, _, body = line.partition(":")
            try:
                idx = int(head)
            except ValueError:
                raise ParseError(f"bad component index {head!r}") from None
            if idx in found:
                raise ParseError(f"component {idx} given twice")
            found[idx] = cls._parse_body(body)
        if sorted(found) != list(range(1, len(found) + 1)):
            raise ParseError("component indices must be 1..d")
        return cls([found[i] for i in range(1, len(found) + 1)])


class Word(Immutable):
    """A finite sequence of letters in {1..d}; the shuffle-algebra basis."""

    __slots__ = ("letters", "__weakref__")

    def __new__(cls, letters=()):
        letters = tuple(int(v) for v in letters)
        if any(v < 1 for v in letters):
            raise ValueError("letters must be positive")
        return _word(letters)

    @classmethod
    def parse(cls, text):
        return cls(parse_letters(_unwrap(text)))

    @property
    def n(self):
        return len(self.letters)

    def __len__(self):
        return len(self.letters)

    def __add__(self, other):
        return _word(self.letters + other.letters)

    def reverse(self):
        return _word(self.letters[::-1])

    def sort_key(self):
        return (len(self.letters), self.letters)

    def __str__(self):
        return "(" + render_letters(self.letters) + ")"

    def __repr__(self):
        return f"Word({self.letters!r})"


_new = object.__new__
_set_letters = Word.letters.__set__
_WORD_INTERN = Intern()


def _word(letters):
    """Trusted constructor: letters is already a tuple of positive ints."""
    w = _WORD_INTERN.get(letters, DEAD)()
    if w is None:
        w = _new(Word)
        _set_letters(w, letters)
        _WORD_INTERN.add(letters, w)
    return w


EMPTY_WORD = Word(())


def all_words(n, d):
    """All words of length n over {1..d}, lexicographic."""
    if n < 0:
        raise ValueError("n must be >= 0")
    words = [()]
    for _ in range(n):
        words = [w + (a,) for w in words for a in range(1, d + 1)]
    return [_word(w) for w in words]
