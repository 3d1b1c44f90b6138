"""Rooted forests: plain (canonical, decorated), ordered, heap-ordered.

Conventions used throughout:

* Vertices of an OrderedForest ARE their order indices 1..n; parent(i) = 0
  marks a root.  Heap-ordered means parent(i) < i for every i.
* "v is above w" means w lies on the path from v to its root, v != w;
  roots are lowest.  Lea parts of a cut are upward(leafward)-closed.
* PlainForest is the quotient by forest isomorphism: children are kept
  sorted by a recursive (decoration, children-keys) encoding, so equal
  canonical forms mean isomorphic decorated forests.

Text grammar (whitespace-insensitive):
    plain tree   := DEC [ '[' tree (',' tree)* ']' ]      e.g. "1[2,3]"
    ordered tree := ORD ':' DEC [ '[' ... ']' ]           e.g. "1:5[3:2,2:7]"
    forest       := tree ('|' tree)*                      empty forest: "e"
DEC accepts an integer or a letter (a = 1).

OrderedForest has one validating public constructor,
OrderedForest(parent, dec), used at parse and public boundaries, and
one trusted constructor, _ordered(parent, dec), which checks nothing:
parent must already be a tuple of ints in 0..n, acyclic and with no
self-parent, and dec a tuple of n positive ints.  Products, restrictions,
relabelings, heap lifts and the enumerations are forests by
construction, so they are built through _ordered.  OrderedForest,
PlainTree and PlainForest store their hash once, in a slot.  The
children tuple of an OrderedForest is built from parent on first read
and kept in a slot: many forests are only hashed and compared.
"""

from __future__ import annotations

from itertools import product as _iproduct
from typing import NamedTuple

from .errors import ParseError
from .perms import _perm


# ---------------------------------------------------------------------------
# Plain forests (canonical decorated rooted forests)
# ---------------------------------------------------------------------------

class PlainTree:
    __slots__ = ("dec", "children", "n", "key", "_hash")

    def __init__(self, dec, children=()):
        dec = int(dec)
        if dec < 1:
            raise ValueError("decoration out of range")
        children = tuple(sorted(children, key=lambda t: t.key))
        object.__setattr__(self, "dec", dec)
        object.__setattr__(self, "children", children)
        object.__setattr__(self, "n", 1 + sum(c.n for c in children))
        key = (dec, tuple(c.key for c in children))
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "_hash", hash(("PlainTree", key)))

    def __setattr__(self, name, value):
        raise AttributeError("PlainTree is immutable")

    def __eq__(self, other):
        return isinstance(other, PlainTree) and self.key == other.key

    def __hash__(self):
        return self._hash

    def __str__(self):
        if not self.children:
            return str(self.dec)
        return f"{self.dec}[{','.join(str(c) for c in self.children)}]"

    def __repr__(self):
        return f"PlainForest.parse({str(self)!r}).trees[0]"


class PlainForest:
    """Canonical multiset of decorated rooted trees; the H^d basis."""

    __slots__ = ("trees", "n", "key", "_hash")

    def __init__(self, trees=()):
        trees = tuple(sorted(trees, key=lambda t: t.key))
        key = tuple(t.key for t in trees)
        object.__setattr__(self, "trees", trees)
        object.__setattr__(self, "n", sum(t.n for t in trees))
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "_hash", hash(("PlainForest", key)))

    def __setattr__(self, name, value):
        raise AttributeError("PlainForest is immutable")

    @classmethod
    def parse(cls, text):
        text = "".join(text.split())
        if text in ("", "e"):
            return cls(())
        trees = []
        for part in _split_top(text, "|"):
            tree, rest = _parse_plain_tree(part)
            if rest:
                raise ParseError(f"trailing input {rest!r} in {text!r}")
            trees.append(tree)
        return cls(trees)

    def __mul__(self, other):
        return PlainForest(self.trees + other.trees)

    def __eq__(self, other):
        return isinstance(other, PlainForest) and self.key == other.key

    def __hash__(self):
        return self._hash

    def sort_key(self):
        return (self.n, str(self))

    def __str__(self):
        if not self.trees:
            return "e"
        return "|".join(str(t) for t in self.trees)

    def __repr__(self):
        return f"PlainForest.parse({str(self)!r})"


EMPTY_PLAIN = PlainForest(())


def _split_top(text, sep):
    """Split on sep outside brackets."""
    parts = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced ']' in {text!r}")
        elif ch == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    if depth:
        raise ParseError(f"unbalanced '[' in {text!r}")
    parts.append(text[start:])
    return parts


def _parse_token(text):
    """Read one integer or letter token; returns (value, rest)."""
    if not text:
        raise ParseError("empty token")
    if text[0].isdigit():
        i = 0
        while i < len(text) and text[i].isdigit():
            i += 1
        v = int(text[:i])
        if v < 1:
            raise ParseError(f"value must be >= 1 in {text!r}")
        return v, text[i:]
    if "a" <= text[0] <= "z":
        return ord(text[0]) - ord("a") + 1, text[1:]
    raise ParseError(f"expected number or letter at {text!r}")


def _parse_plain_tree(text):
    dec, rest = _parse_token(text)
    children = []
    if rest.startswith("["):
        body, rest = _take_bracketed(rest)
        for part in _split_top(body, ","):
            child, tail = _parse_plain_tree(part)
            if tail:
                raise ParseError(f"trailing input {tail!r}")
            children.append(child)
    return PlainTree(dec, children), rest


def _take_bracketed(text):
    """text starts with '['; return (inside, rest-after-matching-bracket)."""
    depth = 0
    for i, ch in enumerate(text):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth == 0:
                return text[1:i], text[i + 1:]
    raise ParseError(f"unbalanced '[' in {text!r}")


# ---------------------------------------------------------------------------
# Ordered forests
# ---------------------------------------------------------------------------

def _cycle_start(parent):
    """The first vertex whose walk down the parent relation never
    reaches a root (0), or 0 when every walk does."""
    for i in range(1, len(parent) + 1):
        seen = set()
        v = i
        while v:
            if v in seen:
                return i
            seen.add(v)
            v = parent[v - 1]
    return 0


class OrderedForest:
    """A rooted forest whose vertex set is {1..n}, the total order.

    parent[i-1] is the parent of vertex i (0 for roots); dec[i-1] its
    decoration.  Equality is literal: the order matters.
    """

    __slots__ = ("parent", "dec", "n", "_children", "_hash")

    def __init__(self, parent, dec=None):
        parent = tuple(int(p) for p in parent)
        n = len(parent)
        if dec is None:
            dec = (1,) * n
        dec = tuple(int(x) for x in dec)
        if len(dec) != n:
            raise ValueError("decoration length mismatch")
        if any(x < 1 for x in dec):
            raise ValueError("decoration out of range")
        for i, p in enumerate(parent, start=1):
            if p < 0 or p > n or p == i:
                raise ValueError(f"bad parent {p} for vertex {i}")
        cycle_at = _cycle_start(parent)
        if cycle_at:
            raise ValueError(f"parent relation has a cycle at {cycle_at}")
        _fill(self, parent, dec)

    def __setattr__(self, name, value):
        raise AttributeError("OrderedForest is immutable")

    @classmethod
    def parse(cls, text):
        text = "".join(text.split())
        if text in ("", "e"):
            return cls((), ())
        nodes = {}

        def walk(part, par):
            ordv, rest = _parse_token(part)
            if rest.startswith(":"):
                decv, rest = _parse_token(rest[1:])
            else:
                decv = 1
            if ordv in nodes:
                raise ParseError(f"duplicate order index {ordv}")
            nodes[ordv] = (par, decv)
            if rest.startswith("["):
                body, rest = _take_bracketed(rest)
                for sub in _split_top(body, ","):
                    tail = walk(sub, ordv)
                    if tail:
                        raise ParseError(f"trailing input {tail!r}")
            return rest

        for part in _split_top(text, "|"):
            tail = walk(part, 0)
            if tail:
                raise ParseError(f"trailing input {tail!r} in {text!r}")
        n = len(nodes)
        if sorted(nodes) != list(range(1, n + 1)):
            raise ParseError(f"order indices must be 1..{n} in {text!r}")
        parent = [nodes[i][0] for i in range(1, n + 1)]
        dec = [nodes[i][1] for i in range(1, n + 1)]
        try:
            return cls(parent, dec)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc

    # -- structure ----------------------------------------------------------

    @property
    def children(self):
        """children[v] lists the children of vertex v in increasing
        order, children[0] the roots; built on first read."""
        try:
            return self._children
        except AttributeError:
            pass
        children = [[] for _ in range(self.n + 1)]
        for i, p in enumerate(self.parent, start=1):
            children[p].append(i)
        children = tuple(map(tuple, children))
        _set_children(self, children)
        return children

    @property
    def roots(self):
        return self.children[0]

    def is_heap_ordered(self):
        return all(p < i for i, p in enumerate(self.parent, start=1))

    def strictly_above(self, v):
        """All vertices in the subtree of v, excluding v itself."""
        out = []
        stack = list(self.children[v])
        while stack:
            w = stack.pop()
            out.append(w)
            stack.extend(self.children[w])
        return set(out)

    def __mul__(self, other):
        k = self.n
        parent = self.parent + tuple([p + k if p else 0
                                      for p in other.parent])
        return _ordered(parent, self.dec + other.dec)

    def restrict(self, vertices):
        """Induced ordered forest on a vertex subset, standardized.

        A vertex whose parent is outside the subset becomes a root; this
        matches cut parts, where subsets are up- or downward closed.
        """
        vs = sorted(vertices)
        rank = {v: i for i, v in enumerate(vs, start=1)}
        parent, dec = self.parent, self.dec
        return _ordered(tuple([rank.get(parent[v - 1], 0) for v in vs]),
                        tuple([dec[v - 1] for v in vs]))

    def to_plain(self):
        def build(v):
            return PlainTree(self.dec[v - 1],
                             [build(c) for c in self.children[v]])
        return PlainForest([build(r) for r in self.roots])

    # -- identity -----------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, OrderedForest)
                and self.parent == other.parent and self.dec == other.dec)

    def __hash__(self):
        return self._hash

    def sort_key(self):
        return (self.n, str(self))

    def __str__(self):
        if not self.n:
            return "e"

        def render(v):
            head = f"{v}:{self.dec[v - 1]}"
            if self.children[v]:
                head += "[" + ",".join(render(c) for c in self.children[v]) + "]"
            return head

        return "|".join(render(r) for r in self.roots)

    def __repr__(self):
        return f"OrderedForest.parse({str(self)!r})"


_new = object.__new__
_set_parent = OrderedForest.parent.__set__
_set_dec = OrderedForest.dec.__set__
_set_n = OrderedForest.n.__set__
_set_children = OrderedForest._children.__set__
_set_hash = OrderedForest._hash.__set__


def _fill(forest, parent, dec):
    """Set the slots of an OrderedForest from valid parent and dec
    tuples, the hash derived here; children waits for its first read."""
    _set_parent(forest, parent)
    _set_dec(forest, dec)
    _set_n(forest, len(parent))
    _set_hash(forest, hash(("OrderedForest", parent, dec)))


def _ordered(parent, dec):
    """Trusted constructor: parent and dec are already the tuples of a
    valid forest (see the module docstring)."""
    forest = _new(OrderedForest)
    _fill(forest, parent, dec)
    return forest


EMPTY_ORDERED = OrderedForest((), ())


def act(sigma, forest):
    """The symmetric-group action: order i becomes sigma(i), the
    structure riding along."""
    n = forest.n
    if len(sigma) != n:
        raise ValueError("size mismatch in relabeling")
    word = sigma.word
    parent = [0] * n
    dec = [0] * n
    for i, (p, x) in enumerate(zip(forest.parent, forest.dec)):
        parent[word[i] - 1] = word[p - 1] if p else 0
        dec[word[i] - 1] = x
    return _ordered(tuple(parent), tuple(dec))


# ---------------------------------------------------------------------------
# Admissible cuts
# ---------------------------------------------------------------------------

class Cut(NamedTuple):
    """Roo and Lea of one cut, with the 0-based positions in the cut
    forest of the vertices each part keeps, in increasing order."""
    roo: object
    roo_at: tuple
    lea: object
    lea_at: tuple


def ordered_cuts(forest):
    """Admissible cuts of an OrderedForest, parts standardized; the
    two trivial cuts included.

    A cut is fixed by its Lea, an upward-closed vertex set.  Below each
    root the Lea holds either the root's whole subtree or a Lea of the
    trees on its children, so every Lea appears exactly once, the empty
    one (Lea empty) and the whole forest (Roo empty) among them."""
    children = forest.children

    def leas(vertices):
        out = [()]
        for v in vertices:
            choices = ([(v, *forest.strictly_above(v))]
                       + leas(children[v]))
            out = [a + b for a in out for b in choices]
        return out

    cuts = []
    for lea in leas(children[0]):
        lea = sorted(lea)
        kept = set(lea)
        roo = [v for v in range(1, forest.n + 1) if v not in kept]
        cuts.append(Cut(forest.restrict(roo), tuple([v - 1 for v in roo]),
                        forest.restrict(lea), tuple([v - 1 for v in lea])))
    return cuts


def plain_cuts(forest):
    """Admissible cuts of a PlainForest, via one heap lift.

    The lift only names the vertices; the resulting (Roo, Lea) multiset
    of plain parts does not depend on the choice.  Positions are those
    of the lift's vertices.
    """
    return [Cut(cut.roo.to_plain(), cut.roo_at, cut.lea.to_plain(),
                cut.lea_at)
            for cut in ordered_cuts(heap_order_lift(forest))]


# ---------------------------------------------------------------------------
# Linear extensions and heap-order lifts
# ---------------------------------------------------------------------------

def linear_extensions(forest):
    """The forest-order-preserving symmetries S_F, as permutation words.

    sigma lists the vertices with every parent before its children, so
    sigma is in S_F iff whenever i is above j, i occurs later.  Output is
    in lexicographic word order.
    """
    n = forest.n
    out = []
    word = []
    placed = [False] * (n + 1)

    def step():
        if len(word) == n:
            out.append(_perm(tuple(word)))
            return
        for v in range(1, n + 1):
            if placed[v]:
                continue
            p = forest.parent[v - 1]
            if p and not placed[p]:
                continue
            placed[v] = True
            word.append(v)
            step()
            word.pop()
            placed[v] = False

    step()
    return out


def heap_order_lift(forest):
    """One heap order on a PlainForest: its vertices in preorder over
    the canonical tree tuple.

    A parent precedes its children in preorder, so the numbering is a
    heap order; it costs O(n), against n!/prod |subtree| for all lifts.
    """
    parent = []
    dec = []

    def walk(tree, par):
        parent.append(par)
        dec.append(tree.dec)
        idx = len(parent)
        for child in tree.children:
            walk(child, idx)

    for tree in forest.trees:
        walk(tree, 0)
    return _ordered(tuple(parent), tuple(dec))


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def enumerate_heap_ordered(n, d=1):
    """All heap-ordered forests with n vertices and decorations in 1..d.

    parent(i) ranges over {0..i-1} independently, which is exactly the
    heap-order condition; for d = 1 this gives n! forests.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    out = []
    for parent in _iproduct(*[range(i) for i in range(1, n + 1)]):
        for dec in _iproduct(*[range(1, d + 1)] * n):
            out.append(_ordered(parent, dec))
    return out


def enumerate_ordered(n, d=1):
    """All ordered forests with n vertices and decorations in 1..d."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out = []
    for parent in _iproduct(*[[p for p in range(n + 1) if p != i]
                              for i in range(1, n + 1)]):
        if _cycle_start(parent):
            continue
        for dec in _iproduct(*[range(1, d + 1)] * n):
            out.append(_ordered(parent, dec))
    return out


def enumerate_plain_trees(n, d=1):
    """All canonical decorated rooted trees with n vertices."""
    if n < 1:
        return []
    trees = []
    for dec in range(1, d + 1):
        for forest in enumerate_plain_forests(n - 1, d):
            trees.append(PlainTree(dec, forest.trees))
    return trees


def enumerate_plain_forests(n, d=1):
    """All canonical decorated rooted forests with n vertices."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return [EMPTY_PLAIN]
    pool = []
    for k in range(1, n + 1):
        pool.extend(enumerate_plain_trees(k, d))
    pool.sort(key=lambda t: (t.n, t.key))
    out = []

    def pick(remaining, start, acc):
        if remaining == 0:
            out.append(PlainForest(acc))
            return
        for i in range(start, len(pool)):
            t = pool[i]
            if t.n <= remaining:
                acc.append(t)
                pick(remaining - t.n, i, acc)
                acc.pop()

    pick(n, 0, [])
    return out
