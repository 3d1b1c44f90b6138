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
    ordered tree := ORD [':' DEC] [ '[' ... ']' ]         e.g. "1:5[3:2,2:7]"
    forest       := tree ('|' tree)*                      empty forest: "e"
ORD and DEC accept an integer of at least 1 or a letter (a = 1), and DEC
defaults to 1.  "e" is the empty forest only as the whole text; inside
a forest it is the letter e = 5, so "e|1" reads as 1|5.  Both parsers
read the grammar with one reader, _read_forest, in one pass.

OrderedForest has one validating public constructor,
OrderedForest(parent, dec), used at parse and public boundaries, and
one trusted constructor, _ordered(parent, dec), which checks nothing:
parent must already be a tuple of ints in 0..n, acyclic and with no
self-parent, and dec a tuple of n positive ints.  Products, cut parts,
relabelings, heap lifts and the enumerations are forests by
construction, so they are built through _ordered.

PlainTree and PlainForest likewise keep validating public constructors,
which sort their trees, and have trusted ones that check and sort
nothing: _plain_tree(dec, children) takes a positive int and a tuple of
PlainTrees already sorted by key, _plain_forest(trees) a tuple of
PlainTrees sorted by key.  to_plain and the product of plain forests,
whose trees are canonical by construction, build through them.

At most one instance of each forest is alive.  Each trusted constructor
looks its arguments up in its memo.Intern table (_ORDERED_INTERN,
_PLAIN_TREE_INTERN, _PLAIN_FOREST_INTERN) and builds a forest only when
no live one exists; a public constructor validates and then returns the
trusted constructor's result.  So equal forests are identical, and
equality and hashing are those of object identity, done in C.  A table
holds no forest alive and loses an entry when its forest dies, so it
needs no cap.

Cuts are enumerated once per shape: _cut_shapes(parent) takes the
parent tuple of a valid forest (as for _ordered) and gives its cuts as
parent tuples and positions; ordered_cuts adds the decorations.
"""

from __future__ import annotations

from itertools import product as _iproduct
from operator import attrgetter
from typing import NamedTuple

from .errors import ParseError
from .memo import DEAD, Immutable, Intern
from .perms import _perm


# ---------------------------------------------------------------------------
# Plain forests (canonical decorated rooted forests)
# ---------------------------------------------------------------------------

class PlainTree(Immutable):
    __slots__ = ("dec", "children", "n", "key", "__weakref__")

    def __new__(cls, dec, children=()):
        dec = int(dec)
        if dec < 1:
            raise ValueError("decoration out of range")
        return _plain_tree(dec, tuple(sorted(children, key=_by_key)))

    def __str__(self):
        if not self.children:
            return str(self.dec)
        return f"{self.dec}[{','.join(str(c) for c in self.children)}]"

    def __repr__(self):
        return f"PlainForest.parse({str(self)!r}).trees[0]"


class PlainForest(Immutable):
    """Canonical multiset of decorated rooted trees; the H^d basis."""

    __slots__ = ("trees", "n", "key", "__weakref__")

    def __new__(cls, trees=()):
        return _plain_forest(tuple(sorted(trees, key=_by_key)))

    @classmethod
    def parse(cls, text):
        return cls(map(_plain_of, _read_forest(text, False)))

    def __mul__(self, other):
        if not other.trees:
            return self
        if not self.trees:
            return other
        # two sorted runs: the sort merges them
        return _plain_forest(tuple(sorted(self.trees + other.trees,
                                          key=_by_key)))

    def sort_key(self):
        return (self.n, str(self))

    def __str__(self):
        if not self.trees:
            return "e"
        return "|".join(str(t) for t in self.trees)

    def __repr__(self):
        return f"PlainForest.parse({str(self)!r})"


_new = object.__new__
_by_key = attrgetter("key")
_set_tree_dec = PlainTree.dec.__set__
_set_tree_children = PlainTree.children.__set__
_set_tree_n = PlainTree.n.__set__
_set_tree_key = PlainTree.key.__set__
_set_forest_trees = PlainForest.trees.__set__
_set_forest_n = PlainForest.n.__set__
_set_forest_key = PlainForest.key.__set__


def _canonical(trees):
    """A list of trees as a tuple sorted by key."""
    if len(trees) > 1:
        trees.sort(key=_by_key)
    return tuple(trees)


_PLAIN_TREE_INTERN = Intern()
_PLAIN_FOREST_INTERN = Intern()


def _plain_tree(dec, children):
    """Trusted constructor (see the module docstring)."""
    key = (dec, children)
    tree = _PLAIN_TREE_INTERN.get(key, DEAD)()
    if tree is None:
        tree = _new(PlainTree)
        _set_tree_dec(tree, dec)
        _set_tree_children(tree, children)
        _set_tree_n(tree, 1 + sum([c.n for c in children]))
        _set_tree_key(tree, (dec, tuple([c.key for c in children])))
        _PLAIN_TREE_INTERN.add(key, tree)
    return tree


def _plain_forest(trees):
    """Trusted constructor (see the module docstring)."""
    forest = _PLAIN_FOREST_INTERN.get(trees, DEAD)()
    if forest is None:
        forest = _new(PlainForest)
        _set_forest_trees(forest, trees)
        _set_forest_n(forest, sum([t.n for t in trees]))
        _set_forest_key(forest, tuple([t.key for t in trees]))
        _PLAIN_FOREST_INTERN.add(trees, forest)
    return forest


EMPTY_PLAIN = PlainForest(())


def _read_forest(text, ordered):
    """The trees of a forest text, read in one pass: one position moves
    through the text less its whitespace, each character is read once,
    and a nesting level costs one frame.  A tree is (head, children),
    children a list of trees; head is the decoration, or (order index,
    decoration) when ordered, the decoration 1 where none is given."""
    text = "".join(text.split())
    if text in ("", "e"):
        return []
    end = len(text)
    pos = 0

    def token():
        nonlocal pos
        start = pos
        while pos < end and text[pos].isdecimal():
            pos += 1
        if pos > start:
            value = int(text[start:pos])
            if value < 1:
                raise ParseError(f"value must be >= 1 in {text!r}")
            return value
        if pos < end and "a" <= text[pos] <= "z":
            pos += 1
            return ord(text[start]) - ord("a") + 1
        raise ParseError(f"expected number or letter at {text[pos:]!r}")

    def tree():
        nonlocal pos
        head = token()
        if ordered:
            dec = 1
            if text.startswith(":", pos):
                pos += 1
                dec = token()
            head = (head, dec)
        children = []
        if text.startswith("[", pos):
            # each pass steps over the '[' or ',' before a child
            mark = ","
            while mark == ",":
                pos += 1
                children.append(tree())
                mark = text[pos:pos + 1]
            if mark != "]":
                raise ParseError(f"expected ',' or ']' at {text[pos:]!r}")
            pos += 1
        return head, children

    trees = [tree()]
    while text.startswith("|", pos):
        pos += 1
        trees.append(tree())
    if pos < end:
        raise ParseError(f"trailing input {text[pos:]!r} in {text!r}")
    return trees


def _plain_of(node):
    """The PlainTree of a node of _read_forest, with a plain loop: a
    comprehension would cost a second frame per level."""
    dec, children = node
    trees = []
    for child in children:
        trees.append(_plain_of(child))
    return _plain_tree(dec, _canonical(trees))


# ---------------------------------------------------------------------------
# Ordered forests
# ---------------------------------------------------------------------------

def _children(parent):
    """children[v], for the forest with these parents, lists the
    children of vertex v in increasing order, children[0] the roots."""
    children = [[] for _ in range(len(parent) + 1)]
    for v, p in enumerate(parent, start=1):
        children[p].append(v)
    return children


def _root_order(parent):
    """The vertices that the parent relation links to a root,
    breadth-first: the roots, then their children.  A vertex on or
    above a cycle is missing."""
    children = _children(parent)
    order = children[0]
    for v in order:
        order.extend(children[v])
    return order


class OrderedForest(Immutable):
    """A rooted forest whose vertex set is {1..n}, the total order.

    parent[i-1] is the parent of vertex i (0 for roots); dec[i-1] its
    decoration.  Equality is literal: the order matters.
    """

    __slots__ = ("parent", "dec", "n", "__weakref__")

    def __new__(cls, parent, dec=None):
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
        missed = set(range(1, n + 1)).difference(_root_order(parent))
        if missed:
            raise ValueError(f"parent relation has a cycle at {min(missed)}")
        return _ordered(parent, dec)

    @classmethod
    def parse(cls, text):
        nodes = {}
        todo = [(0, tree) for tree in _read_forest(text, True)]
        for par, ((v, dec), children) in todo:
            if v in nodes:
                raise ParseError(f"duplicate order index {v}")
            nodes[v] = (par, dec)
            todo.extend([(v, child) for child in children])
        n = len(nodes)
        if sorted(nodes) != list(range(1, n + 1)):
            raise ParseError(f"order indices must be 1..{n} in {text!r}")
        parent = [nodes[i][0] for i in range(1, n + 1)]
        dec = [nodes[i][1] for i in range(1, n + 1)]
        return cls(parent, dec)

    # -- structure ----------------------------------------------------------

    @property
    def children(self):
        """children[v] lists the children of vertex v in increasing
        order, children[0] the roots."""
        return tuple(map(tuple, _children(self.parent)))

    @property
    def roots(self):
        return self.children[0]

    def is_heap_ordered(self):
        return all([p < i for i, p in enumerate(self.parent, start=1)])

    def __mul__(self, other):
        k = self.n
        parent = self.parent + tuple([p + k if p else 0
                                      for p in other.parent])
        return _ordered(parent, self.dec + other.dec)

    def to_plain(self):
        """The plain forest, built bottom-up: each tree once, after the
        trees on its children, from their canonical tuple.  A heap order
        lists every vertex after its parent; any other forest is put in
        breadth-first order first."""
        parent, dec = self.parent, self.dec
        order = range(1, self.n + 1) if self.is_heap_ordered() \
            else _root_order(parent)
        trees = [[] for _ in range(self.n + 1)]
        for v in reversed(order):
            trees[parent[v - 1]].append(
                _plain_tree(dec[v - 1], _canonical(trees[v])))
        return _plain_forest(_canonical(trees[0]))

    def sort_key(self):
        return (self.n, str(self))

    def __str__(self):
        if not self.n:
            return "e"

        children = self.children

        def render(v):
            head = f"{v}:{self.dec[v - 1]}"
            if children[v]:
                head += "[" + ",".join(render(c) for c in children[v]) + "]"
            return head

        return "|".join(render(r) for r in children[0])

    def __repr__(self):
        return f"OrderedForest.parse({str(self)!r})"


_set_parent = OrderedForest.parent.__set__
_set_dec = OrderedForest.dec.__set__
_set_n = OrderedForest.n.__set__

_ORDERED_INTERN = Intern()


def _ordered(parent, dec):
    """Trusted constructor: parent and dec are already the tuples of a
    valid forest (see the module docstring)."""
    key = (parent, dec)
    forest = _ORDERED_INTERN.get(key, DEAD)()
    if forest is None:
        forest = _new(OrderedForest)
        _set_parent(forest, parent)
        _set_dec(forest, dec)
        _set_n(forest, len(parent))
        _ORDERED_INTERN.add(key, forest)
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


def _cut_shapes(parent):
    """The admissible cuts of the forest with these parents, as (roo
    parent, roo_at, lea parent, lea_at) tuples: each part's parent
    tuple, standardized, and the 0-based positions of the vertices it
    keeps, in increasing order.

    A cut is fixed by its Lea, an upward-closed vertex set.  Below each
    root the Lea holds either the root's whole subtree or a Lea of the
    trees on its children, so every Lea appears exactly once, the empty
    one (Lea empty) and the whole forest (Roo empty) among them.  A
    parent outside the Lea is in the Roo, so a Roo vertex keeps its
    parent and a Lea vertex may lose its own."""
    n = len(parent)
    children = _children(parent)

    def trees_on(vertices):
        # (the vertices of the trees on these roots, their Leas)
        whole, leas = (), [()]
        for v in vertices:
            above, own = trees_on(children[v])
            tree = (v,) + above
            whole += tree
            leas = [a + b for a in leas for b in [tree] + own]
        return whole, leas

    cuts = []
    for lea in trees_on(children[0])[1]:
        in_lea = [False] * (n + 1)
        for v in lea:
            in_lea[v] = True
        rank = [0] * (n + 1)
        roo_at, lea_at = [], []
        for v in range(1, n + 1):
            at = lea_at if in_lea[v] else roo_at
            at.append(v - 1)
            rank[v] = len(at)
        cuts.append((tuple([rank[parent[i]] for i in roo_at]), tuple(roo_at),
                     tuple([rank[parent[i]] if in_lea[parent[i]] else 0
                            for i in lea_at]), tuple(lea_at)))
    return cuts


def ordered_cuts(forest):
    """Admissible cuts of an OrderedForest, parts standardized; the
    two trivial cuts included, in the order of _cut_shapes."""
    dec = forest.dec
    return [Cut(_ordered(roo, tuple([dec[i] for i in roo_at])), roo_at,
                _ordered(lea, tuple([dec[i] for i in lea_at])), lea_at)
            for roo, roo_at, lea, lea_at in _cut_shapes(forest.parent)]


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

    def visit(tree, par):
        parent.append(par)
        dec.append(tree.dec)
        idx = len(parent)
        for child in tree.children:
            visit(child, idx)

    for tree in forest.trees:
        visit(tree, 0)
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
        if len(_root_order(parent)) < n:
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
