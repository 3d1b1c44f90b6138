from collections import Counter
from itertools import combinations, permutations
from math import factorial
from operator import attrgetter

import pytest
from hypothesis import given, settings, strategies as st

from memo_check import check_entry_goes_with_its_object
from foresthopf import forests
from foresthopf.errors import ParseError
from foresthopf.perms import Perm, all_perms
from foresthopf.forests import (
    _ordered, _plain_tree, _plain_forest, _cut_shapes,
    PlainTree, PlainForest, OrderedForest,
    EMPTY_PLAIN, EMPTY_ORDERED,
    act, ordered_cuts, plain_cuts, linear_extensions, heap_order_lift,
    enumerate_heap_ordered, enumerate_ordered,
    enumerate_plain_trees, enumerate_plain_forests,
)
from foresthopf.morphisms import _simplex_expansion


def strictly_above(forest, v):
    """All vertices in the subtree of v, excluding v itself: the
    reference for subtrees."""
    out = []
    stack = list(forest.children[v])
    while stack:
        w = stack.pop()
        out.append(w)
        stack.extend(forest.children[w])
    return set(out)


def restrict(forest, vertices):
    """Induced ordered forest on a vertex subset, standardized, built
    through the validating constructor: the reference for cut parts.

    A vertex whose parent is outside the subset becomes a root; this
    matches cut parts, where subsets are up- or downward closed.
    """
    vs = sorted(vertices)
    rank = {v: i for i, v in enumerate(vs, start=1)}
    parent, dec = forest.parent, forest.dec
    return OrderedForest(tuple([rank.get(parent[v - 1], 0) for v in vs]),
                         tuple([dec[v - 1] for v in vs]))


def extension_count(forest):
    """|S_F| by the hook-length formula, n!/prod |subtree(v)|: the
    reference count for linear_extensions."""
    total = factorial(forest.n)
    for v in range(1, forest.n + 1):
        total //= 1 + len(strictly_above(forest, v))
    return total


def heap_order_lifts(forest):
    """All heap orders on a PlainForest's concrete vertices, as
    OrderedForests: one per linear extension e of the preorder lift,
    which orders vertex e(k) as k.  When the forest has coinciding
    subtrees, distinct assignments can yield equal ordered objects, and
    both are listed.  The first one listed is heap_order_lift(forest)."""
    lift = heap_order_lift(forest)
    return [act(e.inverse(), lift) for e in linear_extensions(lift)]


def heap_forests(max_n=4):
    return st.integers(1, max_n).flatmap(
        lambda n: st.sampled_from(enumerate_heap_ordered(n)))


class TestParsing:
    def test_plain_roundtrip(self):
        for text in ["1", "1[2,3]", "1[2[3]]", "1[2]|3", "2|2|2"]:
            assert str(PlainForest.parse(text)) == text

    def test_plain_canonical_order(self):
        assert str(PlainForest.parse("3|1[2]")) == "1[2]|3"
        assert PlainForest.parse("1[3,2]") == PlainForest.parse("1[2,3]")

    def test_empty(self):
        assert PlainForest.parse("e") == EMPTY_PLAIN
        assert str(EMPTY_PLAIN) == "e"
        assert OrderedForest.parse("e") == EMPTY_ORDERED
        assert str(EMPTY_ORDERED) == "e"

    def test_ordered_roundtrip(self):
        for text in ["1:1", "1:5[2:7,3:2]", "1:1[3:1]|2:1", "2:1|1:1[3:1]"]:
            f = OrderedForest.parse(text)
            assert OrderedForest.parse(str(f)) == f

    def test_ordered_default_decoration(self):
        assert OrderedForest.parse("1[2]") == OrderedForest.parse("1:1[2:1]")

    def test_ordered_errors(self):
        with pytest.raises(ParseError):
            OrderedForest.parse("1:1[1:1]")
        with pytest.raises(ParseError):
            OrderedForest.parse("2:1[3:1]")
        with pytest.raises(ParseError):
            PlainForest.parse("1[2")

    def test_every_small_forest_reads_back(self):
        for n in range(6):
            for f in enumerate_plain_forests(n, 2):
                assert PlainForest.parse(str(f)) == f
        for n in range(5):
            for f in enumerate_ordered(n, 2):
                assert OrderedForest.parse(str(f)) == f

    def test_letter_decorations(self):
        assert PlainForest.parse("a[b]") == PlainForest.parse("1[2]")
        assert OrderedForest.parse("a:b[b:z]") \
            == OrderedForest.parse("1:2[2:26]")
        # e is the empty forest only as the whole text
        assert str(PlainForest.parse("e|1")) == "1|5"

    @pytest.mark.parametrize("parse", [PlainForest.parse,
                                       OrderedForest.parse],
                             ids=["plain", "ordered"])
    @pytest.mark.parametrize("text", ["1[]", "1[2,]", "1||2", "|", "1[2]3",
                                      "1[[2]]", "1[2]]", "[1]", "1[2", "0",
                                      "1:1|1:2", "2:1[3:1]"])
    def test_rejected(self, parse, text):
        with pytest.raises(ParseError):
            parse(text)

    def test_rejected_by_one_parser(self):
        with pytest.raises(ParseError):
            PlainForest.parse("1:1")
        with pytest.raises(ParseError):
            OrderedForest.parse("12")


class TestEnumeration:
    def test_heap_ordered_counts(self):
        for n in range(7):
            assert len(enumerate_heap_ordered(n)) == factorial(n)

    def test_heap_ordered_decorated_counts(self):
        assert len(enumerate_heap_ordered(2, 2)) == 2 * 4
        assert len(enumerate_heap_ordered(3, 2)) == 6 * 8

    def test_ordered_counts(self):
        # labeled rooted forests: (n+1)^(n-1)
        for n in range(5):
            assert len(enumerate_ordered(n)) == (n + 1) ** max(n - 1, 0)

    def test_plain_counts(self):
        # rooted forests = rooted trees of n+1 vertices: 1,1,2,4,9,20,48
        expected = [1, 1, 2, 4, 9, 20, 48]
        for n, count in enumerate(expected):
            assert len(enumerate_plain_forests(n, 1)) == count

    def test_plain_tree_counts_decorated(self):
        assert len(enumerate_plain_trees(1, 2)) == 2
        assert len(enumerate_plain_trees(2, 2)) == 4

    def test_heap_forests_are_heap_ordered(self):
        for f in enumerate_heap_ordered(4):
            assert f.is_heap_ordered()


class TestStructure:
    def test_product_shifts(self):
        f = OrderedForest.parse("1:1[2:1]")
        g = OrderedForest.parse("1:2")
        fg = f * g
        assert fg.parent == (0, 1, 0)
        assert fg.dec == (1, 1, 2)
        assert str(fg) == "1:1[2:1]|3:2"

    def test_restrict_standardizes(self):
        f = OrderedForest.parse("1:1[2:2[3:3]]")
        part = restrict(f, {2, 3})
        assert part == OrderedForest.parse("1:2[2:3]")

    def test_act(self):
        ladder = OrderedForest.parse("1:1[2:1]")
        flipped = act(Perm((2, 1)), ladder)
        assert flipped.parent == (2, 0)
        assert not flipped.is_heap_ordered()

    def test_act_decorations_follow(self):
        f = OrderedForest.parse("1:7[2:9]")
        g = act(Perm((2, 1)), f)
        assert g.dec == (9, 7)

    def test_strictly_above(self):
        f = OrderedForest.parse("1:1[2:1[4:1],3:1]")
        assert strictly_above(f, 1) == {2, 3, 4}
        assert strictly_above(f, 2) == {4}
        assert strictly_above(f, 3) == set()


class TestCuts:
    def test_cut_count_cherry(self):
        f = OrderedForest.parse("1:1[2:1,3:1]")
        # Lea {}, {1,2,3}, {2}, {3}, {2,3}
        assert len(ordered_cuts(f)) == 5

    def test_ordered_cuts_ladder(self):
        f = OrderedForest.parse("1:1[2:1[3:1]]")
        pairs = {(str(c.roo), str(c.lea)) for c in ordered_cuts(f)}
        assert pairs == {
            ("1:1[2:1[3:1]]", "e"),
            ("e", "1:1[2:1[3:1]]"),
            ("1:1", "1:1[2:1]"),
            ("1:1[2:1]", "1:1"),
        }

    def test_cut_positions_name_the_parts(self):
        f = OrderedForest.parse("2:1|1:2[3:1,4:2[5:1]]")
        cuts = ordered_cuts(f)
        # Lea choices: 2 on the tree at 2, 1 + 2 * 3 on the tree at 1
        assert len(cuts) == 14
        for c in cuts:
            assert sorted(c.roo_at + c.lea_at) == list(range(f.n))
            assert restrict(f, [i + 1 for i in c.roo_at]) == c.roo
            assert restrict(f, [i + 1 for i in c.lea_at]) == c.lea

    def test_plain_cuts_multiplicity(self):
        f = PlainForest.parse("1[2,2]")
        terms = [(str(c.roo), str(c.lea)) for c in plain_cuts(f)]
        assert terms.count(("1[2]", "2")) == 2
        assert terms.count(("1", "2|2")) == 1
        assert len(terms) == 5

    def test_leas_are_the_upward_closed_subsets(self):
        # by definition: a Lea holds every vertex above each of its own,
        # and every such subset is the Lea of exactly one cut; each part
        # is the restriction to the vertices it keeps
        for f in LEA_FORESTS:
            verts = range(1, f.n + 1)
            above = {v: strictly_above(f, v) for v in verts}
            expected = {frozenset(s) for k in range(f.n + 1)
                        for s in combinations(verts, k)
                        if all(above[v] <= set(s) for v in s)}
            cuts = ordered_cuts(f)
            found = [frozenset([i + 1 for i in c.lea_at]) for c in cuts]
            assert len(found) == len(expected), f
            assert set(found) == expected, f
            for c in cuts:
                assert sorted(c.roo_at + c.lea_at) == list(range(f.n)), f
                assert restrict(f, [i + 1 for i in c.roo_at]) == c.roo, f
                assert restrict(f, [i + 1 for i in c.lea_at]) == c.lea, f

    def test_cuts_follow_ordered_cuts(self):
        # the shapes fourier enumerates once per forest shape are the
        # cuts the Hopf side decorates, in the same order
        for f in LEA_FORESTS:
            assert _cut_shapes(f.parent) == [
                (c.roo.parent, c.roo_at, c.lea.parent, c.lea_at)
                for c in ordered_cuts(f)], f
            for c in ordered_cuts(f):
                assert c.roo.dec == tuple(f.dec[i] for i in c.roo_at), f
                assert c.lea.dec == tuple(f.dec[i] for i in c.lea_at), f


# 1,442 ordered forests and 443 two-letter heap-ordered forests
LEA_FORESTS = ([f for n in range(6) for f in enumerate_ordered(n)]
               + [f for n in range(5) for f in enumerate_heap_ordered(n, 2)])


class TestExtensions:
    def test_linear_extensions_example(self):
        f = OrderedForest.parse("2:1|1:1[3:1]")
        words = {p.word for p in linear_extensions(f)}
        assert words == {(1, 2, 3), (1, 3, 2), (2, 1, 3)}

    def test_extension_property(self):
        # sigma in S_F iff vertices listed parents before children
        for f in enumerate_heap_ordered(4)[:8]:
            for sigma in linear_extensions(f):
                pos = {sigma(i): i for i in range(1, 5)}
                for v in range(1, 5):
                    for w in strictly_above(f, v):
                        assert pos[w] > pos[v]

    @given(heap_forests(4))
    @settings(max_examples=40, deadline=None)
    def test_extension_count_formula(self, f):
        assert len(linear_extensions(f)) == extension_count(f)

    def test_identity_always_extension(self):
        for f in enumerate_heap_ordered(4):
            assert Perm.identity(4) in linear_extensions(f)

    @given(heap_forests(4))
    @settings(max_examples=30, deadline=None)
    def test_action_shifts_extensions(self, f):
        # S_{tau.F} = tau o S_F
        tau = linear_extensions(f)[-1]
        lhs = {p.word for p in linear_extensions(act(tau, f))}
        rhs = {(tau @ p).word for p in linear_extensions(f)}
        assert lhs == rhs

    def test_heap_action_criterion(self):
        # sigma.F heap-ordered iff sigma^{-1} in S_F
        f = OrderedForest.parse("1:1[2:1[3:1]]")
        exts = {p.word for p in linear_extensions(f)}
        from foresthopf.perms import all_perms
        for sigma in all_perms(3):
            assert act(sigma, f).is_heap_ordered() \
                == (sigma.inverse().word in exts)


class TestLifts:
    def test_lift_multiplicity(self):
        f = PlainForest.parse("1|1")
        lifts = heap_order_lifts(f)
        assert len(lifts) == 2
        assert lifts[0] == lifts[1]

    def test_lift_projects_back(self):
        for f in enumerate_plain_forests(3, 2):
            for lift in heap_order_lifts(f):
                assert lift.is_heap_ordered()
                assert lift.to_plain() == f

    def test_lift_count_is_symmetry_index(self):
        # n! / |S_F| lifts counted with multiplicity... the multiset of
        # lifts has size n! / prod(hooks) * (automorphisms), so just pin
        # a couple of known cases
        assert len(heap_order_lifts(PlainForest.parse("1[2,3]"))) == 2
        assert len(heap_order_lifts(PlainForest.parse("1[2[3]]"))) == 1
        assert len(heap_order_lifts(PlainForest.parse("1|2"))) == 2

    def test_lifts_are_all_heap_order_assignments(self):
        # by definition: every way to number the concrete vertices
        # 1..n with each parent before its children, as a multiset
        for n in range(6):
            for f in enumerate_plain_forests(n, 2):
                base = heap_order_lift(f)
                expected = Counter()
                for rank in permutations(range(1, n + 1)):
                    if any(p and rank[p - 1] > rank[v - 1]
                           for v, p in enumerate(base.parent, start=1)):
                        continue
                    parent = [0] * n
                    dec = [0] * n
                    for v, p in enumerate(base.parent, start=1):
                        parent[rank[v - 1] - 1] = rank[p - 1] if p else 0
                        dec[rank[v - 1] - 1] = base.dec[v - 1]
                    expected[OrderedForest(parent, dec)] += 1
                assert Counter(heap_order_lifts(f)) == expected, f


def eager_children(parent):
    """children[v] of the forest with this parent tuple, computed
    directly: the vertices whose parent is v, in increasing order."""
    return tuple(tuple(i for i, p in enumerate(parent, start=1) if p == v)
                 for v in range(len(parent) + 1))


def assert_as_public(forest):
    """forest equals, hashes like and has the children and roots of the
    forest the validating constructor builds from its fields."""
    public = OrderedForest(forest.parent, forest.dec)
    assert forest == public, forest
    assert hash(forest) == hash(public), forest
    assert forest.n == public.n, forest
    eager = eager_children(forest.parent)
    assert forest.children == public.children == eager, forest
    assert forest.roots == public.roots == eager[0], forest


# every ordered forest up to degree 4 with two letters
ORDERED_2 = {n: enumerate_ordered(n, 2) for n in range(5)}


class TestTrustedConstructor:
    """Forests built inside the library without validation are the
    forests the public constructor builds from the same fields."""

    def test_enumerations(self):
        for n in range(5):
            for f in ORDERED_2[n] + enumerate_heap_ordered(n, 2):
                assert_as_public(f)

    def test_products(self):
        for k in range(5):
            for l in range(5 - k):
                for f in ORDERED_2[k]:
                    for g in ORDERED_2[l]:
                        assert_as_public(f * g)

    def test_restrictions_and_cuts(self):
        for n in range(5):
            for f in ORDERED_2[n]:
                for cut in ordered_cuts(f):
                    assert_as_public(cut.roo)
                    assert_as_public(cut.lea)

    def test_action(self):
        for n in range(5):
            sigmas = all_perms(n)
            for f in ORDERED_2[n]:
                for sigma in sigmas:
                    assert_as_public(act(sigma, f))

    def test_heap_order_lifts(self):
        for n in range(5):
            for f in enumerate_plain_forests(n, 2):
                assert_as_public(heap_order_lift(f))
                for lift in heap_order_lifts(f):
                    assert_as_public(lift)

    def test_simplex_expansion(self):
        for n in range(6):
            for sigma in all_perms(n):
                for f, _ in _simplex_expansion(sigma).items():
                    assert_as_public(f)

    def test_trusted_fields(self):
        for n in range(5):
            for f in ORDERED_2[n]:
                assert_as_public(_ordered(f.parent, f.dec))

    def test_plain_hash_follows_the_canonical_form(self):
        for text, same in [("1[3,2]", "1[2,3]"), ("2|1[2]", "1[2]|2"),
                           ("1[2[3],2]", "1[2,2[3]]")]:
            f, g = PlainForest.parse(text), PlainForest.parse(same)
            assert f == g and hash(f) == hash(g)
            assert hash(f.trees[-1]) == hash(g.trees[-1])
        for n in range(5):
            for f in enumerate_plain_forests(n, 2):
                g = PlainForest(reversed(f.trees))
                assert f == g and hash(f) == hash(g)
                assert hash(f) == hash(heap_order_lift(f).to_plain())

    def test_to_plain(self):
        # the reference builds each tree from its children through the
        # public constructors, which sort
        def build(f, v):
            return PlainTree(f.dec[v - 1], [build(f, c)
                                            for c in f.children[v]])

        for n in range(5):
            for f in ORDERED_2[n]:
                plain = f.to_plain()
                assert_as_parsed(plain)
                assert plain == PlainForest([build(f, r) for r in f.roots])

    def test_plain_products(self):
        plain = {n: enumerate_plain_forests(n, 2) for n in range(6)}
        for k in range(6):
            for l in range(6 - k):
                for f in plain[k]:
                    for g in plain[l]:
                        assert_as_parsed(f * g)
                        assert f * g == PlainForest(f.trees + g.trees)

    def test_plain_cuts(self):
        for n in range(6):
            for f in enumerate_plain_forests(n, 2):
                for cut in plain_cuts(f):
                    assert_as_parsed(cut.roo)
                    assert_as_parsed(cut.lea)


def assert_as_parsed(forest):
    """forest equals, hashes like and has the trees, key and n of the
    plain forest parsed from its text, and so does each of its trees at
    every depth."""
    parsed = PlainForest.parse(str(forest))
    assert forest == parsed, forest
    assert hash(forest) == hash(parsed), forest
    assert forest.trees == parsed.trees, forest
    assert forest.key == parsed.key, forest
    assert forest.n == parsed.n, forest
    pairs = list(zip(forest.trees, parsed.trees))
    while pairs:
        tree, twin = pairs.pop()
        assert (tree.key, tree.n, hash(tree)) \
            == (twin.key, twin.n, hash(twin)), forest
        pairs.extend(zip(tree.children, twin.children))


class TestLazyChildren:
    """OrderedForest.children is built from parent on each read."""

    def test_still_immutable(self):
        f = OrderedForest.parse("1:1[2:1]")
        for forest in (f, _ordered(f.parent, f.dec)):
            with pytest.raises(AttributeError):
                forest.children = ((), ())
            assert forest.children == ((1,), (2,), ())


def fresh(t):
    """An equal tuple that is a distinct object."""
    return tuple(list(t))


class TestSharedInstances:
    """At most one instance of each forest is alive: the public, parsed
    and trusted constructions of one forest are the same object."""

    ORDERED = [f for n in range(4) for f in ORDERED_2[n]]

    def test_equal_arguments_share_one_instance(self):
        for f in self.ORDERED:
            shared = _ordered(f.parent, f.dec)
            assert _ordered(fresh(f.parent), fresh(f.dec)) is shared
            assert shared * shared is shared * shared
            plain = f.to_plain()
            assert f.to_plain() is plain
            assert _plain_forest(fresh(plain.trees)) is plain
            for tree in plain.trees:
                assert _plain_tree(tree.dec, fresh(tree.children)) is tree
            assert heap_order_lift(plain) is heap_order_lift(plain)
            assert plain * plain is plain * plain

    @pytest.mark.parametrize("n", range(5))
    def test_public_parsed_and_trusted_are_identical(self, n):
        for f in ORDERED_2[n]:
            trusted = _ordered(fresh(f.parent), fresh(f.dec))
            assert trusted is f
            assert OrderedForest(list(f.parent), list(f.dec)) is trusted
            assert OrderedForest.parse(str(f)) is trusted
        for f in enumerate_plain_forests(n, 2):
            assert _plain_forest(fresh(f.trees)) is f
            assert PlainForest(reversed(f.trees)) is f
            assert PlainForest.parse(str(f)) is f
            for tree in f.trees:
                assert _plain_tree(tree.dec, fresh(tree.children)) is tree
                assert PlainTree(tree.dec, reversed(tree.children)) is tree

    @pytest.mark.parametrize("name,build,fields", [
        ("_ORDERED_INTERN", lambda: OrderedForest.parse("1:9[2:9[3:8]]|4:9"),
         attrgetter("parent", "dec", "n")),
        ("_PLAIN_TREE_INTERN", lambda: PlainTree(9, [PlainTree(8)] * 2),
         attrgetter("dec", "children", "n", "key")),
        ("_PLAIN_FOREST_INTERN", lambda: PlainForest.parse("9[8,9]|9"),
         attrgetter("trees", "n", "key")),
    ], ids=["ordered", "plain-tree", "plain-forest"])
    def test_entry_goes_with_its_forest(self, name, build, fields):
        check_entry_goes_with_its_object(getattr(forests, name), build,
                                         fields)


class TestPublicConstructorRejects:
    @pytest.mark.parametrize("parent,dec,message", [
        ((2, 1), None, "parent relation has a cycle at 1"),
        ((0, 3, 2), None, "parent relation has a cycle at 2"),
        ((1,), None, "bad parent 1 for vertex 1"),
        ((0, 3), None, "bad parent 3 for vertex 2"),
        ((-1,), None, "bad parent -1 for vertex 1"),
        ((0,), (0,), "decoration out of range"),
        ((0,), (1, 2), "decoration length mismatch"),
        # the walk from 2 enters the cycle 3 -> 4 -> 3, which misses 2
        ((0, 3, 4, 3), None, "parent relation has a cycle at 2"),
    ])
    def test_bad_fields(self, parent, dec, message):
        with pytest.raises(ValueError) as exc:
            OrderedForest(parent, dec)
        assert str(exc.value) == message
