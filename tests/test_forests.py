from collections import Counter
from itertools import combinations, permutations
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from foresthopf.errors import ParseError
from foresthopf.perms import Perm, all_perms
from foresthopf.forests import (
    _ordered, PlainForest, OrderedForest, EMPTY_PLAIN, EMPTY_ORDERED,
    act, ordered_cuts, plain_cuts, linear_extensions, heap_order_lift,
    enumerate_heap_ordered, enumerate_ordered,
    enumerate_plain_trees, enumerate_plain_forests,
)
from foresthopf.morphisms import _simplex_expansion


def extension_count(forest):
    """|S_F| by the hook-length formula, n!/prod |subtree(v)|: the
    reference count for linear_extensions."""
    total = factorial(forest.n)
    for v in range(1, forest.n + 1):
        total //= 1 + len(forest.strictly_above(v))
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
        part = f.restrict({2, 3})
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
        assert f.strictly_above(1) == {2, 3, 4}
        assert f.strictly_above(2) == {4}
        assert f.strictly_above(3) == set()


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
            assert f.restrict([i + 1 for i in c.roo_at]) == c.roo
            assert f.restrict([i + 1 for i in c.lea_at]) == c.lea

    def test_plain_cuts_multiplicity(self):
        f = PlainForest.parse("1[2,2]")
        terms = [(str(c.roo), str(c.lea)) for c in plain_cuts(f)]
        assert terms.count(("1[2]", "2")) == 2
        assert terms.count(("1", "2|2")) == 1
        assert len(terms) == 5

    def test_leas_are_the_upward_closed_subsets(self):
        # by definition: a Lea holds every vertex above each of its own,
        # and every such subset is the Lea of exactly one cut; 1,442
        # ordered forests and 443 two-letter heap-ordered forests
        forests = [f for n in range(6) for f in enumerate_ordered(n)]
        forests += [f for n in range(5) for f in enumerate_heap_ordered(n, 2)]
        for f in forests:
            verts = range(1, f.n + 1)
            above = {v: f.strictly_above(v) for v in verts}
            expected = {frozenset(s) for k in range(f.n + 1)
                        for s in combinations(verts, k)
                        if all(above[v] <= set(s) for v in s)}
            cuts = ordered_cuts(f)
            found = [frozenset([i + 1 for i in c.lea_at]) for c in cuts]
            assert len(found) == len(expected), f
            assert set(found) == expected, f
            for c in cuts:
                assert sorted(c.roo_at + c.lea_at) == list(range(f.n)), f


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
                    for w in f.strictly_above(v):
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
                for k in range(n + 1):
                    for vs in combinations(range(1, n + 1), k):
                        assert_as_public(f.restrict(vs))
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


class TestLazyChildren:
    """OrderedForest.children is built from parent on its first read."""

    def test_unset_until_first_read(self):
        for f in [OrderedForest((0, 1, 1), (1, 2, 1)),
                  _ordered((2, 0, 2), (1, 1, 1)),
                  OrderedForest.parse("1:1[2:1]") * OrderedForest.parse("1:2"),
                  OrderedForest.parse("2:1[1:1,3:1]").restrict((1, 2)),
                  act(Perm((3, 1, 2)), OrderedForest.parse("1:1[2:1]|3:1")),
                  heap_order_lift(PlainForest.parse("1[2,2[1]]"))]:
            with pytest.raises(AttributeError):
                f._children
            # hashing and comparing leave the children unbuilt
            assert {f: 1}[_ordered(f.parent, f.dec)] == 1
            with pytest.raises(AttributeError):
                f._children
            children = f.children
            assert children == eager_children(f.parent)
            assert f._children is children and f.children is children
            assert f.roots is children[0]

    def test_still_immutable(self):
        f = OrderedForest.parse("1:1[2:1]")
        for forest in (f, _ordered(f.parent, f.dec)):
            with pytest.raises(AttributeError):
                forest.children = ((), ())
            assert forest.children == ((1,), (2,), ())
            with pytest.raises(AttributeError):
                forest.children = ((), ())
            with pytest.raises(AttributeError):
                forest._children = ((), ())
            assert forest.children == ((1,), (2,), ())


class TestPublicConstructorRejects:
    @pytest.mark.parametrize("parent,dec,message", [
        ((2, 1), None, "parent relation has a cycle at 1"),
        ((0, 3, 2), None, "parent relation has a cycle at 2"),
        ((1,), None, "bad parent 1 for vertex 1"),
        ((0, 3), None, "bad parent 3 for vertex 2"),
        ((-1,), None, "bad parent -1 for vertex 1"),
        ((0,), (0,), "decoration out of range"),
        ((0,), (1, 2), "decoration length mismatch"),
    ])
    def test_bad_fields(self, parent, dec, message):
        with pytest.raises(ValueError) as exc:
            OrderedForest(parent, dec)
        assert str(exc.value) == message
