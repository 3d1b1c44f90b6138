"""Frozen small-degree values for theta and its inverse elements.

The expected lines below were worked out by hand from the defining
recursions and double-checked against an independent enumeration of
linear extensions; they are pinned verbatim so regressions surface as
explicit diffs.
"""

import itertools
from math import prod
from fractions import Fraction

import pytest

from foresthopf.coeffs import GR_I, LinComb
from foresthopf.errors import BoundExceededError
from foresthopf.perms import Perm, all_perms
from foresthopf.forests import (OrderedForest, PlainForest,
                                enumerate_heap_ordered,
                                enumerate_plain_forests,
                                heap_order_lift)
from foresthopf.hopf import HeapOrdered, HopfStructure, CKForests, tensor
from foresthopf.fourier import AtomMeasure, converse_check
from foresthopf.memo import Memo
from foresthopf import morphisms
from foresthopf.morphisms import (
    theta, theta_dec, pi_ho, pi_sigma, theta_small,
    theta_inverse_table, t_sigma, t_sigma_decorated, t_sigma_by_matrix,
    decorate_by_order,
    t_sigma_product_identity, t_sigma_coproduct_identity,
    twisted_product_identity, theta_morphism_product_check,
    theta_morphism_coproduct_check, square_check,
)


from memo_check import check_bounded_memo
from frozen_tables import (THETA_TABLE, TSIGMA_TABLE, THETA_DEC_TABLE,
                           TSIGMA_DEC_TABLE, forest_comb, plain_comb)
from test_forests import heap_order_lifts


class TestTheta:
    @pytest.mark.parametrize("forest,expected", THETA_TABLE)
    def test_table(self, forest, expected):
        assert theta(OrderedForest.parse(forest)) == expected

    @pytest.mark.parametrize("forest,expected", THETA_DEC_TABLE)
    def test_small_table(self, forest, expected):
        assert theta_small(PlainForest.parse(forest)) == expected

    def test_theta_dec_pairs_orders_with_letters(self):
        f = OrderedForest.parse("1:1[3:2]|2:3")
        lc = theta_dec(f)
        rendered = {str(dp) for dp, _ in lc.items()}
        assert rendered == {"(123;acb)", "(132;abc)", "(213;cab)"}

    def test_theta_injective_small(self):
        for n in range(1, 5):
            images = [theta(f) for f in enumerate_heap_ordered(n)]
            assert len({id_ for id_ in map(repr, images)}) == len(images)


class TestThetaMatrix:
    def test_witness_bijection(self):
        for n in range(1, 6):
            tm = theta_inverse_table(n)
            maxima = {max(e.word for e in tm.extensions(f))
                      for f in tm.forests}
            assert len(maxima) == len(tm.forests) == len(tm.perms)

    def test_matrix_times_inverse(self):
        tm = theta_inverse_table(3)
        m = tm.matrix()
        inv = tm.inverse_matrix()
        size = len(tm.perms)
        for i in range(size):
            for j in range(size):
                entry = sum(Fraction(m[i][k]) * Fraction(inv[k][j])
                            for k in range(size))
                assert entry == (1 if i == j else 0)

    def test_json_shape(self):
        import json
        data = json.loads(theta_inverse_table(2).to_json())
        assert set(data) == {"n", "perms", "forests", "matrix", "inverse"}
        assert data["n"] == 2
        assert len(data["matrix"]) == len(data["perms"])
        assert data["matrix"] == [[1, 1], [1, 0]]
        assert data["inverse"] == [["0", "1"], ["1", "-1"]]

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_json_text_matches_json_dumps(self, n):
        import json
        tm = theta_inverse_table(n)
        expected = json.dumps({
            "n": tm.n,
            "perms": [str(p) for p in tm.perms],
            "forests": [str(f) for f in tm.forests],
            "matrix": tm.matrix(),
            "inverse": [[str(c) for c in row] for row in tm.inverse_matrix()],
        }, indent=2)
        assert tm.to_json() == expected

    def test_cache_returns_same_object(self):
        assert theta_inverse_table(3) is theta_inverse_table(3)

    def test_cache_keeps_only_the_last_table(self):
        theta_inverse_table(3)
        table = theta_inverse_table(4)
        assert morphisms._MATRIX_CACHE == {4: table}
        for sigma in all_perms(4):
            assert t_sigma_by_matrix(sigma) == t_sigma(sigma)
        assert morphisms._MATRIX_CACHE == {4: table}
        for sigma in all_perms(3):
            assert t_sigma_by_matrix(sigma) == t_sigma(sigma)
        assert list(morphisms._MATRIX_CACHE) == [3]


class TestTSigma:
    @pytest.mark.parametrize("sigma,pairs", TSIGMA_TABLE)
    def test_table(self, sigma, pairs):
        assert t_sigma(Perm.parse(sigma)) == forest_comb(pairs)

    @pytest.mark.parametrize("sigma,pairs", TSIGMA_DEC_TABLE)
    def test_decorated_table(self, sigma, pairs):
        got = t_sigma_decorated(Perm.parse(sigma), (1, 2, 3))
        assert got == plain_comb(pairs)

    def test_theta_inverts(self):
        for n in range(1, 5):
            for sigma in all_perms(n):
                image = LinComb.zero()
                for f, c in t_sigma(sigma).items():
                    image += c * theta(f)
                assert image == LinComb.of(sigma.inverse(), 1)

    def test_counting_invariant(self):
        """Summed over all sigma of degree n, T^sigma has (2n-1)!!
        forests, and the sum of all their coefficients is 1.

        Proof.  In the parent-choice expansion, vertex i has two parent
        choices (signs +1 and -1) exactly when some earlier vertex has a
        larger sigma-value, that is when sigma(i) is not a left-to-right
        maximum of sigma; otherwise it has one (sign +1).  Distinct
        choices give distinct parent tuples, so T^sigma has
        2^(n - lrmax(sigma)) forests, and its coefficients sum to the
        product over the vertices of the sum of their signs: 1 for a
        maximum, 1 - 1 = 0 for a non-maximum.  The relative rank of
        sigma(i) among sigma(1..i) takes each of its i values for equally
        many sigma, independently over i, and sigma(i) is a maximum for
        one of them, so sum_sigma x^lrmax(sigma) = x(x+1)...(x+n-1).  At
        x = 1/2, times 2^n: sum_sigma 2^(n - lrmax) = 1*3*...*(2n-1) =
        (2n-1)!!.  Only the identity has no non-maximum, so the
        coefficient sums add up to 1."""
        for n in range(8):
            forests = total = 0
            for sigma in all_perms(n):
                lc = t_sigma(sigma, bound=n)
                forests += len(lc)
                total += sum(c for _, c in lc.items())
            assert forests == prod(range(1, 2 * n, 2)), n
            assert total == 1, n

    def test_bound_exceeded(self):
        with pytest.raises(BoundExceededError):
            t_sigma(Perm.parse("7162534"))

    def test_higher_bound_allows(self):
        big = Perm.parse("1234567")
        lc = t_sigma(big, bound=7)
        assert lc.coeff(OrderedForest.parse(
            "1:1[2:1[3:1[4:1[5:1[6:1[7:1]]]]]]")) == 1


class TestTSigmaMemo:
    """T^sigma is expanded once per permutation, into a bounded memo
    that the bound check comes before."""

    def test_bounded_memo(self, monkeypatch):
        perms = [sigma for n in range(6) for sigma in all_perms(n)]
        check_bounded_memo(monkeypatch, morphisms, "_T_SIGMA_MEMO",
                           t_sigma, perms)

    def test_same_object(self):
        sigma = Perm.parse("2413")
        assert t_sigma(sigma) is t_sigma(sigma)

    def test_memoized_sigma_keeps_its_bound(self, monkeypatch):
        monkeypatch.setattr(morphisms, "_T_SIGMA_MEMO",
                            Memo(1 << 12, morphisms._simplex_expansion))
        sigma = Perm.parse("615243")
        t_sigma(sigma)
        assert sigma in morphisms._T_SIGMA_MEMO
        with pytest.raises(BoundExceededError) as refused:
            t_sigma(sigma, bound=5)
        assert str(refused.value) \
            == "degree 6 exceeds bound 5; raise the bound explicitly"
        # a refused permutation is not expanded
        big = Perm.parse("7162534")
        with pytest.raises(BoundExceededError):
            t_sigma(big)
        assert big not in morphisms._T_SIGMA_MEMO

    def test_above_the_default_degree_is_not_stored(self, monkeypatch):
        monkeypatch.setattr(morphisms, "_T_SIGMA_MEMO",
                            Memo(1 << 12, morphisms._simplex_expansion))
        big = Perm.parse("7162534")
        first = t_sigma(big, bound=7)
        assert t_sigma(big, bound=7) == first
        assert morphisms._T_SIGMA_MEMO == {}


class TestIdentitiesShareTheirStructures:
    """The identity checks multiply and co-multiply in the module's one
    HeapOrdered and one FQSym: a call builds no structure."""

    CALLS = {
        "product": lambda: t_sigma_product_identity(Perm.parse("21"),
                                                    Perm.parse("1")),
        "coproduct": lambda: t_sigma_coproduct_identity(Perm.parse("2413")),
        "twisted": lambda: twisted_product_identity(
            Perm.parse("21"), Perm.parse("1"), Perm.parse("132")),
        "theta-product": lambda: theta_morphism_product_check(
            OrderedForest.parse("1:1[2:1]"), OrderedForest.parse("1:1")),
        "theta-coproduct": lambda: theta_morphism_coproduct_check(
            OrderedForest.parse("1:1[2:1,3:1]")),
        "converse": lambda: converse_check(
            AtomMeasure(1, {(2,): 1}),
            AtomMeasure(2, {(1, 3): 1, (7, 5): GR_I})),
    }

    @pytest.mark.parametrize("name", CALLS)
    def test_no_structure_built(self, monkeypatch, name):
        built = []
        init = HopfStructure.__init__

        def counted(self, d=1):
            built.append(type(self).__name__)
            init(self, d)

        monkeypatch.setattr(HopfStructure, "__init__", counted)
        assert self.CALLS[name]() is None
        assert built == []


class TestClosedFormAgainstMatrix:
    """The parent-choice expansion against back substitution in the
    n! x n! matrix of theta, two independent routes to T^sigma.  The
    undecorated comparison for every permutation up to degree 6 is part
    of acceptance criterion 4."""

    def test_decorated_two_letters_to_degree_5(self):
        for n in range(1, 6):
            for sigma in all_perms(n):
                by_matrix = t_sigma_by_matrix(sigma)
                for letters in itertools.product((1, 2), repeat=n):
                    expected = decorate_by_order(by_matrix, letters, n)
                    assert t_sigma_decorated(sigma, letters) == expected, \
                        (sigma, letters)

    def test_decorate_by_order_sums_merged_forests(self):
        # with repeated letters, distinct ordered forests can forget to
        # one plain forest, and their coefficients add
        merged = False
        for sigma in all_perms(4):
            terms = t_sigma(sigma)
            for letters in [(1, 1, 1, 1), (1, 2, 1, 2), (2, 1, 1, 3)]:
                expected = LinComb(
                    (OrderedForest(f.parent, letters).to_plain(), c)
                    for f, c in terms.items())
                assert decorate_by_order(terms, letters, 4) == expected
                merged |= len(expected) < len(terms)
        assert merged

    def test_decorate_by_order_refuses_bad_letters(self):
        terms = t_sigma(Perm.parse("21"))
        with pytest.raises(ValueError, match="decoration out of range"):
            decorate_by_order(terms, (0, 1), 2)
        with pytest.raises(ValueError, match="must match the permutation"):
            decorate_by_order(terms, (1,), 2)

    def test_heap_order_lift_is_first_lift(self):
        for n in range(6):
            for f in enumerate_plain_forests(n, 2):
                assert heap_order_lift(f) == heap_order_lifts(f)[0], f

    def test_matrix_route_keeps_bound(self):
        with pytest.raises(BoundExceededError):
            t_sigma_by_matrix(Perm.parse("7162534"))


class TestWorkedIdentities:
    def test_product_display(self):
        # T^(21) * T^(1) = T^(213) + T^(312) + T^(321)
        H = HeapOrdered()
        lhs = H.product_lin(t_sigma(Perm.parse("21")),
                            t_sigma(Perm.parse("1")))
        rhs = (t_sigma(Perm.parse("213")) + t_sigma(Perm.parse("312"))
               + t_sigma(Perm.parse("321")))
        assert lhs == rhs

    def test_coproduct_display(self):
        # Delta T^(321) = 1 (x) T^(321) + T^(1) (x) T^(21)
        #   + T^(21) (x) T^(1) + T^(321) (x) 1
        H = HeapOrdered()
        lhs = H.coproduct_lin(t_sigma(Perm.parse("321")))
        unit = LinComb.of(H.unit(), 1)
        t1 = t_sigma(Perm.parse("1"))
        t21 = t_sigma(Perm.parse("21"))
        t321 = t_sigma(Perm.parse("321"))
        rhs = (tensor(unit, t321) + tensor(t1, t21) + tensor(t21, t1)
               + tensor(t321, unit))
        assert lhs == rhs

    def test_decorated_product_display(self):
        # cal T^(21)_ab * cal T^(1)_c = cal T^(213)_abc
        #   + cal T^(312)_abc + cal T^(321)_abc
        H = CKForests(3)
        lhs = H.product_lin(t_sigma_decorated(Perm.parse("21"), (1, 2)),
                            t_sigma_decorated(Perm.parse("1"), (3,)))
        rhs = LinComb.zero()
        for s in ("213", "312", "321"):
            rhs += t_sigma_decorated(Perm.parse(s), (1, 2, 3))
        assert lhs == rhs

    def test_decorated_coproduct_display(self):
        # Delta cal T^(321)_abc = 1 (x) cal T^(321)_abc
        #   + cal T^(1)_c (x) cal T^(21)_ab
        #   + cal T^(21)_bc (x) cal T^(1)_a
        #   + cal T^(321)_abc (x) 1
        H = CKForests(3)
        lhs = H.coproduct_lin(t_sigma_decorated(Perm.parse("321"),
                                                (1, 2, 3)))
        unit = LinComb.of(H.unit(), 1)
        rhs = (tensor(unit, t_sigma_decorated(Perm.parse("321"), (1, 2, 3)))
               + tensor(t_sigma_decorated(Perm.parse("1"), (3,)),
                        t_sigma_decorated(Perm.parse("21"), (1, 2)))
               + tensor(t_sigma_decorated(Perm.parse("21"), (2, 3)),
                        t_sigma_decorated(Perm.parse("1"), (1,)))
               + tensor(t_sigma_decorated(Perm.parse("321"), (1, 2, 3)),
                        unit))
        assert lhs == rhs


class TestIdentitySweeps:
    def test_product_identity(self):
        for k in range(1, 3):
            for l in range(1, 3):
                for s in all_perms(k):
                    for t in all_perms(l):
                        assert t_sigma_product_identity(s, t) is None

    def test_coproduct_identity(self):
        for n in range(1, 5):
            for s in all_perms(n):
                assert t_sigma_coproduct_identity(s) is None

    def test_twisted_product_spot(self):
        from foresthopf.perms import shuffles
        s, t = Perm.parse("21"), Perm.parse("1")
        for eps in shuffles(2, 1):
            assert twisted_product_identity(s, t, eps) is None

    def test_twisted_rejects_non_shuffle(self):
        s, t = Perm.parse("12"), Perm.parse("1")
        with pytest.raises(ValueError):
            twisted_product_identity(s, t, Perm.parse("213"))

    def test_theta_morphism_spot(self):
        f = OrderedForest.parse("1:1[2:1]")
        g = OrderedForest.parse("1:1")
        assert theta_morphism_product_check(f, g) is None
        assert theta_morphism_coproduct_check(
            OrderedForest.parse("1:1[2:1,3:1]")) is None


class TestSquare:
    def test_square_exhaustive_small(self):
        for n in range(4):
            for f in enumerate_heap_ordered(n, 2):
                assert square_check(f) is None

    def test_pi_ho_forgets_order(self):
        f = OrderedForest.parse("1:1[3:2]|2:3")
        assert pi_ho(f) == PlainForest.parse("1[2]|3")

    def test_pi_sigma(self):
        from foresthopf.words import Word
        from foresthopf.perms import DecoratedPerm
        dp = DecoratedPerm.parse("(213;bac)")
        assert pi_sigma(dp) == Word((2, 1, 3))


class TestChecksNameTheFailure:
    """Each identity against a mutant of one of its inputs: the exact
    message, and None without the mutant."""

    def test_product_identity(self, monkeypatch):
        s, t = Perm.parse("21"), Perm.parse("1")
        assert t_sigma_product_identity(s, t) is None
        original = morphisms.shuffles
        # the first shuffle dropped
        monkeypatch.setattr(morphisms, "shuffles",
                            lambda k, l: original(k, l)[1:])
        assert t_sigma_product_identity(s, t) \
            == "product identity fails for (21), (1)"

    def test_coproduct_identity(self, monkeypatch):
        s = Perm.parse("21")
        assert t_sigma_coproduct_identity(s) is None
        original = morphisms.t_sigma
        monkeypatch.setattr(morphisms, "t_sigma",
                            lambda *args: -original(*args))
        assert t_sigma_coproduct_identity(s) \
            == "coproduct identity fails for (21)"

    def test_twisted_product_identity(self, monkeypatch):
        s, t, eps = Perm.parse("21"), Perm.parse("1"), Perm.parse("132")
        assert twisted_product_identity(s, t, eps) is None
        original = morphisms.shuffles
        monkeypatch.setattr(morphisms, "shuffles",
                            lambda k, l: original(k, l)[1:])
        assert twisted_product_identity(s, t, eps) \
            == "twisted product identity fails for (21), (1), (132)"

    def test_theta_product(self, monkeypatch):
        f, g = OrderedForest.parse("1:1[2:1]"), OrderedForest.parse("1:1")
        assert theta_morphism_product_check(f, g) is None
        original = morphisms.theta
        monkeypatch.setattr(morphisms, "theta", lambda h: -original(h))
        assert theta_morphism_product_check(f, g) \
            == "theta not multiplicative on 1:1[2:1], 1:1"

    def test_theta_coproduct(self, monkeypatch):
        f = OrderedForest.parse("1:1[2:1,3:1]")
        assert theta_morphism_coproduct_check(f) is None
        original = morphisms.theta
        monkeypatch.setattr(morphisms, "theta", lambda h: -original(h))
        assert theta_morphism_coproduct_check(f) \
            == "theta not comultiplicative on 1:1[2:1,3:1]"

    def test_square(self, monkeypatch):
        f = OrderedForest.parse("1:1[2:2]")
        assert square_check(f) is None
        original = morphisms.theta_dec
        monkeypatch.setattr(morphisms, "theta_dec", lambda h: -original(h))
        assert square_check(f) == "square fails on 1:1[2:2]"
