"""The graded Hopf algebra structures and brute-force axiom checks.

Every structure acts on LinComb over its own basis type: words for the
shuffle algebra, plain forests for the Connes-Kreimer algebra, ordered
and heap-ordered forests, and (decorated) permutations for FQSym.
Tensors are plain Python pairs (triples for the coassociativity check).
The linear extensions product_lin and coproduct_lin, with the
module-level tensor, are the one bilinear layer: every identity
multiplies, co-multiplies and tensors linear combinations through them.
Where one side is a single basis element (the antipode recursion and
check_antipode), the other side's terms are multiplied by it directly.
check_coassoc and check_antipode add every term of a side, and
check_delta_mult every term of its right side, into one dict and
compare the LinComb built from it once, with no sum built per
coproduct term.
Products and coproducts on the basis are sums of basis objects with
coefficient 1, built by coeffs._unit_sum (a forest product, one basis
object, directly by _nonzero_lincomb), so their coefficients are ints,
as are the antipodes' and the counit's.

Each structure keeps one bounded memo per basis map: products, keyed
on the ordered pair of factors (the ordered and heap products do not
commute), coproducts and antipodes.  Their computes are the
structure's _product, _coproduct and _antipode; basis objects are
interned and hash by identity, so a lookup hashes one key or pair.

Antipodes: the shuffle algebra has its closed reversal formula; every
other structure, the forest algebra included, uses the generic
graded-connected recursion S(x) = -x - sum S(x')x'' over the proper
terms of the memoized coproduct.
"""

from __future__ import annotations

from .coeffs import (LinComb, Accumulator, _lincomb, _nonzero_lincomb,
                     _unit_sum)
from .errors import StructureMismatchError
from .memo import Memo
from .words import _word, EMPTY_WORD, all_words
from .perms import Perm, DecoratedPerm, _decorated, all_perms, interleavings
from . import fqsym
from .forests import (
    EMPTY_PLAIN, EMPTY_ORDERED, ordered_cuts, plain_cuts,
    enumerate_plain_forests, enumerate_ordered, enumerate_heap_ordered,
)


# ---------------------------------------------------------------------------
# Tensors
# ---------------------------------------------------------------------------

def tensor(a, b):
    """a (x) b: the LinComb over basis pairs (x, y) with coefficient
    cx * cy.  Distinct pairs are distinct keys and the products of
    nonzero coefficients are nonzero, so nothing merges or cancels."""
    right = b.items()
    return _nonzero_lincomb({(x, y): cx * cy for x, cx in a.items()
                             for y, cy in right})


# ---------------------------------------------------------------------------
# Structure objects
# ---------------------------------------------------------------------------

# The cap of each structure's product, coproduct and antipode memos.  A
# sweep to degree n fills the coproduct and antipode memos with at most
# its basis up to degree n (18,249 ordered forests up to degree 6), and
# the product memo with at most the ordered pairs of total degree up to
# n: 11,161 in criterion 3's largest sweep (heap, two letters, degree
# 5), 40,489 in `hopf-check ordered --degree 6`.  None of these sweeps,
# and none of the benchmark's, empties a memo; a larger one empties it
# and computes again, with the same results.
STRUCTURE_MEMO_CAP = 1 << 16


class HopfStructure:
    """Product/coproduct/antipode bundle over one basis type.  The
    degree of a basis element is its n: letters, vertices or points."""

    name = "?"

    def __init__(self, d=1):
        self.d = d
        self._antipode_memo = Memo(STRUCTURE_MEMO_CAP, self._antipode)
        self._coproduct_memo = Memo(STRUCTURE_MEMO_CAP, self._coproduct)
        self._product_memo = Memo(STRUCTURE_MEMO_CAP,
                                  lambda pair: self._product(*pair))

    def unit(self):
        raise NotImplementedError

    def _product(self, b1, b2):
        raise NotImplementedError

    def product(self, b1, b2):
        # the ordered pair: ordered and heap products do not commute
        return self._product_memo[b1, b2]

    def _coproduct(self, b):
        raise NotImplementedError

    def coproduct(self, b):
        return self._coproduct_memo[b]

    def basis(self, n):
        raise NotImplementedError

    def counit(self, b):
        return 1 if b.n == 0 else 0

    def antipode(self, b):
        """Generic graded-connected recursion, memoized per structure."""
        if b.n == 0:
            return LinComb.of(b)
        return self._antipode_memo[b]

    def _antipode(self, b):
        """S(b) = -b - sum S(x')x'' over the proper coproduct terms."""
        total = Accumulator(LinComb.of(b, -1))
        for (x1, x2), c in self.coproduct(b).items():
            if x1.n == 0 or x2.n == 0:
                continue
            for y, cy in self.antipode(x1).items():
                total.add(self.product(y, x2), -c * cy)
        return total.value()

    # -- linear extensions of the basis maps ---------------------------------

    def product_lin(self, a, b):
        total = Accumulator(LinComb.zero())
        right = b.items()
        for x, cx in a.items():
            for y, cy in right:
                total.add(self.product(x, y), cx * cy)
        return total.value()

    def coproduct_lin(self, a):
        total = Accumulator(LinComb.zero())
        for x, cx in a.items():
            total.add(self.coproduct(x), cx)
        return total.value()

    def same_structure(self, other):
        return type(self) is type(other) and self.d == other.d

    def __repr__(self):
        return f"{type(self).__name__}(d={self.d})"


class Shuffle(HopfStructure):
    name = "shuffle"

    def unit(self):
        return EMPTY_WORD

    def _product(self, b1, b2):
        """Shuffle product: all interleavings, equal words merged."""
        return _unit_sum(_word(letters)
                         for letters in interleavings(b1.letters, b2.letters))

    def _coproduct(self, b):
        """Deconcatenation."""
        letters = b.letters
        return _unit_sum((_word(letters[:i]), _word(letters[i:]))
                         for i in range(len(letters) + 1))

    def antipode(self, b):
        """(a_1...a_n) -> (-1)^n (a_n...a_1)."""
        return LinComb.of(b.reverse(), (-1) ** len(b))

    def basis(self, n):
        return all_words(n, self.d)


class CKForests(HopfStructure):
    name = "ck"

    def unit(self):
        return EMPTY_PLAIN

    def _product(self, b1, b2):
        """Disjoint union of plain forests (canonical, commutative)."""
        return _nonzero_lincomb({b1 * b2: 1})

    def _coproduct(self, b):
        """Sum over admissible cuts, Roo tensor Lea."""
        return _unit_sum((cut.roo, cut.lea) for cut in plain_cuts(b))

    def basis(self, n):
        return enumerate_plain_forests(n, self.d)


class Ordered(HopfStructure):
    name = "ordered"

    def unit(self):
        return EMPTY_ORDERED

    def _product(self, b1, b2):
        """Order-shifting concatenation of ordered forests."""
        return _nonzero_lincomb({b1 * b2: 1})

    def _coproduct(self, b):
        """Cuts with both parts carrying the standardized induced order."""
        return _unit_sum((cut.roo, cut.lea) for cut in ordered_cuts(b))

    def basis(self, n):
        return enumerate_ordered(n, self.d)


class HeapOrdered(Ordered):
    name = "heap"

    def basis(self, n):
        return enumerate_heap_ordered(n, self.d)


class FQSym(HopfStructure):
    name = "fqsym"

    def __init__(self, d=1):
        # the basis is undecorated: a sweep with another d would check
        # nothing decorated and still pass
        if d != 1:
            raise ValueError(f"fqsym has no decorations (d={d}); use the "
                             f"fqsym-dec structure")
        super().__init__(d)

    def unit(self):
        return Perm(())

    def _product(self, b1, b2):
        return fqsym.fq_product(b1, b2)

    def _coproduct(self, b):
        return fqsym.fq_coproduct(b)

    def basis(self, n):
        return all_perms(n)


class FQSymDec(HopfStructure):
    name = "fqsym-dec"

    def unit(self):
        return DecoratedPerm((), ())

    def _product(self, b1, b2):
        return fqsym.fq_product_dec(b1, b2)

    def _coproduct(self, b):
        return fqsym.fq_coproduct_dec(b)

    def basis(self, n):
        out = []
        for p in all_perms(n):
            for w in all_words(n, self.d):
                out.append(_decorated(p, w.letters))
        return out


STRUCTURES = {
    "shuffle": Shuffle,
    "ck": CKForests,
    "ordered": Ordered,
    "heap": HeapOrdered,
    "fqsym": FQSym,
    "fqsym-dec": FQSymDec,
}


def get_structure(name, d=1):
    if name not in STRUCTURES:
        raise StructureMismatchError(f"unknown structure {name!r}")
    return STRUCTURES[name](d)


# ---------------------------------------------------------------------------
# Axiom checks (each returns None or a counterexample string)
# ---------------------------------------------------------------------------

def _add_terms(terms, value, scalar):
    """Fold scalar * value, a LinComb, into a dict of terms."""
    get = terms.get
    for key, c in value.terms.items():
        terms[key] = get(key, 0) + scalar * c


def check_coassoc(H, b):
    """(Delta x id) Delta = (id x Delta) Delta on a basis element."""
    left, right = {}, {}
    for (x, y), c in H.coproduct(b).items():
        get = left.get
        for (u, v), c2 in H.coproduct(x).items():
            key = (u, v, y)
            left[key] = get(key, 0) + c * c2
        get = right.get
        for (u, v), c2 in H.coproduct(y).items():
            key = (x, u, v)
            right[key] = get(key, 0) + c * c2
    if _lincomb(left) != _lincomb(right):
        return f"coassociativity fails on {b}"
    return None


def check_delta_mult(H, b1, b2):
    """Delta(xy) = Delta(x)Delta(y), the right side multiplied
    componentwise over pairs of coproduct terms."""
    lhs = H.coproduct_lin(H.product(b1, b2))
    rhs = {}
    get = rhs.get
    right = H.coproduct(b2).items()
    for (u, v), c1 in H.coproduct(b1).items():
        for (x, y), c2 in right:
            c = c1 * c2
            second = H.product(v, y).items()
            for p, cp in H.product(u, x).items():
                for q, cq in second:
                    key = (p, q)
                    rhs[key] = get(key, 0) + c * cp * cq
    if lhs != _lincomb(rhs):
        return f"Delta not multiplicative on {b1}, {b2}"
    return None


def check_antipode(H, b):
    """m(S x id)Delta = unit counit = m(id x S)Delta."""
    target = LinComb.of(H.unit(), H.counit(b))
    left, right = {}, {}
    for (x, y), c in H.coproduct(b).items():
        for s, cs in H.antipode(x).items():
            _add_terms(left, H.product(s, y), c * cs)
        for s, cs in H.antipode(y).items():
            _add_terms(right, H.product(x, s), c * cs)
    if _lincomb(left) != target:
        return f"antipode axiom (S x id) fails on {b}"
    if _lincomb(right) != target:
        return f"antipode axiom (id x S) fails on {b}"
    return None


def check_counit(H, b):
    """(counit x id)Delta = id = (id x counit)Delta."""
    lhs = Accumulator(LinComb.zero())
    rhs = Accumulator(LinComb.zero())
    for (x, y), c in H.coproduct(b).items():
        ex, ey = H.counit(x), H.counit(y)
        if ex:
            lhs.add(_lincomb({y: c}), ex)
        if ey:
            rhs.add(_lincomb({x: c}), ey)
    target = LinComb.of(b)
    if lhs.value() != target or rhs.value() != target:
        return f"counit axiom fails on {b}"
    return None


def hopf_axiom_sweep(H, max_degree):
    """Exhaustive axiom check up to a degree; returns list of failures."""
    failures = []
    layers = {n: H.basis(n) for n in range(max_degree + 1)}
    for n in range(max_degree + 1):
        for b in layers[n]:
            for check in (check_coassoc, check_counit, check_antipode):
                bad = check(H, b)
                if bad:
                    failures.append(bad)
    for n1 in range(1, max_degree):
        for n2 in range(1, max_degree - n1 + 1):
            for b1 in layers[n1]:
                for b2 in layers[n2]:
                    bad = check_delta_mult(H, b1, b2)
                    if bad:
                        failures.append(bad)
    return failures
