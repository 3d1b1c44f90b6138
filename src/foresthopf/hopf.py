"""The graded Hopf algebra structures and brute-force axiom checks.

Every structure acts on LinComb over its own basis type: words for the
shuffle algebra, plain forests for the Connes-Kreimer algebra, ordered
and heap-ordered forests, and (decorated) permutations for FQSym.
Tensors are plain Python pairs (triples for the coassociativity check).
The linear extensions product_lin, coproduct_lin and tensor_mul, with
the module-level tensor, are the one bilinear layer: every identity
multiplies, co-multiplies and tensors linear combinations through them.
Where one side is a single basis element (the antipode recursion and
check_antipode), the other side's terms are multiplied by it directly.
Products and coproducts on the basis are sums of basis objects with
coefficient 1, built by coeffs._unit_sum (a forest product, one basis
object, directly by _lincomb), so their coefficients are ints, as are
the antipodes' and the counit's.

Antipodes: the shuffle algebra has its closed reversal formula; every
other structure, the forest algebra included, uses the generic
graded-connected recursion S(x) = -x - sum S(x')x'' over the proper
terms of the memoized coproduct.
"""

from __future__ import annotations

from .coeffs import LinComb, Accumulator, _lincomb, _unit_sum
from .errors import StructureMismatchError
from .words import _word, EMPTY_WORD, all_words
from .perms import Perm, DecoratedPerm, all_perms, interleavings
from . import fqsym
from .forests import (
    EMPTY_PLAIN, EMPTY_ORDERED, ordered_cuts, plain_cuts,
    enumerate_plain_forests, enumerate_ordered, enumerate_heap_ordered,
)


# ---------------------------------------------------------------------------
# Basis operations
# ---------------------------------------------------------------------------

def sh_product(w1, w2):
    """Shuffle product: all interleavings, equal words merged."""
    return _unit_sum(_word(letters)
                     for letters in interleavings(w1.letters, w2.letters))


def sh_coproduct(w):
    """Deconcatenation."""
    letters = w.letters
    return _unit_sum((_word(letters[:i]), _word(letters[i:]))
                     for i in range(len(letters) + 1))


def sh_antipode(w):
    """(a_1...a_n) -> (-1)^n (a_n...a_1)."""
    return LinComb.of(w.reverse(), (-1) ** len(w))


def ck_coproduct(f):
    """Sum over admissible cuts, Roo tensor Lea."""
    return _unit_sum((cut.roo, cut.lea) for cut in plain_cuts(f))


def ho_coproduct(f):
    """Cuts with both parts carrying the standardized induced order."""
    return _unit_sum((cut.roo, cut.lea) for cut in ordered_cuts(f))


def tensor(a, b):
    """a (x) b: the LinComb over basis pairs (x, y) with coefficient
    cx * cy.  Distinct pairs are distinct keys and the products of
    nonzero coefficients are nonzero, so nothing merges or cancels."""
    right = b.items()
    return _lincomb({(x, y): cx * cy for x, cx in a.items()
                     for y, cy in right})


# ---------------------------------------------------------------------------
# Structure objects
# ---------------------------------------------------------------------------

class HopfStructure:
    """Product/coproduct/antipode bundle over one basis type."""

    name = "?"

    def __init__(self, d=1):
        self.d = d
        self._antipode_memo = {}
        self._coproduct_memo = {}

    def unit(self):
        raise NotImplementedError

    def degree(self, b):
        raise NotImplementedError

    def product(self, b1, b2):
        raise NotImplementedError

    def _coproduct(self, b):
        raise NotImplementedError

    def coproduct(self, b):
        cached = self._coproduct_memo.get(b)
        if cached is None:
            cached = self._coproduct_memo[b] = self._coproduct(b)
        return cached

    def basis(self, n):
        raise NotImplementedError

    def counit(self, b):
        return 1 if self.degree(b) == 0 else 0

    def antipode(self, b):
        """Generic graded-connected recursion, memoized per structure."""
        if self.degree(b) == 0:
            return LinComb.of(b)
        cached = self._antipode_memo.get(b)
        if cached is not None:
            return cached
        total = Accumulator(LinComb.of(b, -1))
        for (x1, x2), c in self.coproduct(b).items():
            if self.degree(x1) == 0 or self.degree(x2) == 0:
                continue
            for y, cy in self.antipode(x1).items():
                total.add(self.product(y, x2), -c * cy)
        value = self._antipode_memo[b] = total.value()
        return value

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

    def tensor_mul(self, t1, t2):
        """Componentwise product on LinComb over basis pairs."""
        total = Accumulator(LinComb.zero())
        right = t2.items()
        for (a, b), c1 in t1.items():
            for (x, y), c2 in right:
                total.add(tensor(self.product(a, x), self.product(b, y)),
                          c1 * c2)
        return total.value()

    def same_structure(self, other):
        return type(self) is type(other) and self.d == other.d

    def __repr__(self):
        return f"{type(self).__name__}(d={self.d})"


class Shuffle(HopfStructure):
    name = "shuffle"

    def unit(self):
        return EMPTY_WORD

    def degree(self, b):
        return len(b)

    def product(self, b1, b2):
        return sh_product(b1, b2)

    def _coproduct(self, b):
        return sh_coproduct(b)

    def antipode(self, b):
        return sh_antipode(b)

    def basis(self, n):
        return all_words(n, self.d)


class CKForests(HopfStructure):
    name = "ck"

    def unit(self):
        return EMPTY_PLAIN

    def degree(self, b):
        return b.n

    def product(self, b1, b2):
        """Disjoint union of plain forests (canonical, commutative)."""
        return _lincomb({b1 * b2: 1})

    def _coproduct(self, b):
        return ck_coproduct(b)

    def basis(self, n):
        return enumerate_plain_forests(n, self.d)


class Ordered(HopfStructure):
    name = "ordered"

    def unit(self):
        return EMPTY_ORDERED

    def degree(self, b):
        return b.n

    def product(self, b1, b2):
        """Order-shifting concatenation of ordered forests."""
        return _lincomb({b1 * b2: 1})

    def _coproduct(self, b):
        return ho_coproduct(b)

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
            raise ValueError(f"fqsym has no decorations; use fqsym-dec for "
                             f"--d {d}")
        super().__init__(d)

    def unit(self):
        return Perm(())

    def degree(self, b):
        return b.n

    def product(self, b1, b2):
        return fqsym.fq_product(b1, b2)

    def _coproduct(self, b):
        return fqsym.fq_coproduct(b)

    def basis(self, n):
        return all_perms(n)


class FQSymDec(HopfStructure):
    name = "fqsym-dec"

    def unit(self):
        return DecoratedPerm((), ())

    def degree(self, b):
        return b.n

    def product(self, b1, b2):
        return fqsym.fq_product_dec(b1, b2)

    def _coproduct(self, b):
        return fqsym.fq_coproduct_dec(b)

    def basis(self, n):
        out = []
        for p in all_perms(n):
            for w in all_words(n, self.d):
                out.append(DecoratedPerm(p, w.letters))
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

def check_coassoc(H, b):
    """(Delta x id) Delta = (id x Delta) Delta on a basis element."""
    left = Accumulator(LinComb.zero())
    right = Accumulator(LinComb.zero())
    for (x, y), c in H.coproduct(b).items():
        left.add(_lincomb({(u, v, y): c2
                           for (u, v), c2 in H.coproduct(x).items()}), c)
        right.add(_lincomb({(x, u, v): c2
                            for (u, v), c2 in H.coproduct(y).items()}), c)
    if left.value() != right.value():
        return f"coassociativity fails on {b}"
    return None


def check_delta_mult(H, b1, b2):
    """Delta(xy) = Delta(x)Delta(y)."""
    lhs = H.coproduct_lin(H.product(b1, b2))
    rhs = H.tensor_mul(H.coproduct(b1), H.coproduct(b2))
    if lhs != rhs:
        return f"Delta not multiplicative on {b1}, {b2}"
    return None


def check_antipode(H, b):
    """m(S x id)Delta = unit counit = m(id x S)Delta."""
    target = LinComb.of(H.unit(), H.counit(b))
    left = Accumulator(LinComb.zero())
    right = Accumulator(LinComb.zero())
    for (x, y), c in H.coproduct(b).items():
        for s, cs in H.antipode(x).items():
            left.add(H.product(s, y), c * cs)
        for s, cs in H.antipode(y).items():
            right.add(H.product(x, s), c * cs)
    if left.value() != target:
        return f"antipode axiom (S x id) fails on {b}"
    if right.value() != target:
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
