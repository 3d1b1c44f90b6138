"""FQSym on the fundamental basis, plain and decorated.

Product of sigma (size k) and tau (size l): sum over all interleavings
of sigma with the l-shifted tau, one term per shuffle of the positions.
Coproduct: standardize the two halves of every split of the word.

The decorated variant carries a second row below the permutation word;
the rows travel together through both operations.
"""

from __future__ import annotations

from .coeffs import _unit_sum
from .perms import _decorated, _perm, standardize, interleavings


def fq_product(p1, p2):
    k = p1.n
    shifted = tuple(v + k for v in p2.word)
    return _unit_sum(_perm(word)
                     for word in interleavings(p1.word, shifted))


def fq_coproduct(p):
    word = p.word
    return _unit_sum((standardize(word[:i]), standardize(word[i:]))
                     for i in range(p.n + 1))


def fq_product_dec(p1, p2):
    """Merge (value, letter) columns, so both rows travel together."""
    k = p1.n
    left = tuple(zip(p1.perm.word, p1.bottom))
    right = tuple((v + k, b) for v, b in zip(p2.perm.word, p2.bottom))
    return _unit_sum(_decorated(_perm(tuple([v for v, _ in merged])),
                                tuple([b for _, b in merged]))
                     for merged in interleavings(left, right))


def fq_coproduct_dec(p):
    word = p.perm.word
    return _unit_sum((_decorated(standardize(word[:i]), p.bottom[:i]),
                      _decorated(standardize(word[i:]), p.bottom[i:]))
                     for i in range(p.n + 1))


def unique_factorization(p, k):
    """Split p of size n at k: the unique (p1, p2, zeta) with
    zeta a (k, n-k)-shuffle and p = zeta^{-1} (p1 x p2)."""
    if not 0 <= k <= p.n:
        raise ValueError(f"split point {k} out of range for size {p.n}")
    p1 = standardize(p.word[:k])
    p2 = standardize(p.word[k:])
    zeta = p1.tensor(p2) @ p.inverse()
    if not zeta.is_shuffle(k):
        raise AssertionError(f"factorization of {p} at {k} broke down")
    return p1, p2, zeta
