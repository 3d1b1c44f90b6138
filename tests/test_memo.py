"""memo.Memo owns the miss protocol: a miss computes and stores once, a
failed compute stores nothing, and the cap holds under recursive
computes.  A ThetaMatrix and a Character, which keep no memo, go by
reference counting alone."""

import gc
import weakref

import pytest

from foresthopf.characters import Character
from foresthopf.coeffs import MultiPoly
from foresthopf.hopf import Shuffle
from foresthopf.memo import Memo
from foresthopf.morphisms import ThetaMatrix
from foresthopf.perms import all_perms
from foresthopf.words import all_words

from memo_check import MemoRecorder


def test_miss_computes_once_and_hit_not_at_all():
    calls = []

    def compute(key):
        calls.append(key)
        return key * 2

    memo = Memo(4, compute)
    assert memo[3] == 6
    assert calls == [3]
    assert memo[3] == 6
    assert calls == [3]
    assert dict(memo) == {3: 6}


def test_failed_compute_stores_nothing():
    calls = []

    def compute(key):
        calls.append(key)
        if len(calls) == 1:
            raise ValueError("first read fails")
        return key + 1

    memo = Memo(4, compute)
    with pytest.raises(ValueError):
        memo[1]
    assert len(memo) == 0
    assert memo[1] == 2
    assert calls == [1, 1]


def test_recursive_compute_keeps_the_cap():
    # key k reads key k - 1, so every read of a fresh key fills the
    # memo from the inside before its own store
    def compute(k):
        return 0 if k == 0 else memo[k - 1] + 1

    memo = MemoRecorder(3, compute)
    assert [memo[k] for k in (4, 9, 2, 12)] == [4, 9, 2, 12]
    assert memo.peak == 3
    assert memo.clears > 0


def test_owners_go_without_the_collector():
    gc.disable()
    try:
        table = ThetaMatrix(4)
        for sigma in all_perms(4):
            table.inverse_column(sigma)
        gone = weakref.ref(table)
        del table
        assert gone() is None

        one = MultiPoly.one(("t",))
        phi = Character(Shuffle(2), lambda w: one, one)
        for w in all_words(2, 2):
            phi(w)
        gone = weakref.ref(phi)
        del phi
        assert gone() is None
    finally:
        gc.enable()
