"""Shared checks that a memo stays within its cap and that an intern
table keeps nothing alive.

A memo is a ``foresthopf.memo.Memo`` held as an attribute of a module or
of an instance; it computes its own misses and is emptied before a store
would take it past its cap.  An intern table is a
``foresthopf.memo.Intern``; its entry for an object goes when the object
goes."""

from foresthopf.memo import Memo


class MemoRecorder(Memo):
    """A memo that records its largest size and how often it was
    emptied."""

    def __init__(self, cap, compute):
        super().__init__(cap, compute)
        self.peak = 0
        self.clears = 0

    def __missing__(self, key):
        value = super().__missing__(key)
        self.peak = max(self.peak, len(self))
        return value

    def clear(self):
        self.clears += 1
        super().clear()


def check_bounded_memo(monkeypatch, owner, name, compute, inputs):
    """With the memo ``name`` of owner, a module or an instance, swapped
    for a recorder of cap 5, compute gives the same values on inputs as
    with an empty memo at the full cap, the memo reaches 5 entries and
    never more, and it is emptied at least once."""
    old = getattr(owner, name)
    monkeypatch.setattr(owner, name, Memo(old.cap, old.compute))
    expected = [compute(x) for x in inputs]
    memo = MemoRecorder(5, old.compute)
    monkeypatch.setattr(owner, name, memo)
    assert [compute(x) for x in inputs] == expected
    assert memo.peak == 5
    assert memo.clears > 0


def check_entry_goes_with_its_object(table, build, fields):
    """build() makes an object that nothing else holds and that table
    interns: the table's entry for it is dropped with the last reference
    to it, and a rebuilt object has the same fields."""
    obj = build()
    entry = next(ref for ref in table.values() if ref() is obj)
    before = fields(obj)
    del obj
    assert entry() is None
    assert entry.key not in table
    again = build()
    assert fields(again) == before
    assert table[entry.key]() is again
