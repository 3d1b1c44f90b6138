"""Shared check that a module memo stays within its cap.

A memo ``NAME`` is a module-level dict with an integer ``NAME_CAP``; it
is emptied before an insertion would take it past the cap."""


class MemoRecorder(dict):
    """A memo dict that records its largest size and how often it was
    emptied."""

    def __init__(self):
        super().__init__()
        self.peak = 0
        self.clears = 0

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.peak = max(self.peak, len(self))

    def clear(self):
        self.clears += 1
        super().clear()


def check_bounded_memo(monkeypatch, module, name, compute, inputs):
    """With NAME_CAP set to 5, compute gives the same values on inputs as
    with an empty memo at the full cap, the memo reaches 5 entries and
    never more, and it is emptied at least once."""
    getattr(module, name).clear()
    expected = [compute(x) for x in inputs]
    memo = MemoRecorder()
    monkeypatch.setattr(module, name, memo)
    monkeypatch.setattr(module, name + "_CAP", 5)
    assert [compute(x) for x in inputs] == expected
    assert memo.peak == 5
    assert memo.clears > 0
