"""The one bounded memo of the library.

A Memo is a dict with a cap: an insertion into a memo that holds cap
entries empties it first.  Lookups are plain dict reads."""


class Memo(dict):
    __slots__ = ("cap",)

    def __init__(self, cap):
        super().__init__()
        self.cap = cap

    def __setitem__(self, key, value):
        if len(self) >= self.cap:
            self.clear()
        dict.__setitem__(self, key, value)
