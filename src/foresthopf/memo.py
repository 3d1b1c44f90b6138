"""The one bounded memo and the one intern table of the library.

A Memo is a dict with a cap: an insertion into a memo that holds cap
entries empties it first.  Lookups are plain dict reads.

An Intern maps the key of a structure to a weak reference to the one
live object with that structure, so a trusted constructor that finds a
live object returns it instead of building an equal one.  The table
keeps nothing alive: an entry goes when its object goes, so the table
holds as many entries as there are live objects and needs no cap.  A
constructor reads the table inline, as ``TABLE.get(key, DEAD)()``, which
gives the live object or None, and calls ``add`` only on a miss."""

from weakref import KeyedRef, ref

# a reference whose object is gone: the default of a lookup that misses
DEAD = ref(set())


class Memo(dict):
    __slots__ = ("cap",)

    def __init__(self, cap):
        super().__init__()
        self.cap = cap

    def __setitem__(self, key, value):
        if len(self) >= self.cap:
            self.clear()
        dict.__setitem__(self, key, value)


class Intern(dict):
    __slots__ = ("_drop",)

    def __init__(self):
        super().__init__()

        # Shared by every reference of the table.  An object that dies
        # inside a garbage cycle may be rebuilt before its callback
        # runs, so the callback drops only an entry that still holds
        # its own reference.  It reads no module global, so it also
        # runs safely while the interpreter shuts down.
        def drop(dead, table=self):
            if table.get(dead.key) is dead:
                del table[dead.key]

        self._drop = drop

    def add(self, key, obj):
        """Record obj as the live object of key; returns obj."""
        self[key] = KeyedRef(obj, self._drop, key)
        return obj
