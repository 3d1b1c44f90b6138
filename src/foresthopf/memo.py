"""The one bounded memo, the one intern table and the one immutability
rule of the library.

A Memo is a dict with a cap and a compute function, and it owns the
whole miss protocol: a value is read as ``MEMO[key]``, and on a miss
``__missing__`` calls ``compute(key)``, empties the memo if it already
holds cap entries, stores the value and returns it.  It is the only code
that writes into a memo.  The cap is checked right before the store, so
the memo never holds more than cap entries, also when compute reads the
memo again for smaller keys.  A compute that raises stores nothing.

What compute references, the memo keeps alive.  A structure's memos hold
its bound methods, a reference cycle that only the garbage collector
frees.  ``fourier.chi_character`` builds a ``Shuffle(path.d)`` per call,
which stays in memory, with what its memos hold, until the collector
next runs; sharing one would buy nothing, since in a ``fourier-chen``
benchmark round those shuffle memos hit 0 of their 22 reads.

An Intern maps the key of a structure to a weak reference to the one
live object with that structure, so a trusted constructor that finds a
live object returns it instead of building an equal one.  The table
keeps nothing alive: an entry goes when its object goes, so the table
holds as many entries as there are live objects and needs no cap.  A
constructor reads the table through its ``get``, bound once at module
level (``_table_get = TABLE.get``), as ``_table_get(key, DEAD)()``,
which gives the live object or None, and calls ``add`` only on a miss.
The bound ``get`` spares each lookup an attribute read and a method
binding.

An Immutable refuses every attribute write.  It is the base of the
coefficient, sum, basis and path types; their constructors fill the
slots through ``object.__setattr__`` or the slot descriptors."""

from weakref import KeyedRef, ref

# a reference whose object is gone: the default of a lookup that misses
DEAD = ref(set())


class Memo(dict):
    __slots__ = ("cap", "compute")

    def __init__(self, cap, compute):
        super().__init__()
        self.cap = cap
        self.compute = compute

    def __missing__(self, key):
        value = self.compute(key)
        if len(self) >= self.cap:
            self.clear()
        self[key] = value
        return value


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


class Immutable:
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")
