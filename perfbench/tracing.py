"""Per-layer tracing without editing the library.

``install`` wraps every function and method defined in the library's
layer modules, plus the methods of ``fractions.Fraction``, and rebinds
each binding of the original function object across all loaded
``foresthopf.*`` module namespaces.  A name imported with ``from ...
import``, like ``fourier.t_sigma``, is rebound too.  Properties and
nested functions are not wrapped; their time counts to the innermost
wrapped caller.

Each call is a span that records its parent span.  A span's self time
is its duration minus the durations of its child spans, and is charged
to the module that defines the function (``fractions`` is charged to
the coefficient layer as ``coeffs.fraction_self_s``).  Spans are not
kept one by one: they are aggregated per (parent, function) edge.
"""

import fractions
import functools
import inspect
import sys
import time
import types
from collections import defaultdict

LAYERS = ("coeffs", "words", "perms", "forests", "hopf", "fqsym",
          "morphisms", "characters", "fourier")

# Inclusive time of layer entry points.  A recursive or nested entry is
# timed from its outermost call, so no interval counts twice.
CUM = {
    "forests.linear_extensions": ["forests.linear_extensions"],
    "forests.antichains": ["forests.antichains"],
    "forests.ordered_cuts": ["forests.ordered_cuts"],
    "forests.plain_cuts": ["forests.plain_cuts"],
    "forests.heap_order_lifts": ["forests.heap_order_lifts"],
    "hopf.coproduct": ["hopf.HopfStructure.coproduct"],
    "hopf.antipode": ["hopf.HopfStructure.antipode", "hopf.Shuffle.antipode",
                      "hopf.CKForests.antipode"],
    "hopf.product_lin": ["hopf.HopfStructure.product_lin"],
    "fqsym.fq_product": ["fqsym.fq_product"],
    "morphisms.ThetaMatrix": ["morphisms.ThetaMatrix.__init__"],
    "morphisms.inverse_column": ["morphisms.ThetaMatrix.inverse_column"],
    "morphisms.t_sigma": ["morphisms.t_sigma"],
    "morphisms.theta_small": ["morphisms.theta_small"],
    "fourier.split_measure": ["fourier.split_measure"],
    "fourier.skeleton_value": ["fourier.skeleton_value"],
    "fourier.sbar_eval": ["fourier.sbar_eval"],
    "fourier.chi_measure": ["fourier.chi_measure"],
    "fourier.j_character": ["fourier.j_character"],
    "fourier.j_convolution": ["fourier.j_convolution"],
    "characters.iter_int_word": ["characters.iter_int_word"],
    "characters.iter_int_tree": ["characters.iter_int_tree"],
    "characters.fubini_tsigma": ["characters.fubini_tsigma"],
}

# Counted calls.  Constructor counts are named for validations: a
# trusted constructor that skips __init__ reads as fewer validations.
CALLS = {
    "perms.Perm.init_calls": ["perms.Perm.__init__"],
    "forests.OrderedForest.init_calls": ["forests.OrderedForest.__init__"],
    "coeffs.Fraction.new_calls": ["fraction.Fraction.__new__"],
    "morphisms.t_sigma.calls": ["morphisms.t_sigma"],
    "fourier.sbar_eval.calls": ["fourier.sbar_eval"],
    "hopf.antipode.calls": CUM["hopf.antipode"],
}
ARITH_CLASSES = ("LinComb", "FreqExp", "GaussianRational", "MultiPoly")
ARITH_METHODS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                 "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
                 "__pow__")
CALLS["coeffs.arith_calls"] = [f"coeffs.{c}.{m}" for c in ARITH_CLASSES
                               for m in ARITH_METHODS]

RESULTS = ("forests.linear_extensions", "forests.heap_order_lifts",
           "morphisms.t_sigma")
DISTINCT = ("morphisms.t_sigma", "fourier.sbar_eval")


class _UseTrackingList(list):
    """A returned list that counts the indices its caller reads."""

    def __init__(self, items, tracer):
        super().__init__(items)
        self._tracer = tracer
        self._used = set()

    def _mark(self, indices):
        new = set(indices) - self._used
        self._used |= new
        self._tracer.lifts_used += len(new)

    def __getitem__(self, key):
        if isinstance(key, slice):
            self._mark(range(len(self))[key])
        elif -len(self) <= key < len(self):
            self._mark([key % len(self)])
        return super().__getitem__(key)

    def __iter__(self):
        self._mark(range(len(self)))
        return super().__iter__()


class Tracer:
    """Spans, counts and ratios of one traced round."""

    def __init__(self):
        self.clock = time.perf_counter
        self.stack = [[0.0, 0.0, "<workload>"]]
        self.self_s = defaultdict(float)
        self.edges = defaultdict(lambda: [0, 0.0])
        self.cum = {name: [0, 0.0, 0.0] for name in CUM}
        self.results = defaultdict(int)
        self.distinct = {name: set() for name in DISTINCT}
        self.lifts_used = 0
        self.wrapped = set()
        self.active = [True]      # off while the tracer does its own work
        self._restore = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, name, layer):
        stack, clock, self_s, edges, active = (
            self.stack, self.clock, self.self_s, self.edges, self.active)
        self.wrapped.add(name)
        groups = [self.cum[g] for g, members in CUM.items()
                  if name in members]
        keep_result = name in RESULTS
        signature = inspect.signature(fn) if name in DISTINCT else None

        @functools.wraps(fn)
        def span(*args, **kw):
            if not active[0]:
                return fn(*args, **kw)
            start = clock()
            frame = [start, 0.0, name]
            stack.append(frame)
            for g in groups:
                if not g[0]:
                    g[1] = start
                g[0] += 1
            try:
                result = fn(*args, **kw)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[layer] += duration - frame[1]
                parent = stack[-1]
                parent[1] += duration
                edge = edges[(parent[2], name)]
                edge[0] += 1
                edge[1] += duration
                for g in groups:
                    g[0] -= 1
                    if not g[0]:
                        g[2] += end - g[1]
            if keep_result or signature is not None:
                active[0] = False
                try:
                    result = self._observe(name, signature, args, kw, result)
                finally:
                    active[0] = True
            return result

        return span

    def _observe(self, name, signature, args, kw, result):
        if name in RESULTS:
            self.results[name] += len(result)
            if name == "forests.heap_order_lifts":
                result = _UseTrackingList(result, self)
        if signature is not None:
            bound = signature.bind(*args, **kw)
            bound.apply_defaults()
            self.distinct[name].add(tuple(
                tuple(v) if isinstance(v, list) else v
                for v in bound.arguments.values()))
        return result

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap_member(self, owner, attr, raw, name, layer, replaced):
        if isinstance(raw, (staticmethod, classmethod)):
            span = self._wrap(raw.__func__, name, layer)
            replaced[id(raw.__func__)] = (raw.__func__, span)
            self._set(owner, attr, type(raw)(span))
        elif isinstance(raw, types.FunctionType):
            span = self._wrap(raw, name, layer)
            replaced[id(raw)] = (raw, span)
            self._set(owner, attr, span)

    def _wrap_class(self, cls, prefix, layer, replaced):
        for attr, raw in list(vars(cls).items()):
            self._wrap_member(cls, attr, raw, f"{prefix}.{attr}", layer,
                              replaced)

    def install(self):
        replaced = {}      # id(original) -> (original, wrapper)
        for layer in LAYERS:
            module = sys.modules[f"foresthopf.{layer}"]
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    self._wrap_member(module, attr, obj, f"{layer}.{attr}",
                                      layer, replaced)
                elif isinstance(obj, type) and not issubclass(obj,
                                                              BaseException):
                    self._wrap_class(obj, f"{layer}.{attr}", layer, replaced)
        self._wrap_class(fractions.Fraction, "fraction.Fraction", "fraction",
                         replaced)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] != "foresthopf" or module is None:
                continue
            for attr, obj in list(vars(module).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(module, attr, hit[1])

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- report ----------------------------------------------------------------

    def _calls(self, names):
        wanted = set(names)
        return sum(n for (_, callee), (n, _) in self.edges.items()
                   if callee in wanted)

    def missing(self):
        """Named entry points that no longer exist in the library."""
        named = {n for members in CUM.values() for n in members}
        named |= {n for metric, members in CALLS.items()
                  if metric != "coeffs.arith_calls" for n in members}
        return sorted(named - self.wrapped)

    def metrics(self):
        m = {}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = (self.self_s[layer], "s")
        m["coeffs.fraction_self_s"] = (self.self_s["fraction"], "s")
        for name, (_, _, total) in self.cum.items():
            m[f"{name}.cum_s"] = (total, "s")
        for metric, names in CALLS.items():
            m[metric] = (self._calls(names), "count")
        m["forests.linear_extensions.results"] = (
            self.results["forests.linear_extensions"], "count")
        m["forests.heap_order_lifts.results"] = (
            self.results["forests.heap_order_lifts"], "count")
        m["morphisms.t_sigma.terms"] = (self.results["morphisms.t_sigma"],
                                        "count")
        built = self.results["forests.heap_order_lifts"]
        m["forests.heap_order_lifts.used_ratio"] = (
            self.lifts_used / built if built else 0.0, "ratio")
        for name in DISTINCT:
            calls = self._calls([name])
            m[f"{name}.distinct_ratio"] = (
                len(self.distinct[name]) / calls if calls else 0.0, "ratio")
        return m

    def top_edges(self, limit=25):
        rows = sorted(self.edges.items(), key=lambda kv: -kv[1][1])[:limit]
        return [f"{seconds:10.4f} s {calls:>10} calls  {parent} -> {callee}"
                for (parent, callee), (calls, seconds) in rows]
