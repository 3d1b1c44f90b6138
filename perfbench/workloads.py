"""The library calls behind each workload, and the export of their results.

Every call goes through a module attribute (``morphisms.t_sigma``, not
a name imported once), so the traced run, which rebinds those
attributes, sees each call.  ``setup`` parses the inputs with the
library's parsers; ``run`` is the timed work; ``export`` copies the
results into plain Python data for the oracles and runs after the
timed interval.

An operation is one verified item: one basis layer or one axiom check
of a sweep, one T^sigma, one identity check, one word's J along one
route, one iterated integral.  An operation that raises counts as
failed; its result is ``None``.  ``Ops`` also times each operation.
"""

import time
from fractions import Fraction

from foresthopf import (characters, coeffs, forests, fourier, hopf,
                        morphisms, perms, words)


REFERENCE_EVERY_S = 0.02


def reference():
    """A fixed computation that never enters foresthopf.

    Its time measures the speed the host gives this process at the
    moment: Fraction arithmetic, tuple keys and a dict, as in the
    library, in about 0.2 ms.
    """
    acc = {}
    for i in range(60):
        key = (i % 7, i % 5)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i, 7)
    return acc


class Ops:
    """Runs operations, counting the attempted and the failed.

    Each operation is timed.  With ``sample_reference``, the reference
    computation runs between operations whenever REFERENCE_EVERY_S has
    passed since it last ran, and is timed too; the operations' own
    times exclude it.
    """

    def __init__(self, sample_reference=False):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.times = []
        self.reference_times = []
        self.sample_reference = sample_reference
        self.last_reference = time.perf_counter()

    def __call__(self, fn, *args, **kw):
        self.attempted += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kw)
        except Exception as exc:   # one failed operation, not a crash
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{getattr(fn, '__name__', fn)}: "
                                   f"{type(exc).__name__}: {exc}")
            return None
        finally:
            end = time.perf_counter()
            self.times.append(end - start)
            if (self.sample_reference
                    and end - self.last_reference > REFERENCE_EVERY_S):
                reference()
                self.last_reference = time.perf_counter()
                self.reference_times.append(self.last_reference - end)


def _word(text):
    return words.Word.parse(text)


# ---------------------------------------------------------------------------
# hopf-sweep
# ---------------------------------------------------------------------------

def _setup_hopf(inputs):
    return [(name, d, degree, hopf.get_structure(name, d))
            for name, d, degree in inputs["sweeps"]]


def _sweep(structure, degree, ops):
    """The loop of hopf.hopf_axiom_sweep, one operation per call inside it.

    A basis layer, and each axiom check on one element or one pair, is
    an operation of its own, so that each is timed on its own.  Returns
    the failures found, or None if a basis could not be built, and the
    size and distinct size of each layer.
    """
    layers = {n: ops(structure.basis, n) for n in range(degree + 1)}
    sizes = {n: [(len(layer), len(set(layer)))]
             for n, layer in layers.items() if layer is not None}
    if len(sizes) < len(layers):
        return None, sizes
    failures = []
    for n in range(degree + 1):
        for b in layers[n]:
            for check in (hopf.check_coassoc, hopf.check_counit,
                          hopf.check_antipode):
                bad = ops(check, structure, b)
                if bad:
                    failures.append(bad)
    for n1 in range(1, degree):
        for n2 in range(1, degree - n1 + 1):
            for b1 in layers[n1]:
                for b2 in layers[n2]:
                    bad = ops(hopf.check_delta_mult, structure, b1, b2)
                    if bad:
                        failures.append(bad)
    return failures, sizes


def _run_hopf(parsed, ops):
    return [_sweep(structure, degree, ops)
            for name, d, degree, structure in parsed]


def _export_hopf(parsed, results):
    return [{"name": name, "d": d, "degree": degree,
             "failures": failures, "layers": layers}
            for (name, d, degree, _), (failures, layers)
            in zip(parsed, results)]


# ---------------------------------------------------------------------------
# inverse-elements
# ---------------------------------------------------------------------------

def _setup_inverse(inputs):
    perm = perms.Perm.parse
    return {
        "tsigma": [(perm(w), bound) for w, bound in inputs["tsigma"]],
        "coproduct": [perm(w) for w in inputs["coproduct"]],
        "products": [tuple(perm(w) for w in t) for t in inputs["products"]],
        "square_degree": inputs["square_degree"],
        "squares": [forests.OrderedForest.parse(t)
                    for t in inputs["squares"]],
    }


def _run_inverse(parsed, ops):
    tsigma = [ops(morphisms.t_sigma, sigma, bound=bound)
              for sigma, bound in parsed["tsigma"]]
    checks = [ops(morphisms.t_sigma_coproduct_identity, sigma)
              for sigma in parsed["coproduct"]]
    for sigma, tau, eps in parsed["products"]:
        checks.append(ops(morphisms.t_sigma_product_identity, sigma, tau))
        checks.append(ops(morphisms.twisted_product_identity,
                          sigma, tau, eps))
    squares = [f for n in range(1, parsed["square_degree"] + 1)
               for f in forests.enumerate_heap_ordered(n, 2)]
    squares += parsed["squares"]
    checks += [ops(morphisms.square_check, f) for f in squares]
    return {"tsigma": tsigma, "checks": checks}


def _export_inverse(parsed, results):
    tsigma = []
    for lc in results["tsigma"]:
        tsigma.append(None if lc is None else
                      [(f.parent, c) for f, c in lc.items()])
    return {"tsigma": tsigma, "checks": results["checks"]}


# ---------------------------------------------------------------------------
# fourier-j
# ---------------------------------------------------------------------------

def _setup_fourier(inputs):
    return {
        "path": fourier.TrigPath.parse(inputs["path"]),
        "words": [_word(w) for w in inputs["words"]],
        "chi_degree": inputs["chi_degree"],
    }


def _chi_law(path, degree):
    chi = characters.Character(hopf.Shuffle(path.d),
                               lambda w: fourier.chi(path, w),
                               coeffs.FreqExp.one(), name="chi")
    return characters.validate_character(chi, degree)


def _run_fourier(parsed, ops):
    path = parsed["path"]
    j = [(ops(fourier.j_character, path, w),
          ops(fourier.j_convolution, path, w)) for w in parsed["words"]]
    law = ops(_chi_law, path, parsed["chi_degree"])
    return {"j": j, "chi_law": law}


def _freq_terms(value):
    return {freq: (c.re, c.im) for freq, c in value.terms.items()}


def _export_fourier(parsed, results):
    j = [tuple(None if v is None else _freq_terms(v) for v in pair)
         for pair in results["j"]]
    return {"j": j, "chi_law": results["chi_law"]}


# ---------------------------------------------------------------------------
# iterated-integrals
# ---------------------------------------------------------------------------

def _setup_iterated(inputs):
    perm = perms.Perm.parse
    return {
        "paths": [characters.PolyPath.parse(t) for t in inputs["paths"]],
        "character_degree": inputs["character_degree"],
        "tree_degree": inputs["tree_degree"],
        "chen": [[_word(w) for w in ws] for ws in inputs["chen"]],
        "words": [[_word(w) for w in ws] for ws in inputs["words"]],
        "fubini": [(perm(p), words.parse_letters(l))
                   for p, l in inputs["fubini"]],
    }


def _run_iterated(parsed, ops):
    checks = []
    integrals = []
    for i, path in enumerate(parsed["paths"]):
        checks.append(ops(characters.validate_character,
                          characters.iter_int_char(path,
                                                   hopf.Shuffle(path.d)),
                          parsed["character_degree"][i]))
        checks += [ops(characters.chen_check, path, w)
                   for w in parsed["chen"][i]]
        checks += [ops(characters.tree_integral_factorization_check, path, f)
                   for n in range(1, parsed["tree_degree"][i] + 1)
                   for f in forests.enumerate_plain_forests(n, path.d)]
        integrals.append([ops(characters.iter_int_word, path, w)
                          for w in parsed["words"][i]])
    checks += [ops(characters.fubini_matches_t_sigma, sigma, letters)
               for sigma, letters in parsed["fubini"]]
    return {"checks": checks, "integrals": integrals}


def _export_iterated(parsed, results):
    integrals = []
    for values in results["integrals"]:
        integrals.append([None if v is None else dict(v.terms)
                          for v in values])
    return {"checks": results["checks"], "integrals": integrals}


# The parts a workload is made of (inputs.WORKLOADS), each as
# (setup, run, export).
PARTS = {
    "hopf-sweep": (_setup_hopf, _run_hopf, _export_hopf),
    "inverse-elements": (_setup_inverse, _run_inverse, _export_inverse),
    "fourier-j": (_setup_fourier, _run_fourier, _export_fourier),
    "iterated-integrals": (_setup_iterated, _run_iterated, _export_iterated),
}
