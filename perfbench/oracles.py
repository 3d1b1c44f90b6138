"""Checks of the workloads' outputs, computed apart from the library.

Nothing here imports foresthopf.  The oracles read the inputs as the
benchmark generated them (inputs.py) and the results as plain data
(workloads.export), and recompute each verified value on their own:
closed-form basis sizes, the hook-length formula, a topological-sort
enumeration, and exact nested integration of the driving paths.

Both work on one part of a workload (inputs.WORKLOADS).  ``check``
returns a list of problems; empty means correct.
``self_test`` corrupts one value per oracle and returns the oracles
that failed to reject it; empty means none can pass vacuously.
"""

from collections import Counter
from fractions import Fraction
from math import factorial, prod

import inputs as bench_inputs


def _letters(text):
    return tuple(int(ch) for ch in text)


# ---------------------------------------------------------------------------
# hopf-sweep: no failures, and every swept basis has its closed-form size
# ---------------------------------------------------------------------------

def rooted_forest_counts(d, n_max):
    """Rooted forests with n vertices decorated by 1..d (Euler transform).

    t(n) = d * f(n-1) counts trees; f(n) = (1/n) sum_k c(k) f(n-k) with
    c(k) = sum over m | k of m t(m).  For d = 1: 1, 1, 2, 4, 9, 20, 48.
    """
    f = [1]
    t = [0]
    for n in range(1, n_max + 1):
        t.append(d * f[n - 1])
        c = [sum(m * t[m] for m in range(1, k + 1) if k % m == 0)
             for k in range(n + 1)]
        f.append(sum(c[k] * f[n - k] for k in range(1, n + 1)) // n)
    return f


def basis_size(name, d, n):
    if name == "shuffle":
        return d ** n
    if name == "ck":
        return rooted_forest_counts(d, n)[n]
    if name == "ordered":
        return (n + 1) ** (n - 1) * d ** n
    if name in ("heap", "fqsym-dec"):
        return factorial(n) * d ** n
    if name == "fqsym":
        return factorial(n)
    raise ValueError(f"no closed form for {name!r}")


def check_hopf(run_inputs, spec, out):
    problems = []
    for sweep in out:
        name, d, degree = sweep["name"], sweep["d"], sweep["degree"]
        label = f"{name} d={d} degree {degree}"
        if sweep["failures"] is None:
            continue        # a failed operation, counted in `failed`
        if sweep["failures"]:
            problems.append(f"{label}: {sweep['failures'][:2]}")
        for n in range(degree + 1):
            calls = sweep["layers"].get(n)
            if not calls:
                problems.append(f"{label}: degree {n} never swept")
                continue
            want = basis_size(name, d, n)
            for size, distinct in calls:
                if size != want or distinct != want:
                    problems.append(f"{label}: basis of degree {n} has "
                                    f"{size} ({distinct} distinct), "
                                    f"expected {want}")
    if len(out) != len(run_inputs["sweeps"]):
        problems.append("not every sweep ran")
    return problems


def _corrupt_hopf(out, i):
    """Sweep i with one element gone from its top-degree basis."""
    sweep = dict(out[i])
    layers = dict(sweep["layers"])
    n = max(layers)
    size, distinct = layers[n][0]
    layers[n] = [(size - 1, distinct - 1)] + layers[n][1:]
    sweep["layers"] = layers
    return out[:i] + [sweep] + out[i + 1:]


# ---------------------------------------------------------------------------
# inverse-elements: hook lengths and theta(T^sigma) = sigma^{-1}
# ---------------------------------------------------------------------------

def _subtree_sizes(parent):
    size = [1] * (len(parent) + 1)
    for v in range(1, len(parent) + 1):
        p = parent[v - 1]
        while p:
            size[p] += 1
            p = parent[p - 1]
    return size[1:]


def hook_count(parent):
    """Linear extensions of a heap-ordered forest: n! / prod subtree sizes."""
    return factorial(len(parent)) // prod(_subtree_sizes(parent))


def topological_orders(parent):
    """Every vertex order with each parent before its children."""
    n = len(parent)
    out = []
    order = []
    placed = [False] * (n + 1)
    placed[0] = True

    def extend():
        if len(order) == n:
            out.append(tuple(order))
            return
        for v in range(1, n + 1):
            if not placed[v] and placed[parent[v - 1]]:
                placed[v] = True
                order.append(v)
                extend()
                order.pop()
                placed[v] = False

    extend()
    return out


def _inverse(word):
    inv = [0] * len(word)
    for pos, v in enumerate(word, start=1):
        inv[v - 1] = pos
    return tuple(inv)


def check_hook(sigma, terms):
    total = sum(c * hook_count(parent) for parent, c in terms)
    if total != 1:
        return f"T^{sigma}: sum of c_F |S_F| is {total}, expected 1"
    return None


def check_theta(sigma, terms):
    image = Counter()
    for parent, c in terms:
        for word in topological_orders(parent):
            image[word] += c
    image = {w: c for w, c in image.items() if c}
    if image != {_inverse(sigma): 1}:
        return f"theta(T^{sigma}) is not sigma^-1"
    return None


def check_inverse(run_inputs, spec, out):
    problems = []
    sigmas = [_letters(w) for w, _ in run_inputs["tsigma"]]
    if len(out["tsigma"]) != len(sigmas):
        problems.append("not every T^sigma was computed")
    for sigma, terms in zip(sigmas, out["tsigma"]):
        if terms is not None:
            problems.append(check_hook(sigma, terms))
    for i in run_inputs["theta_checked"]:
        if out["tsigma"][i] is not None:
            problems.append(check_theta(sigmas[i], out["tsigma"][i]))
    problems += [f"identity check: {bad}" for bad in out["checks"] if bad]
    return [p for p in problems if p]


def _bump_first(terms):
    (parent, c), rest = terms[0], terms[1:]
    return [(parent, c + 1)] + rest


# ---------------------------------------------------------------------------
# fourier-j: both routes equal the exact nested integral
# ---------------------------------------------------------------------------

def _gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def nested_j(path, word, hi=0, lo=2):
    """J(t, s) of a trigonometric path along a word, by exact integration.

    The integral runs from s to t with the last letter innermost.  A
    value is {(alpha, beta): coefficient}, standing for the sum of
    coefficient * exp(i(alpha t + beta s)); coefficients are pairs
    (re, im).  Returned keyed like the library, by (t, u, s) frequencies.
    """
    inner = {(Fraction(0), Fraction(0)): (Fraction(1), Fraction(0))}
    for letter in reversed(word):
        outer = {}
        for (alpha, beta), c in inner.items():
            for xi, amp in path[letter]:
                gamma = alpha + xi
                if gamma == 0:
                    raise ValueError(f"resonant word {word}")
                # integral from s to x of exp(i gamma u) du
                #   = (exp(i gamma x) - exp(i gamma s)) / (i gamma)
                k = _gmul(_gmul(c, amp), (Fraction(0), -1 / gamma))
                for key, sign in (((gamma, beta), 1), ((0, gamma + beta), -1)):
                    re, im = outer.get(key, (0, 0))
                    outer[key] = (re + sign * k[0], im + sign * k[1])
        inner = {key: c for key, c in outer.items() if c != (0, 0)}
    out = {}
    for (alpha, beta), c in inner.items():
        freq = [Fraction(0)] * 3
        freq[hi] += alpha
        freq[lo] += beta
        out[tuple(freq)] = c
    return out


def check_fourier(run_inputs, spec, out):
    problems = []
    path = spec["path"]
    for text, pair in zip(run_inputs["words"], out["j"]):
        want = nested_j(path, _letters(text))
        for route, got in zip(("character", "convolution"), pair):
            if got is not None and got != want:
                problems.append(f"J({text}) by the {route} route differs "
                                f"from the nested integral")
    if len(out["j"]) != len(run_inputs["words"]):
        problems.append("not every word's J was computed")
    if out["chi_law"]:
        problems.append(f"chi character law: {out['chi_law'][:2]}")
    return problems


def _drop_first_term(value):
    key = next(iter(value))
    return {k: c for k, c in value.items() if k != key}


# ---------------------------------------------------------------------------
# iterated-integrals: iter_int_word equals nested univariate integration
# ---------------------------------------------------------------------------

def nested_poly(path, word):
    """Iterated integral of a polynomial path, last letter innermost.

    Values are {(i, j): coefficient} for the monomial x^i s^j; each step
    multiplies by the next derivative component in x and integrates
    from s to x.  The result is keyed by the exponents of (t, s).
    """
    inner = {(0, 0): Fraction(1)}
    for letter in reversed(word):
        outer = {}
        for (i, j), c in inner.items():
            for e, a in path[letter].items():
                k = i + e + 1
                for key, sign in (((k, j), 1), ((0, j + k), -1)):
                    outer[key] = outer.get(key, 0) + sign * c * a / k
        inner = {key: c for key, c in outer.items() if c}
    return inner


def check_iterated(run_inputs, spec, out):
    problems = [f"identity check: {bad}" for bad in out["checks"] if bad]
    for path, texts, values in zip(spec["paths"], run_inputs["words"],
                                   out["integrals"]):
        for text, got in zip(texts, values):
            if got is not None and got != nested_poly(path, _letters(text)):
                problems.append(f"iterated integral along {text} differs "
                                f"from nested integration")
    return problems


def _bump_poly(value):
    key = next(iter(value))
    return {**value, key: value[key] + 1}


# ---------------------------------------------------------------------------
# Dispatch and self-test
# ---------------------------------------------------------------------------

CHECKS = {
    "hopf-sweep": check_hopf,
    "inverse-elements": check_inverse,
    "fourier-j": check_fourier,
    "iterated-integrals": check_iterated,
}


def check(part, run_inputs, out):
    return CHECKS[part](run_inputs, bench_inputs.spec(part), out)


def _corruptions(part, run_inputs, out):
    """(oracle name, corrupted output) pairs, each to be rejected.

    Each corrupts a value from an operation that did not fail."""
    def done(values):
        return [i for i, v in enumerate(values) if v is not None]

    if part == "hopf-sweep":
        i = done([s["failures"] for s in out])[-1]
        failing = out[:i] + [dict(out[i], failures=["injected"])] + out[i + 1:]
        return [("basis size", _corrupt_hopf(out, i)),
                ("sweep failures", failing)]
    if part == "inverse-elements":
        tsigma = out["tsigma"]
        corrupted = [("identity checks", dict(out, checks=["injected"]))]
        for name, indices in (("hook length", done(tsigma)),
                              ("theta of T^sigma",
                               [i for i in run_inputs["theta_checked"]
                                if tsigma[i] is not None])):
            bad = list(tsigma)
            bad[indices[0]] = _bump_first(bad[indices[0]])
            corrupted.append((name, dict(out, tsigma=bad)))
        return corrupted
    if part == "fourier-j":
        corrupted = [("chi law", dict(out, chi_law=["injected"]))]
        for route in (0, 1):
            longest = max(done([pair[route] for pair in out["j"]]),
                          key=lambda i: len(run_inputs["words"][i]))
            j = list(out["j"])
            pair = list(j[longest])
            pair[route] = _drop_first_term(pair[route])
            j[longest] = tuple(pair)
            corrupted.append((f"J route {route + 1}", dict(out, j=j)))
        return corrupted
    if part == "iterated-integrals":
        integrals = [list(v) for v in out["integrals"]]
        last = integrals[-1]
        i = done(last)[-1]
        last[i] = _bump_poly(last[i])
        return [("iterated integral", dict(out, integrals=integrals)),
                ("identity checks", dict(out, checks=["injected"]))]
    raise ValueError(part)


def self_test(part, run_inputs, out):
    """Names of the oracles that accepted a corrupted value."""
    spec = bench_inputs.spec(part)
    return [name for name, bad in _corruptions(part, run_inputs, out)
            if not CHECKS[part](run_inputs, spec, bad)]
