"""Seeded inputs for the benchmark workloads.

This module never imports foresthopf.  ``make_inputs`` gives a
workload's inputs as JSON-ready text in the library's own grammars,
which a round parses with the library's parsers during set-up.
``spec`` gives the fixed driving paths as plain Python data, which the
oracles read without going through the library.

Exhaustive parts of a workload do not depend on the seed; only the
sampled parts do.  Sample sizes are fixed, so every seed attempts the
same number of operations.
"""

from fractions import Fraction
from itertools import permutations, product
import random

# Each workload runs two parts in one round.  The algebraic parts and
# the integration parts are paired, so that a run can be 60 s long
# within the time all runs may take, and each layer still has a
# workload that enters it and one that does not.
WORKLOADS = {
    "hopf-tsigma": ("hopf-sweep", "inverse-elements"),
    "fourier-chen": ("fourier-j", "iterated-integrals"),
}

# The structures of criterion 3 of the acceptance sweep, one letter
# then two, and ck one degree higher.  Shuffle and one-letter ck keep
# the degrees of criterion 3 (5 with one letter, 4 with two); the others
# stop one degree lower, so that a round stays short and a run has many
# rounds.  The order is fixed: the ck sweeps share the library's CK
# antipode memo.
HOPF_SWEEPS = (
    ("shuffle", 1, 5), ("ck", 1, 5), ("ordered", 1, 4), ("heap", 1, 4),
    ("fqsym", 1, 4),
    ("shuffle", 2, 4), ("ck", 2, 3), ("ordered", 2, 3), ("heap", 2, 3),
    ("fqsym-dec", 2, 3),
    ("ck", 1, 6),
)

# Two frequencies per letter.  Every frequency except -7/11 is an
# integer, so a sum of frequencies taking -7/11 between 1 and 10 times
# is never an integer, and a sum without it is a positive integer: no
# subset sum of a word of length <= 10 vanishes (nonresonance).  The
# magnitudes 1, 7/11, 2, 5 are distinct, so no sector has a tie.
TRIG_PATH = {
    1: ((Fraction(1), (Fraction(1), Fraction(0))),
        (Fraction(-7, 11), (Fraction(1, 2), Fraction(0)))),
    2: ((Fraction(2), (Fraction(1), Fraction(0))),
        (Fraction(5), (Fraction(0), Fraction(-1)))),
}

# Derivative components as {power of x: coefficient}.  The first path
# is the one of acceptance criterion 6; the second has three letters
# with components up to degree 4.
POLY_PATHS = (
    {1: {0: Fraction(1)}, 2: {1: Fraction(2)}},
    {1: {0: Fraction(1), 1: Fraction(-2)},
     2: {0: Fraction(1, 2), 2: Fraction(3)},
     3: {1: Fraction(-2, 3), 4: Fraction(1)}},
)


def _word_text(letters):
    return "".join(str(a) for a in letters)


def _words(d, n):
    return [tuple(w) for w in product(range(1, d + 1), repeat=n)]


def _perm_words(n):
    return [tuple(p) for p in permutations(range(1, n + 1))]


def _random_heap_forest(rng, n, d):
    parent = tuple(rng.randrange(i) for i in range(1, n + 1))
    dec = tuple(rng.randint(1, d) for _ in range(n))
    return parent, dec


def _ordered_forest_text(parent, dec):
    """Render (parent, dec) in the ordered-forest grammar, e.g. 1:1[2:2]|3:1."""
    children = {v: [] for v in range(len(parent) + 1)}
    for v, p in enumerate(parent, start=1):
        children[p].append(v)

    def render(v):
        head = f"{v}:{dec[v - 1]}"
        if children[v]:
            head += "[" + ",".join(render(c) for c in children[v]) + "]"
        return head

    return "|".join(render(r) for r in children[0]) or "e"


def _shuffle_word(n, positions):
    """The (k, n-k)-shuffle putting the values 1..k at the given positions."""
    word = []
    low, high = 1, len(positions) + 1
    for i in range(n):
        if i in positions:
            word.append(low)
            low += 1
        else:
            word.append(high)
            high += 1
    return tuple(word)


def _poly_path_text(path):
    lines = []
    for letter, comp in path.items():
        terms = [f"{c}" if e == 0 else f"{c}x^{e}"
                 for e, c in sorted(comp.items())]
        lines.append(f"{letter}: " + " + ".join(terms))
    return "\n".join(lines).replace("+ -", "- ")


def _trig_path_text(path):
    def amp(re, im):
        if not im:
            return str(re)
        if not re:
            return "-i" if im == -1 else "i" if im == 1 else f"{im}*i"
        return f"{re}+{im}*i".replace("+-", "-")
    return "\n".join(
        f"{letter}: " + ", ".join(f"{amp(*a)}@{f}" for f, a in comp)
        for letter, comp in path.items())


def _hopf_sweep(rng):
    del rng     # exhaustive: nothing is sampled
    return {"sweeps": [list(s) for s in HOPF_SWEEPS]}


def _inverse_elements(rng):
    deg6 = _perm_words(6)
    coproduct = rng.sample(_perm_words(5), 12) + rng.sample(deg6, 12)
    products = []
    for k in range(1, 6):
        for l in range(1, 7 - k):
            for _ in range(2):
                sigma = rng.choice(_perm_words(k))
                tau = rng.choice(_perm_words(l))
                eps = _shuffle_word(k + l,
                                    set(rng.sample(range(k + l), k)))
                products.append([sigma, tau, eps])
    squares = [_random_heap_forest(rng, 5, 2) for _ in range(120)]
    return {
        "tsigma": [[_word_text(w), 6] for w in deg6],
        "coproduct": [_word_text(w) for w in coproduct],
        "products": [[_word_text(w) for w in triple] for triple in products],
        "square_degree": 3,
        "squares": [_ordered_forest_text(p, d) for p, d in squares],
        "theta_checked": sorted(rng.sample(range(len(deg6)), 26)),
    }


def _fourier_j(rng):
    # Every word up to length 3 and the length-4 words that begin with
    # letter 1, in a seeded order.  All words share the library's sbar
    # memo, so the order moves work from word to word but not in total.
    # Longer words are left out: one length-5 word's J costs 0.2 s to
    # 2.3 s depending on the word.
    words = [w for n in range(1, 5) for w in _words(2, n)
             if n < 4 or w[0] == 1]
    rng.shuffle(words)
    return {
        "path": _trig_path_text(TRIG_PATH),
        "words": [_word_text(w) for w in words],
        "chi_degree": 3,
    }


def _iterated_integrals(rng):
    chen = [[w for n in range(1, 6 - d) for w in _words(d, n)]
            for d in (2, 3)]
    # Three sampled words of each length 3 and 4 and two of length 5, so
    # that every seed samples the same amount of integration.
    sampled = [[w for n, k in ((3, 3), (4, 3), (5, 2))
                for w in rng.sample(_words(d, n), k)] for d in (2, 3)]
    fubini = [[_word_text(p), _word_text(tuple(rng.randint(1, 3)
                                               for _ in range(5)))]
              for p in _perm_words(5)]
    return {
        "paths": [_poly_path_text(p) for p in POLY_PATHS],
        "character_degree": [5, 3],
        "tree_degree": [4, 3],
        "chen": [[_word_text(w) for w in ws] for ws in chen],
        "words": [[_word_text(w) for w in ws] for ws in sampled],
        "fubini": fubini,
    }


_MAKERS = {
    "hopf-sweep": _hopf_sweep,
    "inverse-elements": _inverse_elements,
    "fourier-j": _fourier_j,
    "iterated-integrals": _iterated_integrals,
}


def make_inputs(workload, seed):
    """The workload's inputs for a seed, per part, as JSON-ready data."""
    return {part: _MAKERS[part](random.Random(f"{part}:{seed}"))
            for part in WORKLOADS[workload]}


def spec(part):
    """Plain-data description of the fixed paths, for the oracles."""
    if part == "fourier-j":
        return {"path": TRIG_PATH}
    if part == "iterated-integrals":
        return {"paths": POLY_PATHS}
    return {}

