"""End-to-end acceptance sweep.

One test per criterion, run in order.  Each prints a single PASS/FAIL
line (run with `pytest -v -s` to watch them) and then asserts, so a
failure also surfaces through pytest with the counterexamples.  All
comparisons are exact; the only tolerances are the wall-clock budgets
on the criteria that carry one.
"""

import itertools
import time
from math import factorial
from pathlib import Path

from foresthopf.characters import (
    Character,
    PolyPath,
    chen_check,
    fubini_matches_t_sigma,
    iter_int_char,
    tree_integral_factorization_check,
    validate_character,
)
from foresthopf.coeffs import FreqExp
from foresthopf.forests import (
    OrderedForest,
    PlainForest,
    enumerate_heap_ordered,
    enumerate_ordered,
    enumerate_plain_forests,
)
from foresthopf.fourier import (
    TrigPath,
    chi,
    j_character,
    j_convolution,
    sector_sweep,
)
from foresthopf.hopf import Shuffle, get_structure, hopf_axiom_sweep
from foresthopf.morphisms import (
    square_check,
    t_sigma,
    t_sigma_coproduct_identity,
    t_sigma_decorated,
    t_sigma_product_identity,
    theta,
    theta_inverse_table,
    theta_morphism_coproduct_check,
    theta_morphism_product_check,
    theta_small,
    twisted_product_identity,
)
from foresthopf.perms import Perm, all_perms, shuffles
from foresthopf.words import Word

from frozen_tables import (
    THETA_DEC_TABLE,
    THETA_TABLE,
    TSIGMA_DEC_TABLE,
    TSIGMA_TABLE,
    forest_comb,
    plain_comb,
)


def _verdict(num, desc, failures, elapsed=None, budget=None):
    failures = list(failures)
    if budget is not None and elapsed >= budget:
        failures.append(f"took {elapsed:.1f}s, budget {budget:.0f}s")
    line = f"{'FAIL' if failures else 'PASS'} criterion {num}: {desc}"
    if elapsed is not None:
        line += f" ({elapsed:.2f}s)"
    print(line)
    assert not failures, failures[:5]


def test_criterion_1_heap_ordered_count():
    start = time.monotonic()
    failures = []
    for n in range(7):
        got = len(enumerate_heap_ordered(n))
        if got != factorial(n):
            failures.append(f"|F_ho({n})| = {got}, expected {factorial(n)}")
    _verdict(1, "heap-ordered forests counted by n! for n <= 6",
             failures, time.monotonic() - start, budget=5.0)


def test_criterion_2_frozen_tables():
    failures = []
    for text, expected in THETA_TABLE:
        if theta(OrderedForest.parse(text)) != expected:
            failures.append(f"theta({text})")
    for word, pairs in TSIGMA_TABLE:
        if t_sigma(Perm.parse(word)) != forest_comb(pairs):
            failures.append(f"T^{word}")
    for text, expected in THETA_DEC_TABLE:
        if theta_small(PlainForest.parse(text)) != expected:
            failures.append(f"decorated theta({text})")
    for word, pairs in TSIGMA_DEC_TABLE:
        sigma = Perm.parse(word)
        if t_sigma_decorated(sigma, (1, 2, 3)) != plain_comb(pairs):
            failures.append(f"decorated T^{word}")
    _verdict(2, "all four hand-derived small-degree tables reproduced",
             failures)


def test_criterion_3_hopf_axioms():
    start = time.monotonic()
    cases = [
        ("shuffle", 1, 6), ("ck", 1, 7), ("ordered", 1, 5),
        ("heap", 1, 6), ("fqsym", 1, 6),
        ("shuffle", 2, 5), ("ck", 2, 6), ("ordered", 2, 4),
        ("heap", 2, 5), ("fqsym-dec", 2, 4),
    ]
    failures = []
    for name, d, degree in cases:
        for bad in hopf_axiom_sweep(get_structure(name, d), degree):
            failures.append(f"{name} d={d}: {bad}")
    _verdict(3, "Hopf axioms for all five structures (deg <= 5, "
             "and deg <= 4 with two letters; shuffle and heap one degree "
             "higher with one letter and with two, fqsym one degree "
             "higher, ck two degrees higher with one letter and with two)",
             failures, time.monotonic() - start, budget=60.0)


def test_criterion_4_theta_morphism_and_inverse():
    failures = []
    layers = {n: enumerate_ordered(n) for n in range(1, 5)}
    for k in range(1, 5):
        for l in range(1, 6 - k):
            for f1 in layers[k]:
                for f2 in layers[l]:
                    bad = theta_morphism_product_check(f1, f2)
                    if bad:
                        failures.append(bad)
    for n in range(1, 5):
        for f in layers[n]:
            bad = theta_morphism_coproduct_check(f)
            if bad:
                failures.append(bad)
    # invertibility degree by degree: theta applied to the inverse
    # column of tau must give back exactly tau, for every tau
    for n in range(7):
        table = theta_inverse_table(n)
        for tau in table.perms:
            image = {}
            for f, c in table.inverse_column(tau).items():
                for p in table.extensions(f):
                    image[p] = image.get(p, 0) + c
            if {p: c for p, c in image.items() if c} != {tau: 1}:
                failures.append(f"theta o theta^-1 != id at {tau}")
            # the closed form against the matrix back substitution
            if t_sigma(tau.inverse()) != table.inverse_column(tau):
                failures.append(f"closed-form T^{tau.inverse()} differs "
                                f"from the matrix column")
    for k in range(1, 6):
        for l in range(1, 7 - k):
            for sigma in all_perms(k):
                for tau in all_perms(l):
                    bad = t_sigma_product_identity(sigma, tau)
                    if bad:
                        failures.append(bad)
                    for eps in shuffles(k, l):
                        bad = twisted_product_identity(sigma, tau, eps)
                        if bad:
                            failures.append(bad)
    for n in range(1, 7):
        for sigma in all_perms(n):
            bad = t_sigma_coproduct_identity(sigma)
            if bad:
                failures.append(bad)
    _verdict(4, "theta is a Hopf morphism, inverts up to degree 6, and "
             "the inverse-element identities hold up to degree 6", failures)


def test_criterion_5_commuting_square():
    failures = []
    for n in range(1, 5):
        for f in enumerate_heap_ordered(n, 2):
            bad = square_check(f)
            if bad:
                failures.append(bad)
    _verdict(5, "word projection of theta equals decorated theta of the "
             "forest projection (deg <= 4, two letters)", failures)


def test_criterion_6_iterated_integrals():
    start = time.monotonic()
    path = PolyPath.parse("1: 1\n2: 2x")
    failures = validate_character(iter_int_char(path, Shuffle(2)), 5)
    for n in range(1, 5):
        for letters in itertools.product((1, 2), repeat=n):
            bad = chen_check(path, Word(letters))
            if bad:
                failures.append(bad)
    for n in range(1, 6):
        for f in enumerate_plain_forests(n, 2):
            bad = tree_integral_factorization_check(path, f)
            if bad:
                failures.append(bad)
    for sigma in all_perms(3):
        bad = fubini_matches_t_sigma(sigma, (1, 2, 3))
        if bad:
            failures.append(bad)
    worked = str(t_sigma_decorated(Perm.parse("231"), (1, 2, 3)))
    if worked != "-1[2,3]+1[2]|3":
        failures.append(f"Fubini expansion of (231) renders {worked!r}")
    _verdict(6, "exact iterated integrals of (1, 2x): character law, "
             "Chen, tree factorization (deg <= 5), simplex expansion",
             failures, time.monotonic() - start)


def _j_failures(path, max_len):
    """Both J routes compared, and J's Chen identity checked, on every
    two-letter word up to max_len."""
    failures = []
    for n in range(1, max_len + 1):
        for letters in itertools.product((1, 2), repeat=n):
            w = Word(letters)
            left = j_character(path, w)
            right = j_convolution(path, w)
            if left != right:
                failures.append(f"J routes disagree on {w} along {path}")
            chen = FreqExp.zero()
            for k in range(n + 1):
                chen = chen + (j_character(path, Word(letters[:k]), "t", "u")
                               * j_character(path, Word(letters[k:]),
                                             "u", "s"))
            if chen != left:
                failures.append(f"J Chen identity fails on {w} along {path}")
    return failures


def test_criterion_7_fourier_normal_ordering():
    start = time.monotonic()
    path = TrigPath.parse("1: 1@1\n2: 1@2")
    chi_char = Character(Shuffle(2), lambda w: chi(path, w),
                         FreqExp.one(), name="chi")
    failures = validate_character(chi_char, 4)
    failures += _j_failures(path, 5)
    failures += _j_failures(TrigPath.parse("1: 1@1, 1@2\n2: 1@10, 1@25"), 6)
    for bad in sector_sweep(cases=100, max_n=4, seed=20260816):
        failures.append(bad)
    _verdict(7, "Fourier normal ordering: chi character law, both J "
             "routes and J Chen to length 5 with one frequency per "
             "letter and to length 6 with two, seeded sector sweep",
             failures, time.monotonic() - start, budget=120.0)


def test_criterion_8_regularity_documented():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    failures = []
    text = readme.read_text(encoding="utf-8") if readme.exists() else ""
    text = " ".join(text.split())
    if "Hölder" not in text or "not machine-verified" not in text:
        failures.append("README does not document the unverified "
                        "regularity statement")
    _verdict(8, "the analytic regularity statement is documented as "
             "not machine-verified", failures)
