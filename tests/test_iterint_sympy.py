"""Exact iterated integrals of polynomial paths against sympy.

sympy integrates each step on its own, from s to the next variable
out, so these tests share nothing with the library's integration step
but the path.  The cases are drawn from a fixed seed: 1-3 letters,
components of degree at most 3 with small nonzero rational
coefficients, and words of length 1-4 and plain forests of 1-4
vertices, each size in turn.
"""

import random
from fractions import Fraction

import pytest

from foresthopf.characters import PolyPath, iter_int_tree, iter_int_word
from foresthopf.coeffs import MultiPoly
from foresthopf.forests import enumerate_plain_forests
from foresthopf.words import Word

sympy = pytest.importorskip("sympy")

T, S, X = sympy.symbols("t s x")
CASES = 8


def random_path(rng):
    components = []
    for _ in range(rng.randint(1, 3)):
        degrees = rng.sample(range(4), rng.randint(1, 3))
        components.append(MultiPoly(("x",), {
            (e,): Fraction(rng.choice([-3, -2, -1, 1, 2, 3]),
                           rng.randint(1, 4))
            for e in degrees}))
    return PolyPath(components)


def word_cases(seed):
    rng = random.Random(seed)
    for i in range(CASES):
        path = random_path(rng)
        yield path, Word(rng.choices(range(1, path.d + 1), k=1 + i % 4))


def forest_cases(seed):
    rng = random.Random(seed)
    for i in range(CASES):
        path = random_path(rng)
        yield path, rng.choice(enumerate_plain_forests(1 + i % 4, path.d))


def to_sympy(poly, names):
    return sum((sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*(v ** k for v, k in zip(names, exp)))
                for exp, c in poly.terms.items()), sympy.Integer(0))


def from_s(path, letter, inner):
    """The integral from s to x of the letter's component times inner,
    both functions of x."""
    y = sympy.Dummy("y")
    integrand = to_sympy(path.component(letter), (y,)) * inner.subs(X, y)
    return sympy.integrate(integrand, (y, S, X))


def sympy_word(path, word):
    inner = sympy.Integer(1)
    for letter in reversed(word.letters):
        inner = from_s(path, letter, inner)
    return inner.subs(X, T)


def sympy_tree(path, tree):
    inner = sympy.Mul(*(sympy_tree(path, child) for child in tree.children))
    return from_s(path, tree.dec, inner)


def assert_same(poly, expected):
    assert poly.vars == ("t", "s")
    assert sympy.expand(to_sympy(poly, (T, S)) - expected) == 0


def test_words_match_sympy():
    for path, word in word_cases(20100427):
        assert_same(iter_int_word(path, word), sympy_word(path, word))


def test_forests_match_sympy():
    for path, forest in forest_cases(20100428):
        expected = sympy.Mul(*(sympy_tree(path, tree)
                               for tree in forest.trees))
        assert_same(iter_int_tree(path, forest), expected.subs(X, T))
