"""Characters on the Hopf structures and exact iterated integrals.

A character is an algebra map from one structure into a commutative
value algebra (exact polynomials or trigonometric sums). Convolution
and inverse go through the coproduct and antipode of the structure.

Iterated integrals of polynomial paths are computed symbolically in
the endpoint variables; the tree version integrates children jointly.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .coeffs import MultiPoly, Accumulator, _poly
from .errors import ParseError, StructureMismatchError
from .words import Word, Path
from .memo import Memo
from .morphisms import (theta_small, t_sigma_decorated, t_sigma_by_matrix,
                        decorate_by_order)


class Character:
    """Linear character of a Hopf structure with values in a
    commutative algebra of MultiPoly or FreqExp values; fn maps basis
    elements to values and is called on every evaluation."""

    def __init__(self, structure, fn, one, name="chi"):
        self.structure = structure
        self.fn = fn
        self.one = one
        self.zero = one - one
        self.name = name

    def __call__(self, b):
        return self.fn(b)

    def eval_lin(self, lc):
        total = Accumulator(self.zero)
        for b, c in lc.items():
            total.add(self(b), c)
        return total.value()


def convolve(phi, psi):
    """(phi * psi)(x) = sum phi(x') psi(x'') over the coproduct."""
    if not phi.structure.same_structure(psi.structure):
        raise StructureMismatchError(
            f"cannot convolve over {phi.structure!r} and {psi.structure!r}")
    H = phi.structure

    def fn(b):
        total = Accumulator(phi.zero)
        for (x, y), c in H.coproduct(b).items():
            total.add(phi(x) * psi(y), c)
        return total.value()

    return Character(H, fn, phi.one, name=f"{phi.name}*{psi.name}")


def char_inverse(phi):
    """Convolution inverse phi o S."""
    H = phi.structure

    def fn(b):
        return phi.eval_lin(H.antipode(b))

    return Character(H, fn, phi.one, name=f"{phi.name}^-1")


def validate_character(phi, max_degree):
    """Exhaustively check multiplicativity up to a total degree.

    Returns the list of failures (empty when the character law holds).
    """
    H = phi.structure
    failures = []
    if phi(H.unit()) != phi.one:
        failures.append("unit is not sent to 1")
    layers = {n: H.basis(n) for n in range(1, max_degree + 1)}
    for n1 in range(1, max_degree):
        for n2 in range(1, max_degree - n1 + 1):
            for b1 in layers[n1]:
                for b2 in layers[n2]:
                    lhs = phi(b1) * phi(b2)
                    rhs = phi.eval_lin(H.product(b1, b2))
                    if lhs != rhs:
                        failures.append(
                            f"{phi.name}({b1}){phi.name}({b2}) != "
                            f"{phi.name}({b1}.{b2})")
    return failures


# ---------------------------------------------------------------------------
# Polynomial driving paths
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(
    r"^(?P<coeff>[+-]?\d+(?:/\d+)?|[+-])?(?:(?<=\d)\*)?"
    r"(?P<var>x(?:\^(?P<exp>\d+))?)?$")


class PolyPath(Path):
    """Derivative components of a polynomial path, one per letter;
    component lines read 'i: polynomial in x'."""

    __slots__ = ()

    @staticmethod
    def _parse_body(text):
        """One polynomial in x with rational coefficients, e.g.
        1 - 2*x + x^2."""
        chunks = re.findall(r"[+-]?[^+-]+", text.replace(" ", ""))
        if not chunks:
            raise ParseError(f"empty polynomial in {text!r}")
        terms = []
        for chunk in chunks:
            m = _TERM_RE.match(chunk)
            if not m or (m.group("coeff") is None and m.group("var") is None):
                raise ParseError(f"bad polynomial term {chunk!r}")
            coeff = m.group("coeff")
            if coeff in (None, "+", "-"):
                c = Fraction((coeff or "") + "1")
            else:
                try:
                    c = Fraction(coeff)
                except ZeroDivisionError:
                    raise ParseError(
                        f"zero denominator in {chunk!r}") from None
            exp = int(m.group("exp") or 1) if m.group("var") else 0
            terms.append(((exp,), c))
        return MultiPoly(("x",), terms)


def _retime(poly_ts, hi, lo, vars=("t", "s")):
    """Move a polynomial in (t, s) into the given variables, reading
    t as hi and s as lo."""
    ih, il = vars.index(hi), vars.index(lo)
    out = {}
    for (et, es), c in poly_ts.terms.items():
        exp = [0] * len(vars)
        exp[ih] += et
        exp[il] += es
        out[tuple(exp)] = c
    return _poly(vars, out)


def _integral_from_s(gamma, inner):
    """The integral from s to t of gamma(x) inner(x, s) dx.

    gamma is a path component in ("x",); inner and the result are in
    ("t", "s").  With k = i + e + 1 the monomial t^i s^j times x^e
    integrates to (t^k s^j - s^(k+j)) / k, so the products are summed
    per key (k, j) first and each sum is divided once."""
    sums = {}
    get = sums.get
    right = inner.terms.items()
    for (e,), a in gamma.terms.items():
        for (i, j), c in right:
            key = (i + e + 1, j)
            prev = get(key)
            sums[key] = c * a if prev is None else prev + c * a
    out = {}
    low = out.get
    for (k, j), c in sums.items():
        q = c / k
        out[k, j] = q
        prev = low((0, k + j))
        out[0, k + j] = -q if prev is None else prev - q
    return _poly(("t", "s"), out)


def _word_integral(key):
    """Innermost letter is the last one; each step multiplies by the
    derivative of the next component outward and integrates from s."""
    path, word = key
    value = MultiPoly.one(("t", "s"))
    for letter in reversed(word.letters):
        value = _integral_from_s(path.component(letter), value)
    return value


# Memo of iter_int_word: at about 1.2 kB an entry (words up to length 6
# over the path (1, 2x)) the cap keeps it near 5 MB.
_WORD_INTEGRAL_MEMO = Memo(1 << 12, _word_integral)


def iter_int_word(path, word):
    """Iterated integral of the path along a word, in variables (t, s),
    memoized per (path, word)."""
    return _WORD_INTEGRAL_MEMO[path, word]


def iter_int_tree(path, forest):
    """Skeleton integral of a plain forest: children integrate jointly
    below their parent. Values in (t, s)."""

    def tree_factor(tree):
        # the integral up to the parent's time, which takes the place of t
        inner = MultiPoly.one(("t", "s"))
        for child in tree.children:
            inner = inner * tree_factor(child)
        return _integral_from_s(path.component(tree.dec), inner)

    total = MultiPoly.one(("t", "s"))
    for tree in forest.trees:
        total = total * tree_factor(tree)
    return total


def iter_int_char(path, structure):
    """The iterated-integral character on the shuffle structure."""
    return Character(structure, lambda w: iter_int_word(path, w),
                     MultiPoly.one(("t", "s")), name="I")


def tree_integral_factorization_check(path, forest):
    """Itree(F) must equal I(theta_small(F))."""
    lhs = iter_int_tree(path, forest)
    rhs = Accumulator(MultiPoly.zero(("t", "s")))
    for w, c in theta_small(forest).items():
        rhs.add(iter_int_word(path, w), c)
    if lhs != rhs.value():
        return f"tree integral does not factor through words on {forest}"
    return None


def chen_check(path, word):
    """I^{(t,s)}(w) = sum_k I^{(t,u)}(w_1) I^{(u,s)}(w_2), trivariate."""
    tus = ("t", "u", "s")
    lhs = _retime(iter_int_word(path, word), "t", "s", tus)
    rhs = Accumulator(MultiPoly.zero(tus))
    for k in range(len(word) + 1):
        left = _retime(iter_int_word(path, Word(word.letters[:k])),
                       "t", "u", tus)
        right = _retime(iter_int_word(path, Word(word.letters[k:])),
                        "u", "s", tus)
        rhs.add(left * right)
    if lhs != rhs.value():
        return f"Chen identity fails on {word}"
    return None


# ---------------------------------------------------------------------------
# The Fubini rewriting of a simplex integral into trees
# ---------------------------------------------------------------------------

def fubini_matches_t_sigma(sigma, letters):
    """The simplex integral along sigma, expanded into decorated forests
    (t_sigma_decorated: each choice of upper bounds is a choice of
    parents), against T^sigma by back substitution in ThetaMatrix."""
    lhs = t_sigma_decorated(sigma, letters, sigma.n)
    rhs = decorate_by_order(t_sigma_by_matrix(sigma), letters, sigma.n)
    if lhs != rhs:
        return f"Fubini expansion disagrees with T^{sigma} on {letters}"
    return None
