"""Exact coefficient arithmetic.

All computations in this library are exact identities over the rationals,
so every value type here is built on fractions.Fraction:

* GaussianRational: complex numbers with rational real and imaginary parts.
* MultiPoly: sparse multivariate polynomials over a fixed variable tuple.
* FreqExp: finite sums of complex exponentials exp(i(xi_t*t+xi_u*u+xi_s*s)).
* LinComb: rational linear combinations of hashable basis objects.

Nothing here ever touches floating point, and parse_power_sum and
parse_rational are the one reader of the rationals in any input text.

MultiPoly, FreqExp and LinComb are sparse sums: a terms dict from keys
to coefficients with no stored zero, over a space.  They share one
base, SparseSum (as does fourier.AtomMeasure), which owns the space and
defines +, -, negation, equality, hashing and truth once, on
Accumulator: the one in-place sum of scalar * value into one dict.
MultiPoly and FreqExp are commutative algebras over exponent keys and
share ExpSum, which defines the coercion of a scalar to a constant and
the product once.  MultiPoly and LinComb print through one text rule,
_signed_sum.

Every value is clean: each rational part, coefficient and frequency is
a Fraction (a LinComb coefficient is an int until a division happens,
that is until a Fraction scalar or summand meets it; equal int and
Fraction values compare, hash and print the same), every key of a
MultiPoly has the arity of its variable tuple and every key of a
FreqExp is a triple over (t, u, s), a LinComb's keys are any hashable
basis objects, and no stored term is zero.  Each type has one
public constructor, which establishes this from arbitrary input and
sums repeated keys.  Arithmetic on clean values yields clean parts, so
results are built by private constructors that check nothing:
_gaussian, and for every sparse sum the one builder _sparse(cls,
space, terms), which only drops the terms that cancelled.  _poly,
_freqexp and _lincomb are _sparse with the type, and the space None of
FreqExp and LinComb, filled in.  The only exception is
_nonzero_lincomb, which does not even look for cancelled terms: it
serves producers whose coefficients cannot be zero.  One is _unit_sum,
which builds the LinComb of a sum of basis objects, each with
coefficient 1: its coefficients are the ints that count the objects.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import partial
from operator import add

from .errors import ParseError
from .memo import Immutable

_ZERO = Fraction(0)
_ONE = Fraction(1)
_new = object.__new__


def _plus(a, b):
    """a + b for Fractions, without a Fraction operation when either is
    zero."""
    if not a:
        return b
    return a + b if b else a


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return parse_rational(x)
    raise TypeError(f"not an exact rational: {x!r}")


def _as_coeff(x):
    """A LinComb coefficient: an int stays an int, and anything else is
    made a Fraction as by _as_fraction."""
    return int(x) if isinstance(x, int) else _as_fraction(x)


# ---------------------------------------------------------------------------
# Reading exact rationals
# ---------------------------------------------------------------------------

# An unsigned rational: an integer, a decimal or p/q, in ASCII digits,
# which Fraction reads alike on every Python version.
_UNSIGNED = r"(?:[0-9]+(?:\.[0-9]*|/[0-9]+)?|\.[0-9]+)"
_RATIONAL = re.compile(rf"[+-]?{_UNSIGNED}")
# One term of a sum in a variable: a sign, a rational, an optional *,
# then the variable with an optional power.
_TERM = r"(?P<sign>[+-]?)(?P<coeff>{0})?(?P<star>\*)?" \
        r"(?P<var>{1}(?:\^(?P<power>[0-9]+))?)?"


def parse_rational(text):
    """One signed rational: an integer, a decimal or p/q, e.g. -7/11.
    Spaces are ignored."""
    s = text.replace(" ", "")
    if not _RATIONAL.fullmatch(s):
        raise ParseError(f"bad rational {text!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {text!r}") from None


def parse_power_sum(text, var, name):
    """A signed sum of rational multiples of powers of var, e.g.
    1/2*x^3 - x + 2 in x, as a dict from each power to its summed
    coefficient; error messages call the sum a name.  A term is an
    unsigned rational (as parse_rational reads it), an optional *, then
    var with an optional ^k; one of the rational and var may be left
    out, then with the *, and each term but the first starts with one
    sign.  Spaces are ignored."""
    s = text.replace(" ", "")
    if not s:
        raise ParseError(f"empty {name}")
    match = re.compile(_TERM.format(_UNSIGNED, re.escape(var))).match
    sums = {}
    pos = 0
    while pos < len(s):
        m = match(s, pos)
        if (not (m["coeff"] or m["var"]) or (pos and not m["sign"])
                or (m["star"] and not (m["coeff"] and m["var"]))):
            raise ParseError(f"bad {name} term {s[pos:]!r} in {text!r}")
        c = parse_rational(m["coeff"]) if m["coeff"] else _ONE
        k = int(m["power"] or 1) if m["var"] else 0
        sums[k] = sums.get(k, _ZERO) + (-c if m["sign"] == "-" else c)
        pos = m.end()
    return sums


# ---------------------------------------------------------------------------
# Gaussian rationals
# ---------------------------------------------------------------------------

class GaussianRational(Immutable):
    """A complex number re + im*i with rational re, im.

    Immutable; supports +, -, *, /, == with other GaussianRational values
    and with int / Fraction scalars.  Text form is "p/q+r/s*i" with the
    usual omissions (zero parts dropped, unit denominators and unit
    imaginary coefficients shortened).
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    def __add__(self, other):
        if isinstance(other, GaussianRational):
            return _gaussian(_plus(self.re, other.re),
                             _plus(self.im, other.im))
        if isinstance(other, (int, Fraction)):
            return _gaussian(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, GaussianRational):
            return _gaussian(self.re - other.re, self.im - other.im)
        if isinstance(other, (int, Fraction)):
            return _gaussian(self.re - other, self.im)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return _gaussian(other - self.re, -self.im)
        return NotImplemented

    def __neg__(self):
        return _gaussian(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            a, b, c, d = self.re, self.im, other.re, other.im
            # Most values on the Fourier side are real or imaginary.
            if not b:
                return _gaussian(a * c, a * d if d else d)
            if not a:
                return _gaussian(-(b * d) if d else d, b * c if c else c)
            if not d:
                return _gaussian(a * c, b * c)
            if not c:
                return _gaussian(-(b * d), a * d)
            return _gaussian(a * c - b * d, a * d + b * c)
        if isinstance(other, (int, Fraction)):
            a, b = self.re, self.im
            return _gaussian(a * other if a else a, b * other if b else b)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, GaussianRational):
            n = other.re * other.re + other.im * other.im
            if not n:
                raise ZeroDivisionError("division by zero Gaussian rational")
            return _gaussian((self.re * other.re + self.im * other.im) / n,
                             (self.im * other.re - self.re * other.im) / n)
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division by zero Gaussian rational")
            a, b = self.re, self.im
            return _gaussian(a / other if a else a, b / other if b else b)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return _gaussian(_as_fraction(other), _ZERO) / self
        return NotImplemented

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return GR_ONE / self ** (-k)
        out = GR_ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.re == other and not self.im
        return NotImplemented

    def __hash__(self):
        # a real value equals its real part, so it hashes as that part
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __str__(self):
        if not self.im:
            return str(self.re)
        if self.im == 1:
            imtext = "i"
        elif self.im == -1:
            imtext = "-i"
        else:
            imtext = f"{self.im}*i"
        if not self.re:
            return imtext
        sign = "+" if self.im > 0 else ""
        return f"{self.re}{sign}{imtext}"

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


_set_re = GaussianRational.re.__set__
_set_im = GaussianRational.im.__set__


def _gaussian(re, im):
    """Trusted constructor: re and im are already Fraction."""
    z = _new(GaussianRational)
    _set_re(z, re)
    _set_im(z, im)
    return z


GR_ZERO = GaussianRational(0, 0)
GR_ONE = GaussianRational(1, 0)
GR_I = GaussianRational(0, 1)


def parse_gaussian(text):
    """Parse "p/q+r/s*i" (and the shortened forms "3", "i", "-i", "1/2*i"):
    a sum in i, as parse_power_sum reads it, of powers 0 and 1 only."""
    sums = parse_power_sum(text, "i", "Gaussian rational")
    if not sums.keys() <= {0, 1}:
        raise ParseError(f"bad Gaussian rational {text!r}")
    return GaussianRational(sums.get(0, _ZERO), sums.get(1, _ZERO))


# ---------------------------------------------------------------------------
# Sparse sums
# ---------------------------------------------------------------------------

class SparseSum(Immutable):
    """A finite sum: ``terms`` maps keys to nonzero coefficients, over a
    ``space``: the variable tuple of a MultiPoly, the arity of a
    fourier.AtomMeasure, None for FreqExp and LinComb.

    Immutable.  Only sums of one type and space are added or compared
    equal.  Addition, subtraction, negation, equality, hashing, truth,
    _check (raise unless the argument is a summand of the same type and
    space), _with_terms (a sum in the space of self) and the default
    _coerce (an operand of the same type, else None) are defined here
    once, on Accumulator and the trusted constructor _sparse, and so is
    scalar * sum, as sum * scalar.  A subclass supplies _SCALARS (the
    scalars an Accumulator may scale a summand by) and may define
    __mul__; ExpSum widens _coerce to the scalars.
    """

    __slots__ = ("space", "terms")

    def _check(self, other):
        if not isinstance(other, type(self)):
            raise TypeError(f"not a summand of type {type(self).__name__}: "
                            f"{other!r}")
        if self.space != other.space:
            raise ValueError(f"{type(self).__name__} spaces differ: "
                             f"{self.space!r} vs {other.space!r}")

    def _with_terms(self, terms):
        return _sparse(type(self), self.space, terms)

    def _coerce(self, other):
        return other if isinstance(other, type(self)) else None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        total = Accumulator(self)
        total.add(other)
        return total.value()

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        total = Accumulator(self)
        total.add(other, -1)
        return total.value()

    def __rsub__(self, other):
        return (-self) + other

    def __rmul__(self, scalar):
        # scalars commute with every sum
        return self * scalar

    def __neg__(self):
        return self._with_terms({k: -c for k, c in self.terms.items()})

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.space == other.space and self.terms == other.terms

    def __hash__(self):
        return hash((self.space, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)


_set_space = SparseSum.space.__set__
_set_terms = SparseSum.terms.__set__


def _sparse(cls, space, terms):
    """Trusted constructor of a sparse sum of type cls over space: the
    keys and coefficients are already clean.  Takes ownership of the
    terms dict and drops its zero coefficients."""
    v = _new(cls)
    _set_space(v, space)
    _set_terms(v, _drop_zeros(terms))
    return v


def _pairs(terms):
    """The (key, coefficient) pairs of a dict or of an iterable of pairs."""
    if not terms:
        return ()
    return terms.items() if isinstance(terms, dict) else terms


def _merged(pairs):
    """A terms dict from (key, coefficient) pairs: repeated keys summed,
    zero sums dropped."""
    terms = {}
    get = terms.get
    for key, c in pairs:
        prev = get(key)
        terms[key] = c if prev is None else prev + c
    return _drop_zeros(terms)


def _drop_zeros(terms):
    """Delete the zero values of a dict in place; returns the dict.

    Deleting rehashes only the dropped keys, where building a filtered
    copy would rehash every key (a Fraction triple for FreqExp)."""
    for key in [key for key, c in terms.items() if not c]:
        del terms[key]
    return terms


class Accumulator:
    """A running sum of scalar * value over one space of sparse sums.

    The sum starts at ``start``, which also fixes its type and space.
    Each add folds the terms of one value into one dict in place;
    value() builds the sum once.
    """

    __slots__ = ("_start", "_terms")

    def __init__(self, start):
        self._start = start
        self._terms = dict(start.terms)

    def add(self, value, scalar=None):
        """Add scalar * value; no scalar means 1.  The scalar must be of
        the start's _SCALARS: rational for MultiPoly and LinComb, Gaussian
        rational too for FreqExp."""
        start = self._start
        start._check(value)
        terms = self._terms
        get = terms.get
        if scalar is None or scalar == 1:
            for key, c in value.terms.items():
                prev = get(key)
                terms[key] = c if prev is None else prev + c
        elif not isinstance(scalar, start._SCALARS):
            raise TypeError(f"bad scalar {scalar!r} for {start!r}")
        elif scalar == -1:
            for key, c in value.terms.items():
                prev = get(key)
                terms[key] = -c if prev is None else prev - c
        elif scalar:
            for key, c in value.terms.items():
                c = c * scalar
                prev = get(key)
                terms[key] = c if prev is None else prev + c

    def value(self):
        return self._start._with_terms(dict(self._terms))


def _signed_sum(pairs):
    """The text of a sum of (name, coefficient) pairs, in their order:
    each term is coefficient*name, a unit coefficient printed only by
    its sign and an empty name standing for 1; "0" for no pairs."""
    parts = []
    for name, c in pairs:
        a = abs(c)
        if not name:
            term = str(a)
        elif a == 1:
            term = name
        else:
            term = f"{a}*{name}"
        parts.append(("+" if c > 0 else "-") + term)
    text = "".join(parts)
    if not text:
        return "0"
    return text[1:] if text[0] == "+" else text


class ExpSum(SparseSum):
    """A sparse sum over exponent keys that is a commutative algebra:
    the product of two terms multiplies their coefficients and adds
    their keys componentwise.

    A scalar of _SCALARS is coerced to the constant term that
    _constant(scalar) builds, and multiplies each coefficient.  A
    subclass supplies _constant and _add_keys, the sum of two key
    components.
    """

    __slots__ = ()

    def _coerce(self, other):
        if isinstance(other, self._SCALARS):
            return self._constant(other)
        return other if isinstance(other, type(self)) else None

    def __mul__(self, other):
        if isinstance(other, self._SCALARS):
            return self._with_terms({k: c * other
                                     for k, c in self.terms.items()})
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check(other)
        add_keys = self._add_keys
        out = {}
        get = out.get
        right = other.terms.items()
        for k1, c1 in self.terms.items():
            for k2, c2 in right:
                k = tuple(map(add_keys, k1, k2))
                c = c1 * c2
                prev = get(k)
                out[k] = c if prev is None else prev + c
        return self._with_terms(out)

    __rmul__ = __mul__


# ---------------------------------------------------------------------------
# Sparse multivariate polynomials
# ---------------------------------------------------------------------------

class MultiPoly(ExpSum):
    """Sparse polynomial with Fraction coefficients over a fixed variable tuple.

    Terms map exponent tuples to nonzero coefficients.  The variable tuple
    is the space, part of the value; mixing polynomials over different
    variable tuples is an error.
    """

    __slots__ = ()

    def __init__(self, vars, terms=None):
        vars = tuple(vars)
        pairs = []
        for exp, c in _pairs(terms):
            c = _as_fraction(c)
            if c:
                exp = tuple(exp)
                if len(exp) != len(vars):
                    raise ValueError("exponent arity does not match variables")
                pairs.append((exp, c))
        _set_space(self, vars)
        _set_terms(self, _merged(pairs))

    @property
    def vars(self):
        return self.space

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, vars):
        return _poly(tuple(vars), {})

    @classmethod
    def const(cls, vars, c):
        vars = tuple(vars)
        return _poly(vars, {(0,) * len(vars): _as_fraction(c)})

    @classmethod
    def one(cls, vars):
        return cls.const(vars, _ONE)

    @classmethod
    def var(cls, vars, name):
        vars = tuple(vars)
        i = vars.index(name)
        exp = [0] * len(vars)
        exp[i] = 1
        return _poly(vars, {tuple(exp): _ONE})

    # -- ring operations ----------------------------------------------------

    _SCALARS = (int, Fraction)
    _add_keys = staticmethod(add)

    def _constant(self, c):
        return MultiPoly.const(self.space, c)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = MultiPoly.one(self.space)
        for _ in range(k):
            result = result * self
        return result

    # -- rendering -----------------------------------------------------------

    def _sorted_terms(self):
        # Graded lexicographic: total degree first, then exponents in the
        # declared variable order, largest first.
        return sorted(self.terms.items(),
                      key=lambda item: (sum(item[0]), item[0]),
                      reverse=True)

    def __str__(self):
        return _signed_sum(
            ("*".join((v if k == 1 else f"{v}^{k}")
                      for v, k in zip(self.vars, exp) if k), c)
            for exp, c in self._sorted_terms())

    def __repr__(self):
        return f"MultiPoly({self.vars!r}, {self.terms!r})"


# ---------------------------------------------------------------------------
# Finite exponential sums
# ---------------------------------------------------------------------------

FREQ_VARS = ("t", "u", "s")


class FreqExp(ExpSum):
    """Finite sum of c * exp(i*(xi_t*t + xi_u*u + xi_s*s)).

    Keys are triples of rational frequencies over the fixed variables
    (t, u, s); coefficients are GaussianRational.  Multiplication is
    convolution of supports (exponents add), so this is a commutative
    algebra with unit exp(0) = 1.
    """

    __slots__ = ()

    def __init__(self, terms=None):
        pairs = []
        for freq, c in _pairs(terms):
            if not isinstance(c, GaussianRational):
                c = GaussianRational(c, 0)
            if c:
                freq = tuple(_as_fraction(x) for x in freq)
                if len(freq) != 3:
                    raise ValueError("frequency vector must cover (t, u, s)")
                pairs.append((freq, c))
        _set_space(self, None)
        _set_terms(self, _merged(pairs))

    @classmethod
    def zero(cls):
        return _freqexp({})

    @classmethod
    def one(cls):
        return _freqexp({FREQ_ZERO: GR_ONE})

    @classmethod
    def exponential(cls, var, xi, coeff=GR_ONE):
        """coeff * exp(i*xi*var) for var in {t, u, s}."""
        freq = [Fraction(0)] * 3
        freq[FREQ_VARS.index(var)] = _as_fraction(xi)
        return cls({tuple(freq): coeff})

    _SCALARS = (int, Fraction, GaussianRational)
    # a zero frequency part costs no Fraction operation
    _add_keys = staticmethod(_plus)

    @staticmethod
    def _constant(c):
        return FreqExp({FREQ_ZERO: c})

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for freq in sorted(self.terms):
            c = self.terms[freq]
            phase = "+".join(
                f"{xi}·{v}" for v, xi in zip(FREQ_VARS, freq) if xi
            ).replace("+-", "-")
            if phase:
                parts.append(f"({c})·exp(i({phase}))")
            else:
                parts.append(f"({c})")
        return "+".join(parts)

    def __repr__(self):
        return f"FreqExp({self.terms!r})"


FREQ_ZERO = (_ZERO, _ZERO, _ZERO)


# ---------------------------------------------------------------------------
# Linear combinations
# ---------------------------------------------------------------------------

def _basis_key(b):
    """Deterministic sort key for basis objects, tensors included."""
    if isinstance(b, tuple):
        return tuple(_basis_key(x) for x in b)
    key = getattr(b, "sort_key", None)
    if key is not None:
        return key()
    return str(b)


class LinComb(SparseSum):
    """Finite linear combination of hashable basis objects over the
    rationals: a coefficient is an int until a division makes it a
    Fraction.

    The zero combination has no terms.  Basis objects are expected to be
    canonical: equality of combinations is coefficient-wise equality of
    the underlying maps.  The constructor takes a dict or an iterable of
    (basis, coefficient) pairs and sums repeated basis objects.
    """

    __slots__ = ()

    def __init__(self, terms=None):
        _set_space(self, None)
        _set_terms(self, _merged((b, _as_coeff(c))
                                 for b, c in _pairs(terms)))

    @classmethod
    def zero(cls):
        return _lincomb({})

    @classmethod
    def of(cls, basis, coeff=1):
        return _lincomb({basis: _as_coeff(coeff)})

    _SCALARS = (int, Fraction)

    def __mul__(self, scalar):
        c = _as_coeff(scalar)
        return _lincomb({b: v * c for b, v in self.terms.items()})

    def __len__(self):
        return len(self.terms)

    def items(self):
        return self.terms.items()

    def sorted_items(self):
        return sorted(self.terms.items(), key=lambda item: _basis_key(item[0]))

    def coeff(self, basis):
        return self.terms.get(basis, 0)

    def __str__(self):
        return _signed_sum((str(b), c) for b, c in self.sorted_items())

    def __repr__(self):
        return f"LinComb({self.terms!r})"


# The trusted constructors of the three sum types (see the module
# docstring).
_poly = partial(_sparse, MultiPoly)
_freqexp = partial(_sparse, FreqExp, None)
_lincomb = partial(_sparse, LinComb, None)


def _nonzero_lincomb(terms):
    """Trusted constructor for terms with no zero coefficient, such as
    counts or products of nonzero coefficients over distinct keys.
    Takes ownership of the terms dict and scans nothing."""
    v = _new(LinComb)
    _set_space(v, None)
    _set_terms(v, terms)
    return v


def _unit_sum(keys):
    """The LinComb sum of the basis objects in keys, each taken with
    coefficient 1: a key's coefficient is the number of times it
    occurs."""
    counts = {}
    get = counts.get
    for key in keys:
        counts[key] = get(key, 0) + 1
    return _nonzero_lincomb(counts)
