"""Exact coefficient arithmetic.

All computations in this library are exact identities over the rationals,
so every value type here is built on fractions.Fraction:

* GaussianRational: complex numbers with rational real and imaginary parts.
* MultiPoly: sparse multivariate polynomials over a fixed variable tuple.
* FreqExp: finite sums of complex exponentials exp(i(xi_t*t+xi_u*u+xi_s*s)).
* LinComb: rational linear combinations of hashable basis objects.

Nothing here ever touches floating point.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


# ---------------------------------------------------------------------------
# Gaussian rationals
# ---------------------------------------------------------------------------

class GaussianRational:
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

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @staticmethod
    def _coerce(x):
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(x, 0)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re * o.re - self.im * o.im,
                                self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational((self.re * o.re + self.im * o.im) / n,
                                (self.im * o.re - self.re * o.im) / n)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

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
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

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


GR_ZERO = GaussianRational(0, 0)
GR_ONE = GaussianRational(1, 0)
GR_I = GaussianRational(0, 1)


def parse_gaussian(text):
    """Parse "p/q+r/s*i" (and the shortened forms "3", "i", "-i", "1/2*i")."""
    s = text.replace(" ", "")
    if not s:
        raise ParseError("empty Gaussian rational")
    # Split into signed chunks at top level (no parentheses in this grammar).
    chunks = []
    start = 0
    for k, ch in enumerate(s):
        if ch in "+-" and k > start:
            chunks.append(s[start:k])
            start = k
    chunks.append(s[start:])
    re = Fraction(0)
    im = Fraction(0)
    for chunk in chunks:
        try:
            if chunk.endswith("i"):
                body = chunk[:-1]
                if body.endswith("*"):
                    body = body[:-1]
                if body in ("", "+"):
                    im += 1
                elif body == "-":
                    im -= 1
                else:
                    im += Fraction(body)
            else:
                re += Fraction(chunk)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad Gaussian rational {text!r}") from exc
    return GaussianRational(re, im)


# ---------------------------------------------------------------------------
# Sparse multivariate polynomials
# ---------------------------------------------------------------------------

class MultiPoly:
    """Sparse polynomial with Fraction coefficients over a fixed variable tuple.

    Terms map exponent tuples to nonzero coefficients.  The variable tuple
    is part of the value; mixing polynomials over different variable tuples
    is an error (use with_vars to embed).
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms=None):
        object.__setattr__(self, "vars", tuple(vars))
        clean = {}
        if terms:
            for exp, c in (terms.items() if isinstance(terms, dict) else terms):
                c = _as_fraction(c)
                if not c:
                    continue
                exp = tuple(exp)
                if len(exp) != len(self.vars):
                    raise ValueError("exponent arity does not match variables")
                clean[exp] = clean.get(exp, Fraction(0)) + c
                if not clean[exp]:
                    del clean[exp]
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, vars):
        return cls(vars, {})

    @classmethod
    def const(cls, vars, c):
        vars = tuple(vars)
        return cls(vars, {(0,) * len(vars): _as_fraction(c)})

    @classmethod
    def one(cls, vars):
        return cls.const(vars, 1)

    @classmethod
    def var(cls, vars, name):
        vars = tuple(vars)
        i = vars.index(name)
        exp = [0] * len(vars)
        exp[i] = 1
        return cls(vars, {tuple(exp): Fraction(1)})

    # -- ring operations ----------------------------------------------------

    def _check(self, other):
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.vars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            terms[exp] = terms.get(exp, Fraction(0)) + c
        return MultiPoly(self.vars, terms)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            return MultiPoly(self.vars, {e: v * c for e, v in self.terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return MultiPoly(self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = MultiPoly.one(self.vars)
        for _ in range(k):
            result = result * self
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.vars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- calculus and substitution ------------------------------------------

    def antiderivative(self, name):
        """Antiderivative in the named variable, zero constant term."""
        i = self.vars.index(name)
        out = {}
        for exp, c in self.terms.items():
            e = list(exp)
            e[i] += 1
            out[tuple(e)] = c / e[i]
        return MultiPoly(self.vars, out)

    def subst_var(self, src, dst):
        """Substitute variable src by variable dst (dst already declared)."""
        i = self.vars.index(src)
        j = self.vars.index(dst)
        out = {}
        for exp, c in self.terms.items():
            e = list(exp)
            e[j] += e[i]
            e[i] = 0
            key = tuple(e)
            out[key] = out.get(key, Fraction(0)) + c
        return MultiPoly(self.vars, out)

    def rename_var(self, src, dst):
        """Rename variable src to dst (dst must be fresh)."""
        if dst in self.vars:
            raise ValueError(f"{dst} already declared; use subst_var")
        i = self.vars.index(src)
        vars = list(self.vars)
        vars[i] = dst
        return MultiPoly(tuple(vars), dict(self.terms))

    def with_vars(self, vars):
        """Embed into the polynomial ring over a larger variable tuple."""
        vars = tuple(vars)
        idx = [vars.index(v) for v in self.vars]
        out = {}
        for exp, c in self.terms.items():
            e = [0] * len(vars)
            for pos, k in zip(idx, exp):
                e[pos] = k
            out[tuple(e)] = c
        return MultiPoly(vars, out)

    def eval(self, values):
        """Evaluate at a dict name -> Fraction; returns a Fraction."""
        total = Fraction(0)
        for exp, c in self.terms.items():
            v = c
            for name, k in zip(self.vars, exp):
                if k:
                    v *= _as_fraction(values[name]) ** k
            total += v
        return total

    # -- rendering -----------------------------------------------------------

    def _sorted_terms(self):
        # Graded lexicographic: total degree first, then exponents in the
        # declared variable order, largest first.
        return sorted(self.terms.items(),
                      key=lambda item: (sum(item[0]), item[0]),
                      reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exp, c in self._sorted_terms():
            mono = "*".join(
                (v if k == 1 else f"{v}^{k}")
                for v, k in zip(self.vars, exp) if k
            )
            if not mono:
                text = str(abs(c))
            elif abs(c) == 1:
                text = mono
            else:
                text = f"{abs(c)}*{mono}"
            if not parts:
                parts.append(text if c > 0 else "-" + text)
            else:
                parts.append(("+" if c > 0 else "-") + text)
        return "".join(parts)

    def __repr__(self):
        return f"MultiPoly({self.vars!r}, {self.terms!r})"


# ---------------------------------------------------------------------------
# Finite exponential sums
# ---------------------------------------------------------------------------

FREQ_VARS = ("t", "u", "s")


class FreqExp:
    """Finite sum of c * exp(i*(xi_t*t + xi_u*u + xi_s*s)).

    Keys are triples of rational frequencies over the fixed variables
    (t, u, s); coefficients are GaussianRational.  Multiplication is
    convolution of supports (exponents add), so this is a commutative
    algebra with unit exp(0) = 1.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for freq, c in (terms.items() if isinstance(terms, dict) else terms):
                if not isinstance(c, GaussianRational):
                    c = GaussianRational(c, 0)
                if not c:
                    continue
                freq = tuple(_as_fraction(x) for x in freq)
                if len(freq) != 3:
                    raise ValueError("frequency vector must cover (t, u, s)")
                prev = clean.get(freq)
                c = c if prev is None else prev + c
                if c:
                    clean[freq] = c
                elif freq in clean:
                    del clean[freq]
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("FreqExp is immutable")

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def one(cls):
        return cls({(Fraction(0), Fraction(0), Fraction(0)): GR_ONE})

    @classmethod
    def exponential(cls, var, xi, coeff=GR_ONE):
        """coeff * exp(i*xi*var) for var in {t, u, s}."""
        freq = [Fraction(0)] * 3
        freq[FREQ_VARS.index(var)] = _as_fraction(xi)
        return cls({tuple(freq): coeff})

    @staticmethod
    def _coerce(x):
        if isinstance(x, FreqExp):
            return x
        if isinstance(x, (int, Fraction, GaussianRational)):
            z = (Fraction(0), Fraction(0), Fraction(0))
            return FreqExp({z: x})
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = dict(self.terms)
        for f, c in o.terms.items():
            prev = terms.get(f)
            c = c if prev is None else prev + c
            if c:
                terms[f] = c
            elif f in terms:
                del terms[f]
        out = FreqExp.__new__(FreqExp)
        object.__setattr__(out, "terms", terms)
        return out

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        out = FreqExp.__new__(FreqExp)
        object.__setattr__(out, "terms", {f: -c for f, c in self.terms.items()})
        return out

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = {}
        for f1, c1 in self.terms.items():
            for f2, c2 in o.terms.items():
                f = (f1[0] + f2[0], f1[1] + f2[1], f1[2] + f2[2])
                c = c1 * c2
                prev = out.get(f)
                c = c if prev is None else prev + c
                if c:
                    out[f] = c
                elif f in out:
                    del out[f]
        result = FreqExp.__new__(FreqExp)
        object.__setattr__(result, "terms", out)
        return result

    __rmul__ = __mul__

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

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


class LinComb:
    """Finite linear combination of hashable basis objects over Fraction.

    The zero combination has no terms.  Basis objects are expected to be
    canonical: equality of combinations is coefficient-wise equality of
    the underlying maps.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for b, c in (terms.items() if isinstance(terms, dict) else terms):
                c = _as_fraction(c)
                if not c:
                    continue
                prev = clean.get(b)
                c = c if prev is None else prev + c
                if c:
                    clean[b] = c
                elif b in clean:
                    del clean[b]
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("LinComb is immutable")

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def of(cls, basis, coeff=1):
        return cls({basis: coeff})

    def __add__(self, other):
        if not isinstance(other, LinComb):
            return NotImplemented
        terms = dict(self.terms)
        for b, c in other.terms.items():
            prev = terms.get(b)
            c = c if prev is None else prev + c
            if c:
                terms[b] = c
            elif b in terms:
                del terms[b]
        out = LinComb.__new__(LinComb)
        object.__setattr__(out, "terms", terms)
        return out

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        out = LinComb.__new__(LinComb)
        object.__setattr__(out, "terms", {b: -c for b, c in self.terms.items()})
        return out

    def __mul__(self, scalar):
        c = _as_fraction(scalar)
        if not c:
            return LinComb.zero()
        out = LinComb.__new__(LinComb)
        object.__setattr__(out, "terms", {b: v * c for b, v in self.terms.items()})
        return out

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, LinComb):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def items(self):
        return self.terms.items()

    def sorted_items(self):
        return sorted(self.terms.items(), key=lambda item: _basis_key(item[0]))

    def coeff(self, basis):
        return self.terms.get(basis, Fraction(0))

    def support(self):
        return set(self.terms)

    def apply(self, f):
        """Linear extension of a basis map f: basis -> LinComb."""
        total = LinComb.zero()
        for b, c in self.terms.items():
            total = total + c * f(b)
        return total

    def render(self, fmt=str):
        if not self.terms:
            return "0"
        parts = []
        for b, c in self.sorted_items():
            text = fmt(b)
            if abs(c) != 1:
                text = f"{abs(c)}*{text}"
            if not parts:
                parts.append(text if c > 0 else "-" + text)
            else:
                parts.append(("+" if c > 0 else "-") + text)
        return "".join(parts)

    __str__ = render

    def __repr__(self):
        return f"LinComb({self.terms!r})"
