"""Formal rough paths over trigonometric polynomials.

A path component is a finite sum of amplitudes at frequencies; a word
of letters then carries an atom measure, one atom per choice of
frequency in each component. Each atom is split into its magnitude
sector: the permutation that sorts coordinates by increasing absolute
frequency. Ties between distinct frequencies of equal magnitude stay
outside the theory and raise; repeats of one frequency sort stably by
position, which leaves every sector value unchanged.

Characters are evaluated on heap-ordered forests through skeleton
integrals: each vertex contributes 1/(i Xi_v) where Xi_v sums all
frequencies at and above the vertex. The degree-n character chi comes
out of the sector decomposition through the inverse elements T^sigma,
and the two-endpoint object J is assembled either from chi by
convolution or directly from the forest antipode; both routes agree.

chi reads T^sigma through morphisms.t_sigma, whose memo is its one
store, and expands sectors in t alone: chi in u or s is chi in t with
each phase moved into that variable's slot.  The forest route reads
one table per sector sigma, built once: the merged cuts of T^sigma as
flat tuples of parent tuples, so no forest is built per atom.  Each
measure is scaled by one L, the least common multiple of its frequency
denominators (J takes the word measure's), so every Xi_v is an int
and each atom's rationals are summed as integer fractions.  The
weights c / prod Xi_v and sbar_eval are homogeneous of degree -n in
the frequencies, so each atom's sum is multiplied by L^n once, and
each phase, linear in them, is divided by L.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

from .coeffs import (GaussianRational, GR_ONE, GR_I, FreqExp, FREQ_VARS,
                     FREQ_ZERO, LinComb, SparseSum, Accumulator, _freqexp,
                     parse_gaussian, parse_rational, _as_fraction, _merged,
                     _pairs, _set_space, _set_terms, _sparse, _ZERO, _ONE)
from .errors import ParseError, SingularAtomError, MagnitudeTieError
from .words import Word, Path
from .perms import Perm, _perm, all_perms, shuffles
from .forests import _ordered, _cut_shapes, act
from .morphisms import t_sigma, _check_bound, _HEAP, DEFAULT_BOUND
from .hopf import Shuffle
from .memo import Memo
from .characters import Character, convolve, char_inverse

GR_MINUS_I = GaussianRational(0, -1)
# (-i)^n is _TURNS[n % 4]
_TURNS = (GR_ONE, GR_MINUS_I, -GR_ONE, GR_I)


# ---------------------------------------------------------------------------
# Trigonometric paths and atom measures
# ---------------------------------------------------------------------------

class TrigPath(Path):
    """Derivative components as finite frequency/amplitude sums;
    component lines read 'i: amp@freq, amp@freq, ...'."""

    __slots__ = ()

    def __init__(self, components):
        comps = []
        for comp in components:
            entries = tuple((_as_fraction(f),
                             a if isinstance(a, GaussianRational)
                             else GaussianRational(a)) for f, a in comp)
            if len({f for f, _ in entries}) != len(entries):
                raise ParseError("repeated frequency inside one component")
            comps.append(entries)
        super().__init__(comps)

    @staticmethod
    def _parse_body(body):
        """One component: comma-separated amp@freq entries."""
        entries = []
        for piece in body.split(","):
            piece = piece.strip()
            if "@" not in piece:
                raise ParseError(f"expected amp@freq, got {piece!r}")
            amp_text, _, freq_text = piece.partition("@")
            entries.append((parse_rational(freq_text.strip()),
                            parse_gaussian(amp_text.strip())))
        return entries


class AtomMeasure(SparseSum):
    """Finite sum of atoms of one arity, merged by frequency vector.

    A sparse sum: terms map length-n frequency vectors to nonzero
    GaussianRational amplitudes, and the arity n is the space, part of
    the value.  The constructor takes a dict or an iterable of
    (frequency vector, amplitude) pairs and sums repeated vectors; the
    library builds measures of clean parts through coeffs._sparse."""

    __slots__ = ()

    def __init__(self, n, terms=None):
        pairs = []
        for freq, amp in _pairs(terms):
            freq = tuple([_as_fraction(f) for f in freq])
            if len(freq) != n:
                raise ValueError("mixed arities inside one measure")
            if not isinstance(amp, GaussianRational):
                amp = GaussianRational(amp)
            pairs.append((freq, amp))
        _set_space(self, n)
        _set_terms(self, _merged(pairs))

    @property
    def n(self):
        return self.space

    _SCALARS = (int, Fraction, GaussianRational)

    def compose(self, eps):
        """Coordinates xi o eps on every atom: position j reads
        xi_{eps(j)}.  A bijection of keys, so nothing merges."""
        return _sparse(AtomMeasure, self.space,
                       {tuple([freq[p - 1] for p in eps.word]): amp
                        for freq, amp in self.terms.items()})

    def tensor(self, other):
        """The product measure: frequency vectors concatenated and
        amplitudes multiplied, over every pair of atoms (distinct keys)."""
        right = other.terms.items()
        return _sparse(AtomMeasure, self.space + other.space,
                       {f1 + f2: a1 * a2 for f1, a1 in self.terms.items()
                        for f2, a2 in right})

    def __repr__(self):
        return f"AtomMeasure({self.n}, {sorted(self.terms.items())})"


def word_measure(path, word):
    """Product measure of the path components along a word.

    The frequencies of one component are distinct, so no two atoms
    share a frequency vector."""
    terms = {(): GR_ONE}
    for letter in word.letters:
        component = [(f, a) for f, a in path.component(letter) if a]
        terms = {freq + (f,): amp * a
                 for freq, amp in terms.items() for f, a in component}
    return _sparse(AtomMeasure, len(word), terms)


# ---------------------------------------------------------------------------
# Sector decomposition
# ---------------------------------------------------------------------------

def sector_of(freq):
    """The permutation sorting coordinates by increasing magnitude.

    Equal magnitudes are admitted only for equal frequencies (sorted
    stably by position, which cannot change any downstream value);
    distinct frequencies of equal magnitude raise MagnitudeTieError.
    """
    mags = [abs(f) for f in freq]
    order = sorted(range(1, len(freq) + 1), key=lambda p: (mags[p - 1], p))
    for a, b in zip(order, order[1:]):
        fa, fb = freq[a - 1], freq[b - 1]
        if mags[a - 1] == mags[b - 1] and fa != fb:
            raise MagnitudeTieError(
                f"frequencies {fa} and {fb} share a magnitude")
    return _perm(tuple(order))


def split_measure(mu):
    """The measure split by sector: sigma maps to the AtomMeasure of the
    atoms of sector sigma, each with its coordinates sorted by sigma.
    Only nonempty sectors are listed.

    Sorting is a bijection for a fixed sector, so distinct atoms stay
    distinct and no amplitudes merge."""
    pieces = {}
    for freq, amp in mu.terms.items():
        sigma = sector_of(freq)
        terms = pieces.get(sigma)
        if terms is None:
            terms = pieces[sigma] = {}
        terms[tuple([freq[p - 1] for p in sigma.word])] = amp
    return {sigma: _sparse(AtomMeasure, mu.space, terms)
            for sigma, terms in pieces.items()}


# ---------------------------------------------------------------------------
# Skeleton integrals
# ---------------------------------------------------------------------------

def _shape(parent):
    """The undecorated ordered forest with these parents, for messages."""
    return _ordered(parent, (1,) * len(parent))


def _xi_product(parent, freq):
    """The product of the Xi_v over the vertices of a heap-ordered
    forest, given by its parent tuple, and the sum of all frequencies.

    One pass over v = n, ..., 1: every vertex comes after its parent,
    so Xi_v is complete when v is reached and is then added into its
    parent's.  Raises on a vanishing Xi_v, and on a vertex whose parent
    comes after it."""
    xi = list(freq)
    product = 1
    total = 0
    for v in range(len(parent), 0, -1):
        p = parent[v - 1]
        if p >= v:
            raise ValueError(f"{_shape(parent)} is not heap-ordered")
        x = xi[v - 1]
        if not x:
            raise SingularAtomError(
                f"frequency sum vanishes at vertex {v} of {_shape(parent)}")
        product *= x
        if p:
            xi[p - 1] += x
        else:
            total += x
    return product, total


def _skeleton_term(n, q, xi, var):
    """(-i)^n q exp(i xi var): the skeleton value of a degree-n forest
    whose vertex factors 1/(i Xi_v) multiply to (-i)^n q."""
    k = FREQ_VARS.index(var)
    return _freqexp({FREQ_ZERO[:k] + (xi,) + FREQ_ZERO[k + 1:]:
                     _TURNS[n % 4] * q})


def _scale(mu):
    """L, the least common multiple of the frequency denominators of a
    measure."""
    return lcm(*{f.denominator for freq in mu.terms for f in freq})


def _integer_atoms(mu, scale):
    """The atoms of a measure as (frequencies times scale, amplitude),
    for a scale that every frequency denominator divides: the
    frequencies become ints."""
    for freq, amp in mu.terms.items():
        yield (tuple([f.numerator * (scale // f.denominator) for f in freq]),
               amp)


def _phi(forests, measure, var):
    """phi^var of the combination of (forest, coefficient) pairs, all of
    the measure's degree n and at least one, against the measure.

    Against one atom every forest has the same phase, so its value is
    (-i)^n exp(i Xi var) times the sum of c / prod Xi_v over the
    forests, found at the scaled atom as one integer fraction."""
    n = measure.n
    scale = _scale(measure)
    total = Accumulator(FreqExp.zero())
    for freq, amp in _integer_atoms(measure, scale):
        num, den = 0, 1
        for f, c in forests:
            product, xi = _xi_product(f.parent, freq)
            num = num * product + c * den
            den *= product
        total.add(_skeleton_term(n, Fraction(num * scale ** n, den),
                                 Fraction(xi, scale), var), amp)
    return total.value()


def phi_lin(lc, measure, var="t"):
    """Evaluate a LinComb of heap forests against a measure."""
    if not lc or not measure:
        return FreqExp.zero()
    if any(f.n != measure.n for f in lc.terms):
        raise ValueError("frequency vector must match the forest size")
    return _phi(lc.items(), measure, var)


# ---------------------------------------------------------------------------
# Sector tables
# ---------------------------------------------------------------------------

def _build_sector_cuts(sigma):
    """The cuts of _sector_cuts, whose caller checked the bound."""
    merged = {}
    for f, c in t_sigma(sigma, sigma.n).items():
        for cut in _cuts(f.parent):
            merged[cut] = merged.get(cut, 0) + c
    return tuple([cut + (c,) for cut, c in merged.items() if c])


# Memos of the merged cuts of each sigma and of the cuts of each forest
# shape: every permutation and every shape up to degree 6 fits (874 of
# each), in about 11 MB.
_SECTOR_MEMO = Memo(1 << 10, _build_sector_cuts)
_CUTS_MEMO = Memo(1 << 12, lambda parent: tuple(_cut_shapes(parent)))


def _cuts(parent):
    """The cuts of the forest shape with these parents, as (roo
    parent, roo_at, lea parent, lea_at) tuples from _cut_shapes."""
    return _CUTS_MEMO[parent]


def _sector_cuts(sigma, bound):
    """The cuts of T^sigma merged into (roo parent, roo_at, lea parent,
    lea_at, coefficient) tuples in the order first met, cancelled ones
    left out.  The bound is checked on every call."""
    _check_bound(sigma.n, bound)
    return _SECTOR_MEMO[sigma]


# ---------------------------------------------------------------------------
# The characters chi and the two-endpoint object J
# ---------------------------------------------------------------------------

def chi_measure(nu, var="t", bound=DEFAULT_BOUND):
    """chi against an explicit measure: sector split through T^sigma."""
    total = Accumulator(FreqExp.zero())
    for sigma, piece in split_measure(nu).items():
        total.add(_phi(t_sigma(sigma, bound).items(), piece, var))
    return total.value()


def _chi_value(key):
    """chi of a (path, word, variable) key, whose caller checked the
    bound.  The sector expansion runs in t alone: in another variable
    chi is chi in t with each phase moved into that variable's slot."""
    path, word, var = key
    if var == "t":
        return chi_measure(word_measure(path, word), "t", len(word))
    k = FREQ_VARS.index(var)
    return _freqexp({FREQ_ZERO[:k] + phase[:1] + FREQ_ZERO[k + 1:]: c
                     for phase, c in _CHI_MEMO[path, word, "t"].terms.items()})


# Memo of chi: at about 3 kB an entry the cap keeps it near 12 MB.  J
# by characters of every word up to length 5 over two frequencies per
# letter stores 126 entries, one sector expansion for each of the 63
# words.
_CHI_MEMO = Memo(1 << 12, _chi_value)


def chi(path, word, var="t", bound=DEFAULT_BOUND):
    """The degree-n character of the path along a word.

    Memoized per (path, word, variable).  The bound is checked on every
    call, so a memoized word still refuses a lower bound."""
    _check_bound(len(word), bound)
    return _CHI_MEMO[path, word, var]


def _sbar_value(key):
    """sbar_eval of a nonempty (parent, freq) key."""
    parent, freq = key
    den, _ = _xi_product(parent, freq)
    num = 1
    for roo, roo_at, lea, lea_at in _cuts(parent):
        if roo and lea:
            product, _ = _xi_product(roo, [freq[i] for i in roo_at])
            r = sbar_eval(lea, [freq[i] for i in lea_at])
            product *= r.denominator
            num = num * product + r.numerator * den
            den *= product
    return Fraction(-num, den)


# Memo of sbar_eval: at about 0.3 kB an entry (one Fraction and a key of
# two int tuples) the cap keeps it near 5 MB.  J of every word up to
# length 6 over two frequencies per letter stores 11,564 entries.
_SBAR_MEMO = Memo(1 << 14, _sbar_value)


def sbar_eval(parent, freq):
    """The rational R with phi^var(S(F)) = (-i)^n R exp(i Xi var), for
    any variable, of the undecorated forest F with this parent tuple,
    the coordinates riding on the vertices.

    From S(F) = -F - sum over proper cuts Roo S(Lea), and since every
    cut splits the coordinates, R(F) = -(1/prod Xi_F + sum over proper
    cuts R(Lea)/prod Xi_Roo).  R is homogeneous of degree -n in the
    coordinates."""
    if not parent:
        return _ONE
    return _SBAR_MEMO[parent, tuple(freq)]


def j_convolution(path, word, hi="t", lo="s", bound=DEFAULT_BOUND):
    """J along the forest route: per sector, phi^hi on Roo and the
    antipode evaluation phi^lo on Lea, summed over the merged cuts of
    T^sigma.

    Against one atom, scaled to ints by the word measure's L, every cut
    is (-i)^n times a rational times exp(i(Xi_Roo hi + (Xi - Xi_Roo)
    lo)), so the rationals are summed per Xi_Roo as integer fractions,
    and each phase gives one term."""
    n = len(word)
    if n == 0:
        return FreqExp.one()
    k_hi, k_lo = FREQ_VARS.index(hi), FREQ_VARS.index(lo)
    turn = _TURNS[n % 4]
    mu = word_measure(path, word)
    scale = _scale(mu)
    out = {}
    get = out.get
    for sigma, piece in split_measure(mu).items():
        cuts = _sector_cuts(sigma, bound)
        for freq, amp in _integer_atoms(piece, scale):
            by_roo = {}
            for roo, roo_at, lea, lea_at, c in cuts:
                product, xi_roo = _xi_product(roo,
                                              [freq[i] for i in roo_at])
                r = sbar_eval(lea, [freq[i] for i in lea_at])
                product *= r.denominator
                num, den = by_roo.get(xi_roo, (0, 1))
                by_roo[xi_roo] = (num * product + c * r.numerator * den,
                                  den * product)
            xi = sum(freq)
            amp = amp * turn
            for xi_roo, (num, den) in by_roo.items():
                phase = [_ZERO, _ZERO, _ZERO]
                phase[k_hi] = Fraction(xi_roo, scale)
                phase[k_lo] += Fraction(xi - xi_roo, scale)
                phase = tuple(phase)
                term = amp * Fraction(num * scale ** n, den)
                prev = get(phase)
                out[phase] = term if prev is None else prev + term
    return _freqexp(out)


def chi_character(path, var="t", bound=DEFAULT_BOUND):
    """chi of the path in one variable, as a character of the shuffle
    algebra over the path's letters."""
    return Character(Shuffle(path.d), lambda w: chi(path, w, var, bound),
                     FreqExp.one(), name="chi")


def j_character(path, word, hi="t", lo="s", bound=DEFAULT_BOUND):
    """J along the word route: chi^hi convolved with chi^lo o S."""
    return convolve(chi_character(path, hi, bound),
                    char_inverse(chi_character(path, lo, bound)))(word)


def rough_path_J(path, word, hi="t", lo="s", bound=DEFAULT_BOUND):
    """Both routes to J; returns (character route, forest route)."""
    return (j_character(path, word, hi, lo, bound),
            j_convolution(path, word, hi, lo, bound))


# ---------------------------------------------------------------------------
# Identity checks (None or a counterexample string)
# ---------------------------------------------------------------------------

def j_chen_check(path, word, bound=DEFAULT_BOUND):
    """J(t,s)(w) = sum_k J(t,u)(w_1) J(u,s)(w_2) over the splits
    w = w_1 w_2, along the forest route."""
    lhs = j_convolution(path, word, "t", "s", bound)
    rhs = Accumulator(FreqExp.zero())
    for k in range(len(word) + 1):
        rhs.add(j_convolution(path, Word(word.letters[:k]), "t", "u", bound)
                * j_convolution(path, Word(word.letters[k:]), "u", "s",
                                bound))
    if lhs != rhs.value():
        return f"J Chen fails on {word}"
    return None


def phi_multiplicativity_check(f1, mu1, f2, mu2, var="t"):
    """phi_{mu1}(F1) phi_{mu2}(F2) = phi_{mu1 x mu2}(F1 F2)."""
    lhs = (phi_lin(LinComb.of(f1), mu1, var)
           * phi_lin(LinComb.of(f2), mu2, var))
    rhs = phi_lin(LinComb.of(f1 * f2), mu1.tensor(mu2), var)
    if lhs != rhs:
        return f"phi not multiplicative on {f1}, {f2}"
    return None


def e28_check(forest, measure, sigma, var="t"):
    """phi_mu(F) = phi_{mu o sigma}(sigma^{-1}.F) for sigma in S_F."""
    lhs = phi_lin(LinComb.of(forest), measure, var)
    rhs = phi_lin(LinComb.of(act(sigma.inverse(), forest)),
                  measure.compose(sigma), var)
    if lhs != rhs:
        return f"relabeling invariance fails on {forest} with {sigma}"
    return None


def e22_check(mu, eps):
    """(mu o eps)^sigma = mu^{eps sigma} for every sigma."""
    left = split_measure(mu.compose(eps))
    right = split_measure(mu)
    empty = AtomMeasure(mu.n)
    for sigma in all_perms(mu.n):
        if left.get(sigma, empty) != right.get(eps @ sigma, empty):
            return f"sector identity fails at sigma={sigma}, eps={eps}"
    return None


def musigma_check(mu1, mu2):
    """mu1^{s1} x mu2^{s2} = sum over shuffles eps of
    (mu1 x mu2)^{(s1 x s2) eps} o eps^{-1}."""
    n1, n2 = mu1.n, mu2.n
    split1 = split_measure(mu1)
    split2 = split_measure(mu2)
    split12 = split_measure(mu1.tensor(mu2))
    empty1, empty2, empty12 = (AtomMeasure(n1), AtomMeasure(n2),
                               AtomMeasure(n1 + n2))
    for s1 in all_perms(n1):
        for s2 in all_perms(n2):
            lhs = split1.get(s1, empty1).tensor(split2.get(s2, empty2))
            rhs = Accumulator(empty12)
            st = s1.tensor(s2)
            for eps in shuffles(n1, n2):
                rhs.add(split12.get(st @ eps, empty12)
                        .compose(eps.inverse()))
            if lhs != rhs.value():
                return f"tensor sector identity fails at {s1}, {s2}"
    return None


def converse_check(mu1, mu2, var="t"):
    """chi(mu1) chi(mu2) = sum over shuffles zeta of
    chi((mu1 x mu2) o zeta), provided no magnitude of mu1 collides
    with one of mu2.  The left side is also recomputed through the
    order-shift product of the inverse elements as a third route."""
    direct = chi_measure(mu1, var) * chi_measure(mu2, var)
    nu = mu1.tensor(mu2)
    shuffled = Accumulator(FreqExp.zero())
    for zeta in shuffles(mu1.n, mu2.n):
        shuffled.add(chi_measure(nu.compose(zeta), var))
    if direct != shuffled.value():
        return "chi extension fails on the shuffled tensor measure"
    product = Accumulator(FreqExp.zero())
    pieces2 = split_measure(mu2).items()
    for s1, p1 in split_measure(mu1).items():
        for s2, p2 in pieces2:
            product.add(phi_lin(_HEAP.product_lin(t_sigma(s1), t_sigma(s2)),
                                p1.tensor(p2), var))
    if direct != product.value():
        return "product reading disagrees with the sector expansion"
    return None


# ---------------------------------------------------------------------------
# Randomized sweeps
# ---------------------------------------------------------------------------

def _distinct_magnitudes(rng, count):
    mags = set()
    while len(mags) < count:
        mags.add(Fraction(rng.randint(1, 40), rng.randint(1, 4)))
    return sorted(mags)


def random_atom(rng, n, pool=None):
    """A (frequency vector, amplitude) pair with pairwise distinct
    magnitudes and a nonzero amplitude.

    Passing a shared pool keeps magnitudes distinct across atoms that
    will later be tensored together."""
    if pool is None:
        pool = _distinct_magnitudes(rng, n)
    mags = rng.sample(pool, n)
    freq = tuple(m if rng.random() < 0.5 else -m for m in mags)
    amp = GaussianRational(0)
    while not amp:
        amp = GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
    return freq, amp


def random_measure(rng, n, max_atoms=3, pool=None):
    return AtomMeasure(n, [random_atom(rng, n, pool)
                           for _ in range(rng.randint(1, max_atoms))])


def sector_sweep(cases=100, max_n=4, seed=20260816):
    """Randomized check of the sector identities; list of failures."""
    rng = random.Random(seed)
    failures = []
    for i in range(cases):
        n = rng.randint(1, max_n)
        mu = random_measure(rng, n)
        total = Accumulator(AtomMeasure(n))
        for sigma, piece in split_measure(mu).items():
            total.add(piece.compose(sigma.inverse()))
        if total.value() != mu:
            failures.append(f"case {i}: reassembly fails")
        eps = Perm(tuple(rng.sample(range(1, n + 1), n)))
        bad = e22_check(mu, eps)
        if bad:
            failures.append(f"case {i}: {bad}")
        n1 = rng.randint(1, max(1, n - 1))
        n2 = max(1, n - n1)
        # the tensor in the check must stay free of magnitude ties, so
        # the two measures draw from disjoint pools
        pool = _distinct_magnitudes(rng, n1 + n2 + 2)
        bad = musigma_check(random_measure(rng, n1, pool=pool[:n1 + 1]),
                            random_measure(rng, n2, pool=pool[n1 + 1:]))
        if bad:
            failures.append(f"case {i}: {bad}")
    return failures
