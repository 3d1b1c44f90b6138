"""The Hopf morphism theta into FQSym and its inverse elements.

theta sends a heap-ordered forest to the sum of its linear extensions,
read as permutation words; the decorated variant carries decorations
into the bottom row. Restricted to degree n the map is invertible:
m(F) = max S_F is a bijection onto the symmetric group and tau in S_F
implies tau <= m(F), so the matrix of theta is unipotent triangular in
that order. T^sigma denotes theta^{-1}(sigma^{-1}); its decorated
projection to plain forests recovers single words under the small map.

T^sigma is computed in closed form, by expanding the simplex integral
along sigma into one heap-ordered forest per choice of parents (at most
2^(n-1) signed terms). The n! x n! matrix of theta is built only on
request (theta-inv --matrix) and as the independent check of that
closed form, by back substitution.
"""

from __future__ import annotations

import json
from itertools import product as _iproduct
from math import factorial, prod

from .coeffs import (LinComb, Accumulator, _lincomb, _nonzero_lincomb,
                     _unit_sum)
from .errors import BoundExceededError
from .memo import Memo
from .words import _word
from .perms import DecoratedPerm, all_perms, standardize, shuffles
from .forests import (
    _ordered, act, linear_extensions, heap_order_lift,
    enumerate_heap_ordered,
)
from .hopf import HeapOrdered, FQSym, tensor

DEFAULT_BOUND = 6


def theta(forest):
    """Sum of the linear extensions of a heap-ordered forest."""
    return _unit_sum(linear_extensions(forest))


def theta_dec(forest):
    """Decorated version: bottom row lists the decorations by value."""
    return _unit_sum(DecoratedPerm.from_ell(sigma, forest.dec)
                     for sigma in linear_extensions(forest))


def pi_ho(forest):
    """Forget the order of an ordered forest."""
    return forest.to_plain()


def pi_sigma(dp):
    """Forget the permutation, keep the decoration word."""
    return _word(dp.bottom)


def theta_small(forest):
    """Words of decorations along linear extensions of a plain forest.

    Computed through one heap-order lift; the answer does not depend
    on the lift chosen.
    """
    lift = heap_order_lift(forest)
    dec = lift.dec
    return _unit_sum(_word(tuple([dec[v - 1] for v in sigma.word]))
                     for sigma in linear_extensions(lift))


class ThetaMatrix:
    """theta in degree n as a 0/1 matrix, with its exact inverse.

    Rows are indexed by permutations in lexicographic order, columns by
    heap-ordered forests in text order. Columns of the inverse are the
    elements T^sigma; they are solved by back substitution along the
    bijection F -> max S_F, which exhibits the matrix as unipotent
    triangular up to that permutation of the columns.
    """

    def __init__(self, n):
        self.n = n
        self.perms = all_perms(n)
        self.forests = enumerate_heap_ordered(n)
        self._extensions = {f: linear_extensions(f) for f in self.forests}
        by_max = {}
        for f, exts in self._extensions.items():
            by_max[max(e.word for e in exts)] = f
        if len(by_max) != factorial(n):
            raise AssertionError(f"max extension not bijective at n={n}")
        # back substitution visits the words from the largest down, each
        # with its forest and that forest's other extensions
        self._descending = []
        for word in sorted(by_max, reverse=True):
            f = by_max[word]
            lower = [e.word for e in self._extensions[f] if e.word != word]
            self._descending.append((word, f, lower))

    def extensions(self, forest):
        return self._extensions[forest]

    def matrix(self):
        """Row sigma, column F: 1 when sigma is an extension of F."""
        row_of = {sigma.word: i for i, sigma in enumerate(self.perms)}
        rows = [[0] * len(self.forests) for _ in self.perms]
        for j, f in enumerate(self.forests):
            for e in self._extensions[f]:
                rows[row_of[e.word]][j] = 1
        return rows

    def inverse_column(self, sigma):
        """theta^{-1}(sigma) as a LinComb of heap-ordered forests."""
        residual = {sigma.word: 1}
        result = {}
        for word, f, lower in self._descending:
            c = residual.pop(word, 0)
            if not c:
                continue
            result[f] = c
            for other in lower:
                residual[other] = residual.get(other, 0) - c
        if any(residual.values()):
            raise AssertionError("back substitution left a residual")
        return _lincomb(result)

    def inverse_matrix(self):
        """Row F, column sigma: coefficient of F in theta^{-1}(sigma)."""
        row_of = {f: i for i, f in enumerate(self.forests)}
        rows = [[0] * len(self.perms) for _ in self.forests]
        for j, sigma in enumerate(self.perms):
            for f, c in self.inverse_column(sigma).items():
                rows[row_of[f]][j] = c
        return rows

    def to_json(self):
        """The same text as json.dumps(..., indent=2) of n, perms,
        forests, matrix and inverse (cells as strings).  The two n! x n!
        tables are written here: under indent, json falls back to its
        pure-Python encoder."""
        head = json.dumps({
            "n": self.n,
            "perms": [str(p) for p in self.perms],
            "forests": [str(f) for f in self.forests],
        }, indent=2)
        matrix = [map(str, row) for row in self.matrix()]
        inverse = [[f'"{c}"' if c else '"0"' for c in row]
                   for row in self.inverse_matrix()]
        return (f'{head[:-2]},\n  "matrix": {_json_rows(matrix)},'
                f'\n  "inverse": {_json_rows(inverse)}\n}}')


def _json_rows(rows):
    """A list of rows of JSON cell texts, laid out as json.dumps with
    indent=2 lays out a list that is a value of a top-level object."""
    if not rows:
        return "[]"
    lines = []
    for row in rows:
        cells = ",\n      ".join(row)
        lines.append(f"    [\n      {cells}\n    ]" if cells else "    []")
    return "[\n" + ",\n".join(lines) + "\n  ]"


# The last ThetaMatrix built, keyed by its degree: at most one entry,
# since ThetaMatrix(7) alone peaks at about 265 MB.
_MATRIX_CACHE = Memo(1, ThetaMatrix)


def _check_bound(n, bound):
    if n > bound:
        raise BoundExceededError(
            f"degree {n} exceeds bound {bound}; raise the bound explicitly")


def theta_inverse_table(n, bound=DEFAULT_BOUND):
    _check_bound(n, bound)
    return _MATRIX_CACHE[n]


def _simplex_expansion(sigma):
    """T^sigma as a signed sum of heap-ordered forests, without a bound.

    Integrating the simplex along sigma variable by variable, vertex i
    takes as parent either the earlier vertex whose sigma-value is the
    nearest below sigma(i) (a root when there is none), with sign +1,
    or the earlier vertex whose sigma-value is the nearest above, with
    sign -1. Each choice of parents is a distinct forest, so no
    coefficient is zero.
    """
    choices = []
    for i in range(1, sigma.n + 1):
        v = sigma(i)
        earlier = range(1, i)
        below = max((k for k in earlier if sigma(k) < v), key=sigma,
                    default=0)
        above = min((k for k in earlier if sigma(k) > v), key=sigma,
                    default=None)
        choices.append([(below, 1)] if above is None
                       else [(below, 1), (above, -1)])
    ones = (1,) * sigma.n
    return _nonzero_lincomb({_ordered(tuple([p for p, _ in picked]), ones):
                             prod([s for _, s in picked])
                             for picked in _iproduct(*choices)})


# Memo of T^sigma per permutation: every permutation up to degree 6
# fits (874 of them), in about 0.9 MB.
_T_SIGMA_MEMO = Memo(1 << 12, _simplex_expansion)


def t_sigma(sigma, bound=DEFAULT_BOUND):
    """T^sigma = theta^{-1}(sigma^{-1}), a LinComb of heap forests.

    Memoized per permutation.  The bound is checked on every call, so a
    memoized sigma still refuses a lower bound."""
    _check_bound(sigma.n, bound)
    return _T_SIGMA_MEMO[sigma]


def t_sigma_by_matrix(sigma):
    """T^sigma by back substitution in ThetaMatrix: the independent check
    of the closed form, at n! cost."""
    return theta_inverse_table(sigma.n).inverse_column(sigma.inverse())


def decorate_by_order(terms, letters, n):
    """Decorate degree-n ordered forests with letters by order index,
    then forget the orders."""
    letters = tuple(letters)
    if len(letters) != n:
        raise ValueError("decoration length must match the permutation size")
    letters = tuple([int(x) for x in letters])
    if any(x < 1 for x in letters):
        raise ValueError("decoration out of range")
    # forgetting the orders can merge forests
    out = {}
    get = out.get
    for f, c in terms.items():
        plain = _ordered(f.parent, letters).to_plain()
        prev = get(plain)
        out[plain] = c if prev is None else prev + c
    return _lincomb(out)


def t_sigma_decorated(sigma, letters, bound=DEFAULT_BOUND):
    """Decorate T^sigma with letters by order index, then forget orders."""
    return decorate_by_order(t_sigma(sigma, bound), letters, sigma.n)


# ---------------------------------------------------------------------------
# Identities around theta (each returns None or a counterexample string)
# ---------------------------------------------------------------------------

# The one structure of each family that the identities multiply and
# co-multiply in, so the coproducts it memoizes serve every call.
_HEAP = HeapOrdered()
_FQSYM = FQSym()


def t_sigma_product_identity(sigma, tau):
    """T^sigma T^tau = sum over (k,l)-shuffles zeta of T^{zeta^{-1}(sigma x tau)}."""
    lhs = _HEAP.product_lin(t_sigma(sigma), t_sigma(tau))
    rhs = Accumulator(LinComb.zero())
    st = sigma.tensor(tau)
    for zeta in shuffles(sigma.n, tau.n):
        rhs.add(t_sigma(zeta.inverse() @ st))
    if lhs != rhs.value():
        return f"product identity fails for {sigma}, {tau}"
    return None


def t_sigma_coproduct_identity(sigma):
    """Delta T^sigma = sum_k T^{sigma_1} x T^{sigma_2} along the
    factorizations of sigma^{-1}."""
    lhs = _HEAP.coproduct_lin(t_sigma(sigma))
    inv = sigma.inverse()
    rhs = Accumulator(LinComb.zero())
    for k in range(sigma.n + 1):
        s1 = standardize(inv.word[:k]).inverse()
        s2 = standardize(inv.word[k:]).inverse()
        rhs.add(tensor(t_sigma(s1), t_sigma(s2)))
    if lhs != rhs.value():
        return f"coproduct identity fails for {sigma}"
    return None


def twisted_product_identity(sigma, tau, eps):
    """eps^{-1}.(T^sigma T^tau) = sum_zeta T^{zeta^{-1}(sigma x tau)eps}."""
    k, l = sigma.n, tau.n
    if eps.n != k + l or not eps.is_shuffle(k):
        raise ValueError(f"{eps} is not a ({k},{l})-shuffle")
    eps_inv = eps.inverse()
    product = _HEAP.product_lin(t_sigma(sigma), t_sigma(tau))
    lhs = LinComb((act(eps_inv, f), c) for f, c in product.items())
    rhs = Accumulator(LinComb.zero())
    st = sigma.tensor(tau)
    for zeta in shuffles(k, l):
        rhs.add(t_sigma(zeta.inverse() @ st @ eps))
    if lhs != rhs.value():
        return f"twisted product identity fails for {sigma}, {tau}, {eps}"
    return None


def theta_morphism_product_check(f1, f2):
    """theta(F G) = theta(F) theta(G) in FQSym."""
    lhs = theta(f1 * f2)
    rhs = _FQSYM.product_lin(theta(f1), theta(f2))
    if lhs != rhs:
        return f"theta not multiplicative on {f1}, {f2}"
    return None


def theta_morphism_coproduct_check(f):
    """(theta x theta) Delta = Delta theta."""
    lhs = Accumulator(LinComb.zero())
    for (roo, lea), c in _HEAP.coproduct(f).items():
        lhs.add(tensor(theta(roo), theta(lea)), c)
    rhs = _FQSYM.coproduct_lin(theta(f))
    if lhs.value() != rhs:
        return f"theta not comultiplicative on {f}"
    return None


def square_check(forest):
    """pi_Sigma theta_dec = theta_small pi_ho on a heap-ordered forest."""
    lhs = LinComb([(pi_sigma(dp), c) for dp, c in theta_dec(forest).items()])
    rhs = theta_small(pi_ho(forest))
    if lhs != rhs:
        return f"square fails on {forest}"
    return None
