"""Bernoulli-type cylinder measures on the constrained shift space.

The measure splits mass p/(1-p) at every free branch and passes full mass
through forced branches (a word ending in a maximal-length run has only
one admissible extension).  Exact mode, p = a/b, computes a value over n
symbols as an integer numerator over b**n on the kernel weights (a, b-a,
b), returned as a Fraction; float mode, p a float, works in binary64.
Cesaro averages are always binary64, at any horizon (`cesaro_lambda`).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice

import numpy as np

from .words import (
    WordTree,
    _check_order,
    _check_symbols,
    _dot,
    _emission,
    _masses,
    _prepend,
    _require_admissible,
    _start,
    _step,
    _walk,
    occurrence_counts,
    word_tree,
)

EXACT = "exact"
FLOAT = "float"

# comparison tolerance where float mode makes exactness impossible
FLOAT_TOL = 1e-9


class PullbackRecurrenceError(RuntimeError):
    """The DP series contradicts the shifted-cylinder recurrences (a bug)."""


@dataclass(frozen=True)
class BernoulliTypeMeasure:
    m: int
    p: Fraction | float

    def __post_init__(self):
        _check_order(self.m)
        if not 0 < self.p < 1:
            raise ValueError(f"p must lie in (0,1), got {self.p}")

    @property
    def mode(self) -> str:
        """EXACT for a Fraction p, FLOAT otherwise."""
        return EXACT if isinstance(self.p, Fraction) else FLOAT

    @property
    def q(self):
        """Mass of the digit 1 at a free branch."""
        return 1 - self.p

    @property
    def weights(self):
        """Kernel weights (free 0, free 1, forced): (a, b-a, b) for p = a/b,
        so a value over n symbols is an integer over b**n; else (p, 1-p, 1)."""
        if self.mode == EXACT:
            a, b = self.p.numerator, self.p.denominator
            return a, b - a, b
        return self.p, self.q, 1

    def _value(self, num, n: int):
        """A numerator over n symbols as a value: num / b**n, or num in float mode."""
        return Fraction(num, self.p.denominator**n) if self.mode == EXACT else num


def bernoulli(m: int, p) -> BernoulliTypeMeasure:
    """Build a measure: exact for a rational p (Fraction, int or 'a/b'), else float."""
    if isinstance(p, (str, int)):
        p = Fraction(p)
    return BernoulliTypeMeasure(m, p if isinstance(p, Fraction) else float(p))


@dataclass(frozen=True)
class PullbackSeries:
    """Shifted-cylinder measures a_k, b_k, c_k, d_k and Cesaro averages of a."""

    m: int
    p: Fraction | float
    a: tuple
    b: tuple
    c: tuple
    d: tuple
    cesaro_a: tuple


# ---------------------------------------------------------------------------
# cylinder measure


def _mu_symbols(m: int, w0, w1, wf, s: str):
    """Numerator of [s] by the branching rule on kernel weights; 0 if inadmissible."""
    val = w0**0  # typed one (int or float)
    prev = ""
    run = 0
    for c in s:
        if prev and run >= m - 1:
            if c == prev:
                return val * 0
            val = val * wf  # forced branch: full mass passes through
        else:
            val = val * (w0 if c == "0" else w1)
        run = run + 1 if c == prev else 1
        prev = c
    return val


def mu_recursive(meas: BernoulliTypeMeasure, w: str):
    """Cylinder measure by the step-by-step branching rule.

    Inadmissible words map to 0 (the cylinder is empty), so additivity
    identities hold uniformly.
    """
    _check_symbols(w)
    return meas._value(_mu_symbols(meas.m, *meas.weights, w), len(w))


def mu_closed(meas: BernoulliTypeMeasure, w: str):
    """Closed form p^{n0} (1-p)^{n1} from the occurrence counts."""
    _require_admissible(meas.m, w)
    n0, n1 = occurrence_counts(meas.m, w)
    return meas.p**n0 * meas.q**n1


# ---------------------------------------------------------------------------
# shift pullbacks on the run-state kernel of `words`


def pullback_cylinder(meas: BernoulliTypeMeasure, w: str, k: int):
    """mu_p(sigma^{-k}[w]) on the run-state kernel, never by enumeration.

    k = 0 reads w alone.  Exact mode is one `words._walk`, O(S^2 log k) for
    S = 2(m-1) and equal to the step loop bit for bit; float mode is the
    first entry of `_float_doubling`, O(S^3 log k), shared with Cesaro.
    Inadmissible words map to 0 at every k, as in mu_recursive.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    _check_symbols(w)
    m, weights = meas.m, meas.weights
    if k == 0:
        return meas._value(_mu_symbols(m, *weights, w), len(w))
    if meas.mode == FLOAT:
        with np.errstate(over="ignore", invalid="ignore"):  # unused sum: inf past 2**1024
            return _float_doubling(m, meas.p, w, k)[0]
    return meas._value(_walk(m, *weights, _emission(m, *weights, w), k), k + len(w))


def _check_series_recurrences(m, w0, w1, wf, a, c, d, exact: bool) -> None:
    """The proof recurrences on numerators over wf**(k+|w|): a_k = sum_{i<m-1}
    w0^i d_{k-1-i}, and c_k the same with w1 on the free terms, wf on the last."""
    a_coeffs = [w0**i for i in range(m - 1)]
    c_coeffs = [w1 * x for x in a_coeffs[:-1]] + [wf * a_coeffs[-1]]
    for k in range(m, len(a)):
        for seq, coeffs, name in ((a, a_coeffs, "a"), (c, c_coeffs, "c")):
            got, want = seq[k], sum(x * d[k - 1 - i] for i, x in enumerate(coeffs))
            if got != want if exact else abs(got - want) > FLOAT_TOL:
                raise PullbackRecurrenceError(
                    f"{name}_{k} = {got} but recurrence gives {want} (m={m})"
                )


def pullback_series(meas: BernoulliTypeMeasure, kmax: int) -> PullbackSeries:
    """a,b,c,d up to kmax, validated against the proof recurrences."""
    if kmax < meas.m:
        raise ValueError(f"kmax must be >= m={meas.m}, got {kmax}")
    m, weights = meas.m, meas.weights
    cylinders = ("0", "1", "01", "10")
    emissions = [_emission(m, *weights, s) for s in cylinders]
    a, b, c, d = series = [[_mu_symbols(m, *weights, s)] for s in cylinders]
    for z, o in islice(_masses(m, *weights), kmax):
        for seq, e in zip(series, emissions):
            seq.append(_dot(z, o, e))
    _check_series_recurrences(m, *weights, a, c, d, exact=meas.mode == EXACT)
    sums = accumulate(a, lambda t, x: t * weights[2] + x)  # sum_{k<n} a_k, over wf**n
    cesaro = [meas._value(t, n) / n for n, t in enumerate(sums, start=1)]
    values = [tuple(meas._value(x, k + len(s)) for k, x in enumerate(seq))
              for s, seq in zip(cylinders, series)]
    return PullbackSeries(m, meas.p, *values, tuple(cesaro))


def _transfer_matrix(m: int, p: float, q: float) -> np.ndarray:
    """The kernel's float transfer matrix: row i is `_step` of unit state i."""
    size = m - 1
    rows = []
    for i in range(2 * size):
        unit = [0.0] * (2 * size)
        unit[i] = 1.0
        z, o = _step(unit[:size], unit[size:], p, q, 1)
        rows.append(z + o)
    return np.array(rows)


def _float_doubling(m: int, p: float, w: str, k: int):
    """(x P^(k-1) e, sum_{j<k-1} x P^j e) in binary64, for k >= 1.

    P is the kernel's S x S transfer matrix (S = 2(m-1)), x the start
    masses and e the emission of w: the float pullback at k, and the
    Cesaro sum past mu[w].  Doubling over the bits of k-1 keeps A = P^(2^i)
    and g = (sum_{j<2^i} P^j) e; a set bit adds x g to the sum and moves x
    on by A.  O(S^3 log k) at any k, slower than k kernel steps at large m
    and small k (median of 7, 2-core x86-64 VM: m = 300, k = 5 take 80 ms
    against 0.3 ms; m = 150, k = 100 23 ms against 3 ms; k = 10**12 at
    m = 300 0.33 s).  All terms are nonnegative: no cancellation.  Each
    squaring rescales the rows of A to sum 1, else the rounding of p + (1-p)
    would double at every squaring, an error growing like k * 1e-16.  The
    tests hold the pullback's relative error to 1e-12 against the step loop
    (m <= 40, k <= 5000) and to 1e-14 against the exact stationary value at
    k = 10**12.
    """
    q = 1.0 - p
    power = _transfer_matrix(m, p, q)
    g = e = np.concatenate(_emission(m, p, q, 1, w))
    x = np.concatenate(_start(m, p, q))
    total = 0.0
    rest = k - 1  # bits of the number of terms of the sum still to be added
    while rest:
        if rest & 1:
            total += x @ g
            x = x @ power
        rest >>= 1
        if rest:
            g = g + power @ g
            power = power @ power
            power /= power.sum(axis=1, keepdims=True)
    return float(x @ e), total


def cesaro_lambda(meas: BernoulliTypeMeasure, w: str, n: int) -> float:
    """(1/n) sum_{k<n} mu(sigma^{-k}[w]), computed in binary64.

    mu[w] plus the sum from `_float_doubling` at k = n, O(S^3 log n) at any
    n; always float, also for a Fraction p.  The tests hold the relative
    error to 1e-12 against the step-by-step sum (n <= 3000, p down to
    1e-12), to 1e-13 against the exact `pullback_series` Cesaro averages
    (n <= 200), and the absolute error to 1e-9 against the closed form at
    n = 10**12.  n = 1 gives mu[w], an inadmissible w 0.0; n must lie
    below 2**1024, past which n and the sum overflow binary64.
    """
    if not 1 <= n < 2**1024:
        raise ValueError(f"n must lie in [1, 2**1024), got {n}")
    _check_symbols(w)
    p = float(meas.p)
    total = _float_doubling(meas.m, p, w, n)[1]
    return float(_mu_symbols(meas.m, p, 1.0 - p, 1, w) + total) / n


# ---------------------------------------------------------------------------
# exhaustive inequality checks: integer numerators, cross-multiplied


def _quasi_bernoulli_bounds(a: int, b: int):
    """For p = a/b, the test (prod, mu_wv) -> whether mu[w]mu[v] <= mu[wv]
    and p(1-p)mu[wv] <= mu[w]mu[v], on numerators over b**|wv|; elementwise
    on object arrays of numerators."""
    lhs, rhs = a * (b - a), b * b

    def holds(prod, mu_wv):
        return (prod <= mu_wv) & (lhs * mu_wv <= rhs * prod)

    return holds


def _pullback_bounds(a: int, b: int):
    """For p = a/b, the test (mu_k, pb) -> whether mu[w] <= c pb and
    pb <= c mu[w], c = (p(1-p))^-2; pb is a numerator over b**(k+|w|), and
    mu_k = mu[w] b**k puts mu[w] over the same power; elementwise on object
    arrays of numerators."""
    lhs, rhs = (a * (b - a)) ** 2, b**4

    def holds(mu_k, pb):
        return (lhs * mu_k <= rhs * pb) & (lhs * pb <= rhs * mu_k)

    return holds


def _tree_for(m: int, L: int, tree: WordTree | None) -> WordTree:
    """`tree` if it is `word_tree(m, L)`'s shape, a new one if it is None."""
    if tree is None:
        return word_tree(m, L)
    depth = len(tree.starts) - 2
    if (tree.m, depth) != (m, L):
        raise ValueError(f"tree has m={tree.m}, L={depth}; the check needs m={m}, L={L}")
    return tree


def quasi_bernoulli_check(
    meas: BernoulliTypeMeasure, L: int, *, tree: WordTree | None = None
) -> list[tuple[str, str]]:
    """Violations of mu[w]mu[v] <= mu[wv] <= (p(1-p))^{-1} mu[w]mu[v].

    Exhaustive over admissible pairs with wv admissible and |w|+|v| <= L,
    the empty word included: the split points of the words of the word
    tree (`WordTree.splits`), each pair once, compared in one pass over
    object arrays of exact numerators.  Expected empty; violations are
    listed by wv in tree order, then by split point.  `tree`, if given,
    is `word_tree(meas.m, L)` shared with the checks of other measures.
    """
    if meas.mode != EXACT:
        raise ValueError("quasi_bernoulli_check requires exact mode")
    if L < 2:
        raise ValueError(f"L must be >= 2, got {L}")
    a, _, b = weights = meas.weights
    holds = _quasi_bernoulli_bounds(a, b)
    tree = _tree_for(meas.m, L, tree)
    mu = tree.numerators(*weights)  # Python ints, never int64
    u, w, v = tree.splits
    bad = np.flatnonzero(~holds(mu[w] * mu[v], mu[u]))
    return [(tree.words[i], tree.words[j]) for i, j in zip(w[bad].tolist(), v[bad].tolist())]


def _tree_emissions(m: int, w0, w1, wf, tree) -> np.ndarray:
    """`_emission` of every word of the tree: an object array (2(m-1), words).

    Level by level: the emission of s is `_prepend` of s[0] to that of
    s[1:], the suffix link, on columns of Python ints.  A level is sorted,
    so its words that start with 0 come first: one call for them and one
    for the rest.
    """
    ones = [w0**0] * (m - 1)
    e = np.empty((2 * (m - 1), len(tree.parent)), dtype=object)
    e[:, 0] = ones + ones
    first, suffix = tree.arrays.first, tree.arrays.suffix
    for lo, hi in zip(tree.starts[1:], tree.starts[2:]):
        mid = lo + int(np.count_nonzero(first[lo:hi] == 0))
        for c, start, stop in (("0", lo, mid), ("1", mid, hi)):
            tail = e[:, suffix[start:stop]]
            ez, eo = _prepend(m, w0, w1, wf, c, (tail[:m - 1], tail[m - 1:]))
            e[:, start:stop] = ez + eo
    return e


def pullback_bounds_check(
    meas: BernoulliTypeMeasure, L: int, kmax: int, *, tree: WordTree | None = None
) -> list[tuple[str, int]]:
    """Violations of c^{-1} mu[w] <= mu(sigma^{-k}[w]) <= c mu[w].

    c = p^{-2}(1-p)^{-2}; exhaustive over admissible 1 <= |w| <= L and
    1 <= k <= kmax.  Every pullback is one object-array product of the
    masses after k symbols with the emissions of `_tree_emissions`.
    Expected empty; violations are listed by w, shortest first, then k.
    `tree`, if given, is `word_tree(meas.m, L)` shared with the checks of
    other measures.
    """
    if meas.mode != EXACT:
        raise ValueError("pullback_bounds_check requires exact mode")
    m = meas.m
    a, _, b = weights = meas.weights
    holds = _pullback_bounds(a, b)
    masses = np.array([z + o for z, o in islice(_masses(m, *weights), kmax)], dtype=object)
    scales = np.array([b**k for k in range(1, kmax + 1)], dtype=object)
    tree = _tree_for(m, L, tree)
    emissions = _tree_emissions(m, *weights, tree)[:, 1:]  # non-empty words
    mu = tree.numerators(*weights)[1:]
    # rows are words, columns k = 1..kmax: violations in (w, k) order
    ok = holds(np.outer(mu, scales), (masses @ emissions).T)
    bad = np.flatnonzero(~ok)
    return [(tree.words[1 + i // kmax], 1 + i % kmax) for i in bad.tolist()]
