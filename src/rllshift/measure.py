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
from itertools import accumulate

import numpy as np

from .words import (
    InadmissibleWordError,
    Word,
    _check_order,
    _dot,
    _emission,
    _start,
    _step,
    admissible_pairs,
    is_admissible_symbols,
    occurrence_counts,
    symbols_of,
    words_upto,
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


def bernoulli(m: int, p, mode: str | None = None) -> BernoulliTypeMeasure:
    """Build a measure, defaulting to exact mode for rational p."""
    if isinstance(p, (str, int)):
        p = Fraction(p)
    if mode is None:
        mode = EXACT if isinstance(p, Fraction) else FLOAT
    if mode not in (EXACT, FLOAT):
        raise ValueError(f"mode must be {EXACT!r} or {FLOAT!r}")
    return BernoulliTypeMeasure(m, Fraction(p) if mode == EXACT else float(p))


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


def _symbols(meas: BernoulliTypeMeasure, w: Word | str) -> str:
    """The symbols of w; a Word must carry the measure's order."""
    if isinstance(w, Word) and w.order != meas.m:
        raise ValueError(f"word order {w.order} differs from the measure's m={meas.m}")
    return symbols_of(w)


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


def mu_recursive(meas: BernoulliTypeMeasure, w: Word | str):
    """Cylinder measure by the step-by-step branching rule.

    Inadmissible words map to 0 (the cylinder is empty), so additivity
    identities hold uniformly.
    """
    s = _symbols(meas, w)
    return meas._value(_mu_symbols(meas.m, *meas.weights, s), len(s))


def mu_closed(meas: BernoulliTypeMeasure, w: Word | str):
    """Closed form p^{n0} (1-p)^{n1} from the occurrence counts."""
    s = _symbols(meas, w)
    if not is_admissible_symbols(meas.m, s):
        raise InadmissibleWordError(f"{s!r} is not admissible for m={meas.m}")
    n0, n1 = occurrence_counts(meas.m, s)
    return meas.p**n0 * meas.q**n1


# ---------------------------------------------------------------------------
# shift pullbacks on the run-state kernel of `words`


def pullback_cylinder(meas: BernoulliTypeMeasure, w: Word | str, k: int):
    """mu_p(sigma^{-k}[w]) summed by run-state DP, never by enumeration.

    Inadmissible words map to 0 at every k, as in mu_recursive.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    s = _symbols(meas, w)
    m, weights = meas.m, meas.weights
    if k == 0:
        return meas._value(_mu_symbols(m, *weights, s), len(s))
    z, o = _start(m, *weights[:2])
    for _ in range(k - 1):
        z, o = _step(z, o, *weights)
    return meas._value(_dot(z, o, _emission(m, *weights, s)), k + len(s))


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
    z, o = _start(m, *weights[:2])
    for _ in range(kmax):
        for seq, e in zip(series, emissions):
            seq.append(_dot(z, o, e))
        z, o = _step(z, o, *weights)
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


def cesaro_lambda(meas: BernoulliTypeMeasure, w: Word | str, n: int) -> float:
    """(1/n) sum_{k<n} mu(sigma^{-k}[w]), computed in binary64.

    With P the S x S transfer matrix of the kernel (S = 2(m-1)), the start
    masses x and the emission e of w, the sum is mu[w] + x G e with
    G = sum_{j<n-1} P^j.  Binary doubling over the bits of n-1 keeps
    A = P^(2^i) and g = (sum_{j<2^i} P^j) e, so each bit costs one S x S
    matrix product: O(S^3 log n) in all, at any n.  At large m and small n
    this is slower than n kernel steps would be; on a 2-core x86-64 VM,
    m = 150 and n = 100 take about 25 ms against 3 ms, and m = 500 and
    n = 10 take 0.26 s against 1 ms.  The gate and the benchmark run at
    S <= 70; the largest call in CI, m = 300 and n = 1000, takes 0.17 s on
    the same VM.

    Always float, also for a Fraction p.  All terms are nonnegative, so
    there is no cancellation.  The tests hold the relative error to 1e-12
    against the step-by-step sum (n <= 3000, p down to 1e-12), to 1e-13
    against the exact `pullback_series` Cesaro averages (n <= 200), and
    the absolute error to 1e-9 against the closed form at n = 10**12.
    n = 1 gives mu[w]; an inadmissible w gives 0.0.  n must lie below
    2**1024, past which n itself, and the sum, overflow binary64.
    """
    if not 1 <= n < 2**1024:
        raise ValueError(f"n must lie in [1, 2**1024), got {n}")
    s = _symbols(meas, w)
    m = meas.m
    p = float(meas.p)
    q = 1.0 - p
    power = _transfer_matrix(m, p, q)
    g = np.concatenate(_emission(m, p, q, 1, s))
    x = np.concatenate(_start(m, p, q))
    total = 0.0
    rest = n - 1  # bits of the number of terms of G still to be added
    while rest:
        if rest & 1:
            total += x @ g
            x = x @ power
        rest >>= 1
        if rest:
            g = g + power @ g
            power = power @ power
            # P^(2^i) is stochastic; rescaling its rows to sum 1 keeps the
            # rounding of p + (1-p) and of each product from doubling at every
            # squaring, a relative error that would grow like n * 1e-16
            power /= power.sum(axis=1, keepdims=True)
    return float(_mu_symbols(m, p, q, 1, s) + total) / n


# ---------------------------------------------------------------------------
# exhaustive inequality checks: integer numerators, cross-multiplied


def _quasi_bernoulli_bounds(a: int, b: int, prod: int, mu_wv: int):
    """(mu[w]mu[v] <= mu[wv], p(1-p)mu[wv] <= mu[w]mu[v]), numerators over b**|wv|."""
    return prod <= mu_wv, a * (b - a) * mu_wv <= b * b * prod


def _pullback_bounds(a: int, b: int, k: int, mu_w: int, pb: int):
    """(mu[w] <= c pb, pb <= c mu[w]), c = (p(1-p))^-2; pb is over b**(k+|w|)."""
    lhs, mu_k = (a * (b - a)) ** 2, mu_w * b**k
    return lhs * mu_k <= b**4 * pb, lhs * pb <= b**4 * mu_k


def quasi_bernoulli_check(meas: BernoulliTypeMeasure, L: int) -> list[tuple[str, str]]:
    """Violations of mu[w]mu[v] <= mu[wv] <= (p(1-p))^{-1} mu[w]mu[v].

    Exhaustive over admissible pairs with wv admissible and |w|+|v| <= L,
    the empty word included.  Expected empty; violations are listed by w,
    then v, each shortest first.
    """
    if meas.mode != EXACT:
        raise ValueError("quasi_bernoulli_check requires exact mode")
    if L < 2:
        raise ValueError(f"L must be >= 2, got {L}")
    a, _, b = weights = meas.weights
    mu = {s: _mu_symbols(meas.m, *weights, s) for s in words_upto(meas.m, L)}
    return [(w, v) for w, v, wv in admissible_pairs(mu, L)
            if not all(_quasi_bernoulli_bounds(a, b, mu[w] * mu[v], mu[wv]))]


def pullback_bounds_check(
    meas: BernoulliTypeMeasure, L: int, kmax: int
) -> list[tuple[str, int]]:
    """Violations of c^{-1} mu[w] <= mu(sigma^{-k}[w]) <= c mu[w].

    c = p^{-2}(1-p)^{-2}; exhaustive over admissible 1 <= |w| <= L and
    1 <= k <= kmax.  Expected empty; violations are listed by w, shortest
    first, then k.
    """
    if meas.mode != EXACT:
        raise ValueError("pullback_bounds_check requires exact mode")
    m = meas.m
    a, _, b = weights = meas.weights
    # masses after k symbols, shared across all words
    masses = []
    z, o = _start(m, *weights[:2])
    for _ in range(kmax):
        masses.append((z, o))
        z, o = _step(z, o, *weights)
    violations = []
    for s in words_upto(m, L)[1:]:  # the non-empty words
        mu_w = _mu_symbols(m, *weights, s)
        e = _emission(m, *weights, s)
        for k, (z, o) in enumerate(masses, start=1):
            if not all(_pullback_bounds(a, b, k, mu_w, _dot(z, o, e))):
                violations.append((s, k))
    return violations
