"""Bernoulli-type cylinder measures on the constrained shift space.

The measure splits mass p/(1-p) at every free branch and passes full mass
through forced branches (a word ending in a maximal-length run has only
one admissible extension).  Exact mode keeps every value a Fraction;
float mode is for long pullback/Cesaro horizons.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .words import (
    InadmissibleWordError,
    Word,
    _dot,
    _emission,
    _start,
    _step,
    admissible_pairs,
    is_admissible,
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
        if self.m < 3:
            raise ValueError(f"order must be >= 3, got {self.m}")
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


def _mu_symbols(m: int, p, q, s: str):
    """Measure of [s] by the branching recursion; 0 for inadmissible s."""
    val = p**0  # typed one (Fraction or float)
    prev = ""
    run = 0
    for c in s:
        if prev and run >= m - 1:
            if c == prev:
                return val * 0
            # forced branch: full mass passes through
        else:
            val = val * (p if c == "0" else q)
        run = run + 1 if c == prev else 1
        prev = c
    return val


def mu_recursive(meas: BernoulliTypeMeasure, w: Word | str):
    """Cylinder measure by the step-by-step branching rule.

    Inadmissible words map to 0 (the cylinder is empty), so additivity
    identities hold uniformly.
    """
    word = w if isinstance(w, Word) else Word(symbols_of(w), meas.m)
    return _mu_symbols(meas.m, meas.p, meas.q, word.symbols)


def mu_closed(meas: BernoulliTypeMeasure, w: Word | str):
    """Closed form p^{n0} (1-p)^{n1} from the occurrence counts."""
    word = w if isinstance(w, Word) else Word(symbols_of(w), meas.m)
    if not is_admissible(word):
        raise InadmissibleWordError(
            f"{word.symbols!r} is not admissible for m={word.order}"
        )
    n0, n1 = occurrence_counts(meas.m, word.symbols)
    return meas.p**n0 * meas.q**n1


# ---------------------------------------------------------------------------
# shift pullbacks on the run-state kernel of `words`


def pullback_cylinder(meas: BernoulliTypeMeasure, w: Word | str, k: int):
    """mu_p(sigma^{-k}[w]) summed by run-state DP, never by enumeration.

    Inadmissible words map to 0 at every k, as in mu_recursive.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    s = symbols_of(w)
    m, p, q = meas.m, meas.p, meas.q
    if k == 0:
        return _mu_symbols(m, p, q, s)
    z, o = _start(m, p, q)
    for _ in range(k - 1):
        z, o = _step(z, o, p, q)
    return _dot(z, o, _emission(m, p, q, s))


def _check_series_recurrences(m, p, q, a, c, d, exact: bool) -> None:
    """The proof recurrences tying a_k and c_k to earlier d values."""
    for k in range(m, len(a)):
        coeffs = [p**i for i in range(m - 1)]
        a_pred = sum(coeffs[i] * d[k - 1 - i] for i in range(m - 1))
        c_pred = sum((q * coeffs[i]) * d[k - 1 - i] for i in range(m - 2))
        c_pred = c_pred + coeffs[m - 2] * d[k - m + 1]
        for got, want, name in ((a[k], a_pred, "a"), (c[k], c_pred, "c")):
            bad = got != want if exact else abs(got - want) > FLOAT_TOL
            if bad:
                raise PullbackRecurrenceError(
                    f"{name}_{k} = {got} but recurrence gives {want} (m={m}, p={p})"
                )


def pullback_series(meas: BernoulliTypeMeasure, kmax: int) -> PullbackSeries:
    """a,b,c,d up to kmax, validated against the proof recurrences."""
    if kmax < meas.m:
        raise ValueError(f"kmax must be >= m={meas.m}, got {kmax}")
    m, p, q = meas.m, meas.p, meas.q
    cylinders = ("0", "1", "01", "10")
    emissions = [_emission(m, p, q, s) for s in cylinders]
    a, b, c, d = series = [[_mu_symbols(m, p, q, s)] for s in cylinders]
    z, o = _start(m, p, q)
    for _ in range(kmax):
        for seq, e in zip(series, emissions):
            seq.append(_dot(z, o, e))
        z, o = _step(z, o, p, q)
    _check_series_recurrences(m, p, q, a, c, d, exact=meas.mode == EXACT)
    cesaro = []
    total = a[0] * 0
    for n, val in enumerate(a, start=1):
        total = total + val
        cesaro.append(total / n)
    return PullbackSeries(m, meas.p, tuple(a), tuple(b), tuple(c), tuple(d), tuple(cesaro))


def cesaro_lambda(meas: BernoulliTypeMeasure, w: Word | str, n: int) -> float:
    """(1/n) sum_{k<n} mu(sigma^{-k}[w]), computed in binary64.

    The limit exists but no rate is known, so n is always caller-supplied.
    Long horizons make exact rationals impractical; this always runs in
    float, matching the documented error model.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    s = symbols_of(w)
    m = meas.m
    p = float(meas.p)
    q = 1.0 - p
    total = _mu_symbols(m, p, q, s)
    e = _emission(m, p, q, s)
    z, o = _start(m, p, q)
    for _ in range(n - 1):
        total += _dot(z, o, e)
        z, o = _step(z, o, p, q)
    return total / n


# ---------------------------------------------------------------------------
# exhaustive inequality checks (exact arithmetic)


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
    m, p, q = meas.m, meas.p, meas.q
    inv = 1 / (p * q)
    mu = {s: _mu_symbols(m, p, q, s) for s in words_upto(m, L)}
    violations = []
    for w, v, wv in admissible_pairs(mu, L):
        prod = mu[w] * mu[v]
        if not (prod <= mu[wv] <= inv * prod):
            violations.append((w, v))
    return violations


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
    m, p, q = meas.m, meas.p, meas.q
    c = 1 / (p * p * q * q)
    # masses after k symbols, shared across all words
    masses = []
    z, o = _start(m, p, q)
    for _ in range(kmax):
        masses.append((z, o))
        z, o = _step(z, o, p, q)
    violations = []
    for s in words_upto(m, L)[1:]:  # the non-empty words
        mu_w = _mu_symbols(m, p, q, s)
        e = _emission(m, p, q, s)
        for k, (z, o) in enumerate(masses, start=1):
            pb = _dot(z, o, e)
            if not (mu_w <= c * pb and pb <= c * mu_w):
                violations.append((s, k))
    return violations
