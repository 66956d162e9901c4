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
from itertools import islice

from .words import (
    WordTree,
    _check_open_unit,
    _check_order,
    _check_symbols,
    _dot,
    _emission,
    _masses,
    _require_admissible,
    _start,
    _walk,
    occurrence_counts,
)

EXACT = "exact"
FLOAT = "float"


class PullbackRecurrenceError(RuntimeError):
    """The DP series contradicts the shifted-cylinder recurrences (a bug)."""


@dataclass(frozen=True)
class BernoulliTypeMeasure:
    m: int
    p: Fraction | float

    def __post_init__(self):
        _check_order(self.m)
        _check_open_unit(self.p, "p")

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
    """Build a measure: exact for a Fraction p, else float(p)."""
    return BernoulliTypeMeasure(m, p if isinstance(p, Fraction) else float(p))


# ---------------------------------------------------------------------------
# cylinder measure


def _mu_symbols(m: int, w0, w1, wf, s: str):
    """Numerator of [s] by the branching rule on kernel weights; 0 if inadmissible."""
    val = w0**0  # typed one (int or float)
    prev = ""
    run = 0  # the start, below the cap: the first symbol is free
    for c in s:
        if run >= m - 1:
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

    k = 0 is `mu_recursive`.  Exact mode is one `words._walk`, O(S^2 log k)
    for S = 2(m-1) and equal to the step loop bit for bit; float mode is the
    first entry of `_float_doubling`, O(S^3 log k), shared with Cesaro.
    Inadmissible words map to 0 at every k, as in mu_recursive.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k == 0:
        return mu_recursive(meas, w)
    _check_symbols(w)
    m, weights = meas.m, meas.weights
    if meas.mode == FLOAT:
        import numpy as np
        with np.errstate(over="ignore", invalid="ignore"):  # unused sum: inf past 2**1024
            return _float_doubling(m, meas.p, w, k)[0]
    return meas._value(_walk(m, *weights, _emission(m, *weights, w), k), k + len(w))


def _check_series_recurrences(m, w0, w1, wf, a, c, d) -> None:
    """The proof recurrences on numerators over wf**(k+|w|): a_k = sum_{i<m-1}
    w0^i d_{k-1-i}, and c_k the same with w1 on the free terms, wf on the last."""
    a_coeffs = [w0**i for i in range(m - 1)]
    c_coeffs = [w1 * x for x in a_coeffs[:-1]] + [wf * a_coeffs[-1]]
    for k in range(m, len(a)):
        for seq, coeffs, name in ((a, a_coeffs, "a"), (c, c_coeffs, "c")):
            got, want = seq[k], sum(x * d[k - 1 - i] for i, x in enumerate(coeffs))
            if got != want:
                raise PullbackRecurrenceError(
                    f"{name}_{k} = {got} but recurrence gives {want} (m={m})"
                )


_SERIES_CYLINDERS = ("0", "1", "01", "10")  # the cylinders of a, b, c, d


def pullback_numerators(meas: BernoulliTypeMeasure, kmax: int) -> list[list]:
    """Numerators of a, b, c, d up to kmax for an exact p = a/b, over
    b**(k+|w|), validated against the proof recurrences."""
    if meas.mode != EXACT:
        raise ValueError("pullback_numerators requires exact mode")
    if kmax < meas.m:
        raise ValueError(f"kmax must be >= m={meas.m}, got {kmax}")
    m, weights = meas.m, meas.weights
    emissions = [_emission(m, *weights, s) for s in _SERIES_CYLINDERS]
    a, b, c, d = series = [[_mu_symbols(m, *weights, s)] for s in _SERIES_CYLINDERS]
    for z, o in islice(_masses(m, *weights), kmax):
        for seq, e in zip(series, emissions):
            seq.append(_dot(z, o, e))
    _check_series_recurrences(m, *weights, a, c, d)
    return series


def _transfer_matrix(m: int, p: float, q: float) -> np.ndarray:
    """The kernel's float transfer matrix: row i is `words._step` of unit state i.

    States are ordered (0, 1..m-1) then (1, 1..m-1).  Filled from the
    kernel's edges: the superdiagonal holds p on (0, r) -> (0, r+1), the
    forced flip (0, m-1) -> (1, 1) and q on (1, r) -> (1, r+1); column
    (1, 1) holds q from the free (0, r), and column (0, 1) p from the free
    (1, r) and 1.0 from the forced (1, m-1).  A unit mass times a weight is
    that weight exactly, so the entries are `_step`'s bit for bit.
    """
    import numpy as np
    n = 2 * (m - 1)
    matrix = np.zeros((n, n))
    matrix.flat[1 :: n + 1] = [p] * (m - 2) + [1.0] + [q] * (m - 2)
    matrix[: m - 2, m - 1] = q
    matrix[m - 1 :, 0] = p
    matrix[-1, 0] = 1.0
    return matrix


def _float_doubling(m: int, p: float, w: str, k: int):
    """(x P^(k-1) e, sum_{j<k-1} x P^j e) in binary64, for k >= 1.

    P is the kernel's S x S transfer matrix (S = 2(m-1)), x the start
    masses and e the emission of w: the float pullback at k, and the
    Cesaro sum past mu[w].  Doubling over the bits of k-1 keeps A = P^(2^i)
    and g = (sum_{j<2^i} P^j) e; a set bit adds x g to the sum and moves x
    on by A.  O(S^3 log k) at any k, slower than k kernel steps at large m
    and small k (medians of 5 rounds of 7-21 calls, 2-core x86-64 VM:
    m = 300, k = 5 take 22 ms against 0.18 ms; m = 150, k = 100 7 ms
    against 1.3 ms; k = 10**12 at m = 300 0.22 s).  All terms are
    nonnegative: no cancellation.  Each squaring rescales the rows of A to
    sum 1, else the rounding of p + (1-p) would double at every squaring,
    an error growing like k * 1e-16.  The tests hold the pullback's
    relative error to 1e-12 against the step loop (m <= 40, k <= 5000) and
    to 1e-14 against the exact stationary value at k = 10**12.
    """
    import numpy as np
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
    1e-12), to 1e-13 against exact averages of `pullback_numerators`
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


def numerator_dtype(b: int, exponent: int, count: int = 1):
    """np.int64 when count * b**(exponent + 1) < 2**63, else object: the
    dtype of an exact check whose values are proven at most count * b**exponent.

    A numerator over b**n on the kernel weights (a, b-a, b) of p = a/b is
    a product of n weights, each at most b, so it is at most b**n.  The
    masses after k symbols are nonnegative numerators over b**k that sum to
    b**k (a free state sends a + (b-a) = b times its mass on, a forced one
    b times it), and an emission of s from any state is a numerator over
    b**|s|.  On words of length <= L and shifts k <= kmax, every value of
    the gate's exact checks, partial products and sums included, is
    nonnegative and at most:
    - b**L for check 3, the closed form a^n0 (b-a)^n1 b^(|w|-n0-n1), its
      power tables, and the branching rule's numerators (exponent L);
    - count * b**L for check 4's level sums, with count the words of
      length L, the widest level (exponent L, count);
    - b**(L+2) for check 5: mu[w] mu[v] <= b**(|w|+|v|) <= b**L, times
      a(b-a) or b**2 in the test (exponent L + 2);
    - b**(kmax+L+4) for check 6: mu[w] b**k <= b**(|w|+k), the pullback
      sum_i mass_i e_i <= (sum_i mass_i) max_i e_i = b**k b**|w| with its
      partial sums below it, times (a(b-a))**2 or b**4 in the test
      (exponent kmax + L + 4).
    int64 holds every integer below 2**63 exactly, and the threshold keeps
    one more factor b >= 2 in hand, so a planted defect that moves a value
    by up to a factor b (a unit too many on a numerator, or one free
    symbol too many in check 3's closed form) stays exact too.  Past the
    threshold the same expressions run on Python ints.  A check picks once
    per order, for the largest b of its p, whose values share one array:
    a smaller denominator meets the same bound.
    """
    import numpy as np
    return np.int64 if count * b ** (exponent + 1) < 2**63 else object


def _quasi_bernoulli_bounds(a, b):
    """For p = a/b, the test (prod, mu_wv) -> whether mu[w]mu[v] <= mu[wv]
    and p(1-p)mu[wv] <= mu[w]mu[v], on numerators over b**|wv|; elementwise
    on arrays of numerators, and a and b may be arrays that broadcast
    against them, one p per row."""
    lhs, rhs = a * (b - a), b * b

    def holds(prod, mu_wv):
        return (prod <= mu_wv) & (lhs * mu_wv <= rhs * prod)

    return holds


def _pullback_bounds(a, b):
    """For p = a/b, the test (mu_k, pb) -> whether mu[w] <= c pb and
    pb <= c mu[w], c = (p(1-p))^-2; pb is a numerator over b**(k+|w|), and
    mu_k = mu[w] b**k puts mu[w] over the same power; elementwise on arrays
    of numerators, and a and b may be arrays that broadcast against them,
    one p per row."""
    lhs, rhs = (a * (b - a)) ** 2, b**4

    def holds(mu_k, pb):
        return (lhs * mu_k <= rhs * pb) & (lhs * pb <= rhs * mu_k)

    return holds


def _exact_weights(m: int, ps, check: str) -> list[tuple[int, int, int]]:
    """(a, b-a, b) of bernoulli(m, p) for each p in ps, all exact, or ValueError."""
    measures = [bernoulli(m, p) for p in ps]
    if any(meas.mode != EXACT for meas in measures):
        raise ValueError(f"{check} requires exact mode")
    return [meas.weights for meas in measures]


def quasi_bernoulli_check(tree: WordTree, ps) -> list[list[tuple[str, str]]]:
    """Violations of mu[w]mu[v] <= mu[wv] <= (p(1-p))^{-1} mu[w]mu[v], one
    list for each p in ps.

    mu is bernoulli(tree.m, p), p exact; exhaustive over pairs with wv
    admissible and |w|+|v| <= L, the tree's depth, the empty word
    included: the split points of the tree's words, each pair once.  The
    numerators of every p form one array, one row per p, in the dtype
    that `numerator_dtype` picks for the largest denominator, and each
    level of `WordTree.split_levels` is compared for all p at once.
    Expected empty; violations are listed by wv in tree order, then by
    split point.
    """
    import numpy as np
    weights = _exact_weights(tree.m, ps, "quasi_bernoulli_check")
    a, _, b = zip(*weights)
    L = len(tree.starts) - 2
    dtype = numerator_dtype(max(b), L + 2)
    mu = tree.numerators(weights, dtype)  # one row per p
    holds = _quasi_bernoulli_bounds(*(np.array(x, dtype=dtype)[:, None, None] for x in (a, b)))
    bad = [[] for _ in weights]
    for lo, (w, v) in zip(tree.starts, tree.split_levels()):
        prod = mu.take(w, axis=1)
        prod *= mu.take(v, axis=1)
        ok = holds(prod, mu[:, None, lo:lo + w.shape[1]])
        if np.count_nonzero(ok) < ok.size:
            # by u, then by split point: the last two axes swapped
            for k, r, i in zip(*(x.tolist() for x in np.nonzero(~ok.transpose(0, 2, 1)))):
                bad[k].append((tree.words[w[i, r]], tree.words[v[i, r]]))
    return bad


def pullback_bounds_check(tree: WordTree, ps, kmax: int) -> list[list[tuple[str, int]]]:
    """Violations of c^{-1} mu[w] <= mu(sigma^{-k}[w]) <= c mu[w], one list
    for each p in ps.

    mu is bernoulli(tree.m, p), p exact, and c = p^{-2}(1-p)^{-2};
    exhaustive over the tree's words, 1 <= |w| <= L, and 1 <= k <= kmax.
    Every pullback of every p is one batched array product, one row per p,
    of the masses after k symbols with the emissions of
    `WordTree.emissions`, in the dtype that `numerator_dtype` picks for the
    largest denominator.  Expected empty; violations are listed by w,
    shortest first, then k.
    """
    import numpy as np
    if kmax < 1:
        raise ValueError(f"kmax must be >= 1, got {kmax}")
    weights = _exact_weights(tree.m, ps, "pullback_bounds_check")
    a, _, b = zip(*weights)
    L = len(tree.starts) - 2
    dtype = numerator_dtype(max(b), kmax + L + 4)
    holds = _pullback_bounds(*(np.array(x, dtype=dtype)[:, None, None] for x in (a, b)))
    masses = [[z + o for z, o in islice(_masses(tree.m, *w), kmax)] for w in weights]
    scales = [[x**k for k in range(1, kmax + 1)] for x in b]
    masses, scales = (np.array(x, dtype=dtype) for x in (masses, scales))  # (p, k, ...)
    emissions = tree.emissions(weights, dtype)[:, :, 1:]  # non-empty words
    mu = tree.numerators(weights, dtype)[:, 1:]
    # for each p, rows are words and columns k = 1..kmax: violations in (w, k) order
    ok = holds(mu[:, :, None] * scales[:, None, :], (masses @ emissions).transpose(0, 2, 1))
    return [[(tree.words[1 + i // kmax], 1 + i % kmax) for i in np.flatnonzero(~row).tolist()]
            for row in ok]
