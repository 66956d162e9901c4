"""Dimension formulas for frequency sets of the constrained shift space.

f_m carries digit-0 frequency of the invariant measure as a function of
the branching parameter; q_m inverts it at a target frequency p; the
lower bound approaches the binary entropy h(p) as m grows.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .words import _check_open_unit, _check_order

LOG2 = math.log(2.0)
TOL = 1e-12  # the largest |f_m(q) - p| that `solve_qm` accepts at its root
_MARGIN = 2.0**-46  # over 30x the error of `_f_float`; see `solve_qm`


@dataclass(frozen=True)
class DimensionProfile:
    m: int
    p: float
    q: float | None
    lower_bound: float | None
    entropy: float
    topo_dim: float


def _f_float(m: int, x: float) -> float:
    """f_m at a float x in (0, 1), unchecked: the kernel of `f_m`.

    x > 1/2 goes through f_m(x) = 1 - f_m(1-x), with 1-x exact; the
    denominator 1 - x^m - (1-x)^m takes (1-x)^m as expm1/log1p to survive
    tiny x.  Each branch takes its power once.  The result is within
    4e-16 of the exact f_m at the same binary x, relative: a few
    roundings, none of them cancelling (the tests hold it to that for
    m <= 1100 against the Fraction route).  `solve_qm` rests its skipped
    midpoints on this bound.
    """
    if x > 0.5:
        y = 1.0 - x
        ym = y**m
        return 1.0 - (y - ym) / (-math.expm1(m * math.log1p(-y)) - ym)
    xm = x**m
    return (x - xm) / (-math.expm1(m * math.log1p(-x)) - xm)


def f_m(m: int, x):
    """(x - x^m) / (1 - x^m - (1-x)^m); limits 1/m and 1-1/m at the ends.

    The closed-form oracle for lambda_x[0]; exact for a Fraction x, and
    elementwise for a float ndarray, which must lie in (0, 1) everywhere.
    A float x > 1/2 uses f_m(x) = 1 - f_m(1-x), with 1-x exact, to stay
    accurate.
    """
    _check_order(m)
    np = sys.modules.get("numpy")  # x cannot be an ndarray if numpy is not loaded
    if np is not None and isinstance(x, np.ndarray):
        if x.size:  # an empty x has no ends to check
            for end in (x.min(), x.max()):
                _check_open_unit(end, "x")  # a nan element makes both ends nan
        low = np.minimum(x, 1.0 - x)  # x, or the exact 1-x where x > 1/2
        f = (low - low**m) / (-np.expm1(m * np.log1p(-low)) - low**m)
        return np.where(x > 0.5, 1.0 - f, f)
    _check_open_unit(x, "x")
    if isinstance(x, Fraction):
        return (x - x**m) / (1 - x**m - (1 - x) ** m)
    return _f_float(m, x)


def g_m(m: int, x):
    """x - f_m(x) = (x^m(1-x) - x(1-x)^m) / (1 - x^m - (1-x)^m).

    Exact for a Fraction x; elementwise for a float ndarray, which must lie
    in (0, 1) everywhere.  In floats the absolute error is a few ulps of 1,
    about 2e-16, at any x: f_m is accurate near both ends, and the
    subtraction adds one rounding.
    """
    return x - f_m(m, x)


def _check_p(m: int, p: float) -> None:
    if not 1.0 / m < p < 1.0 - 1.0 / m:
        raise ValueError(f"p must lie in (1/{m}, 1-1/{m}), got {p}")


def _certified(h, x: float, d: float, margin: float, lo: float, hi: float):
    """The first [x - d, x + d] inside (lo, hi), for d, 16d, 256d, ...
    below 2e-6, with h(x - d) < -margin and h(x + d) > margin; else
    [lo, hi].  h is increasing through its root near x."""
    while d < 2e-6:
        a, b = x - d, x + d
        if not lo < a < b < hi:
            break
        if h(a) < -margin and h(b) > margin:
            return a, b
        d *= 16.0
    return lo, hi


def _qm_bracket(m: int, p: float) -> tuple[float, float]:
    """[a, b] around the root of f_m = p, certified as `solve_qm` says, or
    [0, 1] when no half-width below 2e-6 certifies.

    Secant steps from p find the root to about 1e-16; the half-width
    starts from the margin over the secant slope.
    """
    x0, r0 = p, _f_float(m, p) - p
    # f_m(x) - x is small: a slope-1 first step, at least 1e-9 long so
    # that the secant slope stands clear of the kernel's rounding
    x1 = p - r0 if abs(r0) > 1e-9 else p + 1e-9
    slope = 0.0
    for _ in range(12):
        if not 0.0 < x1 < 1.0:
            return 0.0, 1.0
        r1 = _f_float(m, x1) - p
        if r1 == r0:
            break
        slope = (r1 - r0) / (x1 - x0)
        x0, r0, x1 = x1, r1, x1 - r1 / slope
        if abs(x1 - x0) < 1e-9:
            break
    if not slope > 0.0:
        return 0.0, 1.0
    return _certified(
        lambda x: _f_float(m, x) - p, x1, 3 * _MARGIN / slope, 2 * _MARGIN, 0.0, 1.0
    )


def solve_qm(m: int, p: float) -> float:
    """Root of f_m(q) = p by bisection on (0, 1).

    Requires the standing assumption 1/m < p < 1 - 1/m.  The ends of the
    bracket take the limits 1/m and 1-1/m of f_m, which lie below/above p,
    and are never returned.  Raises ValueError when no float q inside
    (0, 1) brings |f_m(q) - p| to TOL, as happens within a few ulps of the
    ends, where f_m loses accuracy in binary64.

    m and p are checked once; a step then calls `_f_float`, the kernel
    that `f_m` runs after its own checks, so every midpoint, every
    comparison and the returned q are those of bisecting `f_m` itself.
    The bracket halves until it is one ulp wide: about 53 steps for a
    root in (1e-3, 1 - 1e-3), at most 59.  Only a midpoint inside a
    certified bracket [a, b] around the root calls the kernel: about 15
    calls a root with the bracket's own.

    Why a skipped midpoint takes the old loop's side.  With
    E0 = 1 + x + ... + x^(m-2) and E1 = 1 + (1-x) + ... + (1-x)^(m-2),
    x - x^m = x(1-x) E0 and (1-x) - (1-x)^m = x(1-x) E1 add up to the
    denominator, so f_m = E0/(E0+E1) = 1/(1 + E1/E0), strictly increasing
    on (0, 1) as E0 grows and E1 shrinks.  The kernel errs by at most
    delta = 4e-16 (relative, and f < 1), and the margin eps = 2^-46 is
    over 30 delta.  If the kernel gives f(a) - p < -2 eps, then for x < a
    the exact f(x) < f(a) < p - 2 eps + delta, so the kernel's
    f(x) < p - 2 eps + 2 delta < p, and f(x) - p is negative: the old
    loop moves lo to x.
    f(b) - p > 2 eps likewise moves hi to every x > b.  An end of the
    final bracket that was skipped (none is, as the root lies between a
    and b) would get its residual once, for the nearer-end choice and the
    TOL test.  `_qm_bracket` finds [a, b] by secant steps; where they
    leave (0, 1) or no half-width below 2e-6 certifies, as within ulps of
    the domain's ends, [a, b] is [0, 1] and no midpoint is skipped.
    """
    _check_order(m)
    _check_p(m, p)
    a, b = _qm_bracket(m, p)
    lo, hi = 0.0, 1.0
    flo, fhi = 1.0 / m - p, 1.0 - 1.0 / m - p
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # bracket down to one ulp
            break
        if mid < a:
            lo, flo = mid, None
            continue
        if mid > b:
            hi, fhi = mid, None
            continue
        fmid = _f_float(m, mid) - p
        if fmid == 0.0:
            return mid
        if fmid > 0:
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid
    if flo is None:
        flo = _f_float(m, lo) - p
    if fhi is None:
        fhi = _f_float(m, hi) - p
    # the end of the last bracket nearer the root; 0 and 1 are never roots
    q, res = (hi, fhi) if lo == 0.0 or (hi < 1.0 and fhi < -flo) else (lo, flo)
    if abs(res) > TOL:
        raise ValueError(f"no root within tol={TOL} for m={m}, p={p}")
    return q


def lower_bound(m: int, p: float, q: float) -> float:
    """(-(mp-1) log q - (m-mp-1) log(1-q)) / ((m-1) log 2)."""
    _check_order(m)
    _check_open_unit(q, "q")
    _check_p(m, p)
    num = -(m * p - 1.0) * math.log(q) - (m - m * p - 1.0) * math.log1p(-q)
    return num / ((m - 1) * LOG2)


def entropy_binary(p: float) -> float:
    """Binary entropy h(p) in bits, with the 0 log 0 := 0 convention."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0,1], got {p}")
    if p in (0.0, 1.0):
        return 0.0
    return (-p * math.log(p) - (1.0 - p) * math.log1p(-p)) / LOG2


def _growth_log(m: int, x: float) -> float:
    """G(x) = (m-1) log x + log(2 - x), the log of x^(m-1) (2 - x), for x
    in (1, 2); its root is the growth root."""
    return (m - 1) * math.log(x) + math.log(2.0 - x)


def _growth_bracket(m: int) -> tuple[float, float]:
    """[a, b] around the growth root, certified as `growth_root` says, or
    [1, 2] when none certifies, as where 2 - 2^(1-m) rounds to 2.

    Newton steps from 2 - 2^(1-m) approach the root from above; the
    half-width starts from the margin over |G'|.
    """
    margin = m * 2.0**-48
    x = 2.0 - 2.0 ** (1 - m)
    slope = 0.0
    for _ in range(12):
        if not 1.0 < x < 2.0:
            return 1.0, 2.0
        slope = (m - 1) / x - 1.0 / (2.0 - x)
        step = _growth_log(m, x) / slope
        x -= step
        if abs(step) < 1e-9:
            break
    d = max(3 * margin / -slope, 4 * math.ulp(x))
    return _certified(lambda t: -_growth_log(m, t), x, d, margin, 1.0, 2.0)


def growth_root(m: int) -> float:
    """Positive root of x^{m-1} = x^{m-2} + ... + x + 1 in (1, 2), to 1e-14.

    Times (x - 1) the equation reads x^{m-1} (2 - x) = 1.  Its log,
    G(x) = (m-1) log x + log(2 - x), is positive on (1, root) and negative
    on (root, 2), and stays finite where x^{m-1} overflows (m >= 1026).
    The bisection takes its 47 steps, but only a midpoint inside a
    certified bracket [a, b] around the root evaluates G: about 5
    evaluations a root for m <= 50, with the bracket's own, not 47.

    Why a skipped midpoint takes the old loop's side.  G is concave, zero
    at 1, and falls from its peak at 2(m-1)/m < root to -inf at 2.  The
    first midpoint is 1.5, where G = (m-1) log 1.5 - log 2 > 0.1, so every
    later one lies in (1.5, 2).  The float G errs by at most 4 units of
    2^-53 times (m-1) log x + |log(2-x)|, which near the root is under a
    fifth of the margin m 2^-48.  If the float G(a) > margin, the concave
    G stays above min(G(1.5), G(a)) on [1.5, a], so a midpoint below a
    computes G >= 0 and moves lo; if the float G(b) < -margin, G falls
    on (b, 2), further below -margin than its error grows, so a midpoint
    above b computes G < 0 and moves hi.  `_growth_bracket` finds [a, b]
    by Newton steps; where 2 - 2^(1-m) rounds to 2 (m >= 54) or no
    half-width below 2e-6 certifies (m >= 51, where the root is within
    4 ulps of 2), [a, b] is [1, 2] and every midpoint evaluates G, as
    before.
    """
    _check_order(m)
    a, b = _growth_bracket(m)
    lo, hi = 1.0, 2.0
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        if mid < a:
            lo = mid
        elif mid > b or _growth_log(m, mid) < 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def topo_dim(m: int) -> float:
    """Dimension of the full constrained set: log(growth rate) / log 2."""
    return math.log(growth_root(m)) / LOG2


def profiles(m: int, ps) -> list[DimensionProfile]:
    """The profile at each p of ps, in order, with one topo_dim(m); q and
    the bound exist only for 1/m < p < 1-1/m."""
    topo = topo_dim(m)
    out = []
    for p in ps:
        q = bound = None
        if 1.0 / m < p < 1.0 - 1.0 / m:
            q = solve_qm(m, p)
            bound = lower_bound(m, p, q)
        out.append(DimensionProfile(m, p, q, bound, entropy_binary(p), topo))
    return out
