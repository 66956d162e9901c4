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
    tiny x.
    """
    if x > 0.5:
        return 1.0 - _f_float(m, 1.0 - x)
    return (x - x**m) / (-math.expm1(m * math.log1p(-x)) - x**m)


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


def solve_qm(m: int, p: float) -> float:
    """Root of f_m(q) = p by bisection on (0, 1).

    Requires the standing assumption 1/m < p < 1 - 1/m.  The ends of the
    bracket take the limits 1/m and 1-1/m of f_m, which lie below/above p,
    and are never returned.  Raises ValueError when no float q inside
    (0, 1) brings |f_m(q) - p| to TOL, as happens within a few ulps of the
    ends, where f_m loses accuracy in binary64.

    m and p are checked once; each step then calls `_f_float`, the
    kernel that `f_m` runs after its own checks, so every midpoint, every
    comparison and the returned q are those of bisecting `f_m` itself.
    The bracket halves until it is one ulp wide: about 53 steps for a
    root in (1e-3, 1 - 1e-3), at most 59, each one kernel call of
    0.4-0.5 us against 0.9-1.3 us through `f_m` (2-core x86-64 VM,
    Python 3.11).
    """
    _check_order(m)
    _check_p(m, p)
    lo, hi = 0.0, 1.0
    flo, fhi = 1.0 / m - p, 1.0 - 1.0 / m - p
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # bracket down to one ulp
            break
        fmid = _f_float(m, mid) - p
        if fmid == 0.0:
            return mid
        if fmid > 0:
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid
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


def growth_root(m: int) -> float:
    """Positive root of x^{m-1} = x^{m-2} + ... + x + 1 in (1, 2), to 1e-14.

    Times (x - 1) the equation reads x^{m-1} (2 - x) = 1.  Its log,
    (m-1) log x + log(2 - x), is positive on (1, root) and negative on
    (root, 2), and stays finite where x^{m-1} overflows (m >= 1026).
    """
    _check_order(m)
    lo, hi = 1.0, 2.0
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        if (m - 1) * math.log(mid) + math.log(2.0 - mid) < 0:
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
