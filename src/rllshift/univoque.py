"""Finite-depth and exact decision procedures for univoque-type conditions.

A sequence is univoque when every shift lies strictly between the
sequence's complement and the sequence itself.  Finite windows can only
refute membership or stay clean to a depth; eventually periodic inputs
are decided exactly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .words import SequenceWindow, Word, is_admissible, symbols_of

VIOLATED = "violated"
CLEAN_TO_DEPTH = "clean-to-depth"
EXACT_MEMBER = "exact-member"
EXACT_NONMEMBER = "exact-nonmember"

STRICT = "strict"
WEAK = "weak"


@dataclass(frozen=True)
class GammaVerdict:
    status: str
    k: int | None = None
    position: int | None = None  # 1-based comparison position
    equality_flags: tuple[int, ...] = ()


@dataclass(frozen=True)
class FrequencyProfile:
    n: int
    ratio_series: np.ndarray
    liminf_est: float
    limsup_est: float


@dataclass(frozen=True)
class EventuallyPeriodicSequence:
    preperiod: str
    period: str

    def __post_init__(self):
        if not self.period:
            raise ValueError("period must be non-empty")
        for part in (self.preperiod, self.period):
            if part.strip("01") != "":
                raise ValueError(f"symbols must be '0'/'1', got {part!r}")

    def symbol(self, i: int) -> str:
        """0-based symbol access into preperiod then the repeating period."""
        if i < len(self.preperiod):
            return self.preperiod[i]
        return self.period[(i - len(self.preperiod)) % len(self.period)]

    def prefix(self, n: int) -> str:
        return "".join(self.symbol(i) for i in range(n))

    def normalized(self) -> "EventuallyPeriodicSequence":
        """Canonical form: minimal period, then minimal preperiod."""
        per = self.period
        L = len(per)
        for d in range(1, L + 1):
            if all(per[i % L] == per[(i + d) % L] for i in range(L)):
                per = "".join(per[i % L] for i in range(d))
                break
        pre = self.preperiod
        while pre and pre[-1] == per[-1]:
            pre = pre[:-1]
            per = per[-1] + per[:-1]
        return EventuallyPeriodicSequence(pre, per)


def _flip(c: str) -> str:
    return "1" if c == "0" else "0"


def gamma_check_prefix(w, depth: int) -> GammaVerdict:
    """Check strictness of all shifts up to `depth` against a finite window.

    Never claims membership: a comparison that stays equal through the
    whole overlap is recorded as an equality flag, not a violation (only
    the exact periodic check may escalate it).  A `violated` verdict
    carries the smallest offending shift and the deciding position.

    Each comparison starts past what earlier shifts already proved, as in
    the Z-algorithm, so the work is linear in depth plus the window length
    even on periodic windows, where comparing symbol by symbol from the
    start is quadratic.
    """
    s = symbols_of(w)
    n = len(s)
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if depth >= n:
        raise ValueError(f"depth {depth} needs a window longer than {n}")
    # same[k]: the common prefix of sigma^k w and w.  s[lo:hi] equals
    # s[:hi-lo], and s[clo:chi] is the complement of s[:chi-clo], so inside
    # them a comparison at k repeats the upper one at k-lo or k-clo.
    same = [n] + [0] * depth
    lo = hi = clo = chi = 0
    flags: list[int] = []
    for k in range(1, depth + 1):
        overlap = n - k
        # upper side: sigma^k w < w must stay possible
        i = min(hi - k, same[k - lo]) if k < hi else 0
        while i < overlap and s[k + i] == s[i]:
            i += 1
        same[k] = i
        if k + i > hi:
            lo, hi = k, k + i
        if i < overlap and s[k + i] == "1":  # sigma^k w is larger here
            return GammaVerdict(VIOLATED, k, i + 1, tuple(flags))
        upper_equal = i == overlap
        # lower side: complement(w) < sigma^k w must stay possible
        i = min(chi - k, same[k - clo]) if k < chi else 0
        while i < overlap and s[k + i] != s[i]:
            i += 1
        if k + i > chi:
            clo, chi = k, k + i
        if i < overlap and s[k + i] == "0":  # and smaller than the complement
            return GammaVerdict(VIOLATED, k, i + 1, tuple(flags))
        if upper_equal or i == overlap:
            flags.append(k)
    return GammaVerdict(CLEAN_TO_DEPTH, None, None, tuple(flags))


def gamma_check_periodic(
    s: EventuallyPeriodicSequence, variant: str = STRICT
) -> GammaVerdict:
    """Exact decision for eventually periodic sequences.

    Strict variant: complement(w) < sigma^k w < w for all k >= 1.
    Weak variant: the non-strict inequalities for all k >= 0.
    Shifts beyond preperiod+period repeat, so finitely many k decide, and
    each comparison is decided within preperiod+period symbols.
    """
    if variant not in (STRICT, WEAK):
        raise ValueError(f"variant must be {STRICT!r} or {WEAK!r}")
    seq = s.normalized()
    pre, per = len(seq.preperiod), len(seq.period)
    horizon = pre + per  # beyond this the pairwise comparison repeats
    k_start = 1 if variant == STRICT else 0
    for k in range(k_start, pre + per + 1):
        # upper: sigma^k w vs w; lower: sigma^k w vs complement(w)
        for flip, wrong in ((False, "greater"), (True, "less")):
            verdict = _compare_shifted(seq, k, horizon, flip)
            if verdict == wrong or (verdict == "equal" and variant == STRICT):
                return GammaVerdict(EXACT_NONMEMBER, k, None)
    return GammaVerdict(EXACT_MEMBER)


def _compare_shifted(
    seq: EventuallyPeriodicSequence, k: int, horizon: int, flip: bool
) -> str:
    """sigma^k seq against seq (or its complement): less/greater/equal."""
    bound = horizon + k  # both sides periodic past the preperiod
    for i in range(bound):
        a = seq.symbol(i + k)
        b = seq.symbol(i)
        if flip:
            b = _flip(b)
        if a != b:
            return "less" if a < b else "greater"
    return "equal"


def theta_embed(u: Word) -> SequenceWindow:
    """Prefix 1^{2m} u of the univoque-construction sequences.

    Since u is admissible, every aligned length-m block past the leading
    1-run avoids the forbidden constant blocks.
    """
    if not is_admissible(u):
        raise ValueError(f"{u.symbols!r} is not admissible for m={u.order}")
    return SequenceWindow("1" * (2 * u.order) + u.symbols)


def frequency_profile(w, tail_window: int | None = None) -> FrequencyProfile:
    """Prefix digit-0 ratios with liminf/limsup estimated on the tail.

    Default tail window: the final 10% of prefixes.  Finite-depth
    estimates are diagnostics, never membership certificates.
    """
    s = symbols_of(w)
    n = len(s)
    if n == 0:
        raise ValueError("frequency_profile needs a non-empty window")
    if tail_window is None:
        tail_window = max(1, n // 10)
    if not 1 <= tail_window <= n:
        raise ValueError(f"tail_window must lie in [1, {n}], got {tail_window}")
    bits = np.frombuffer(s.encode("ascii"), dtype=np.uint8) - ord("0")
    ratios = np.cumsum(bits == 0) / np.arange(1, n + 1)
    tail = ratios[-tail_window:]
    return FrequencyProfile(n, ratios, float(tail.min()), float(tail.max()))
