"""Finite-depth and exact decision procedures for univoque-type conditions.

A sequence is univoque when every shift lies strictly between the
sequence's complement and the sequence itself.  Finite windows can only
refute membership or stay clean to a depth; eventually periodic inputs
are decided exactly.
"""
from __future__ import annotations

from dataclasses import dataclass

from .words import InadmissibleWordError, Word, _check_symbols, is_admissible, symbols_of

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
class EventuallyPeriodicSequence:
    preperiod: str
    period: str

    def __post_init__(self):
        if not self.period:
            raise ValueError("period must be non-empty")
        _check_symbols(self.preperiod)
        _check_symbols(self.period)

    def prefix(self, n: int) -> str:
        per = self.period
        return (self.preperiod + per * (n // len(per) + 1))[:n]

    def normalized(self) -> "EventuallyPeriodicSequence":
        """Canonical form: minimal period, then minimal preperiod."""
        # the smallest rotation that maps the period to itself
        per = self.period[: (self.period * 2).find(self.period, 1)]
        pre = self.preperiod
        while pre and pre[-1] == per[-1]:
            pre = pre[:-1]
            per = per[-1] + per[:-1]
        return EventuallyPeriodicSequence(pre, per)


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


def clean_windows(L: int):
    """Yield every length-L window clean to depth L-1, in lexicographic order.

    A depth-first search that extends only prefixes that are still clean,
    each decided by gamma_check_prefix at depth len - 1.  Pruning loses no
    window: a violation at shift k in a prefix compares sigma^k s with s (or
    with its complement) up to a position inside the prefix, and every
    extension of the prefix makes the same comparison, still within depth,
    and reaches the same difference.  So every prefix of a clean window is
    clean.
    """
    if L < 2:
        raise ValueError(f"window length must be >= 2, got {L}")
    stack = ["1", "0"]  # length-1 prefixes compare no shifts
    while stack:
        s = stack.pop()
        n = len(s)
        if n > 1 and gamma_check_prefix(s, n - 1).status != CLEAN_TO_DEPTH:
            continue
        if n == L:
            yield s
        else:
            stack += (s + "1", s + "0")  # '0' pops first


def gamma_check_periodic(
    s: EventuallyPeriodicSequence, variant: str = STRICT
) -> GammaVerdict:
    """Exact decision for eventually periodic sequences.

    Strict variant: complement(w) < sigma^k w < w for all k >= 1.
    Weak variant: the non-strict inequalities for all k >= 0.

    With H = preperiod + period of the normalized sequence, shifts past H
    repeat, so k <= H decide.  Past the preperiod both sides of a
    comparison are periodic with the period, so two sides that agree on
    their first H symbols agree forever.  The prefix scan of the window
    w[:3H] at depth H compares each k <= H over 3H - k >= H + k symbols,
    so its violations are exact and its equality flags are exact ties.
    Strictness fails at the first violation or tie; the weak variant
    ignores ties, and fails at k = 0 exactly when w starts with 0.
    """
    if variant not in (STRICT, WEAK):
        raise ValueError(f"variant must be {STRICT!r} or {WEAK!r}")
    seq = s.normalized()
    horizon = len(seq.preperiod) + len(seq.period)
    window = seq.prefix(3 * horizon)
    if variant == WEAK and window[0] == "0":
        return GammaVerdict(EXACT_NONMEMBER, 0, None)
    scan = gamma_check_prefix(window, horizon)
    k = scan.k
    if variant == STRICT and scan.equality_flags:
        k = scan.equality_flags[0]  # ties are only flagged before a violation
    if k is None:
        return GammaVerdict(EXACT_MEMBER)
    return GammaVerdict(EXACT_NONMEMBER, k, None)


def theta_embed(u: Word) -> str:
    """Prefix 1^{2m} u of the univoque-construction sequences.

    Since u is admissible, every aligned length-m block past the leading
    1-run avoids the forbidden constant blocks.
    """
    if not is_admissible(u):
        raise InadmissibleWordError(f"{u.symbols!r} is not admissible for m={u.order}")
    return "1" * (2 * u.order) + u.symbols
