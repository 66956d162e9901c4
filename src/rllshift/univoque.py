"""Finite-depth and exact decision procedures for univoque-type conditions.

A sequence is univoque when every shift lies strictly between the
sequence's complement and the sequence itself.  Finite windows can only
refute membership or stay clean to a depth; eventually periodic inputs
are decided exactly.
"""
from __future__ import annotations

from dataclasses import dataclass

from .words import _check_symbols, _require_admissible

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


def gamma_check_prefix(s: str, depth: int) -> GammaVerdict:
    """Check strictness of all shifts up to `depth` against a finite window.

    Never claims membership: a comparison that stays equal through the
    whole overlap is recorded as an equality flag, not a violation (only
    the exact periodic check may escalate it).  A `violated` verdict
    carries the smallest offending shift and the deciding position.

    Each comparison starts past what earlier shifts already proved, as in
    the Z-algorithm, so the work is linear in depth plus the window length
    even on periodic windows, where comparing symbol by symbol from the
    start is quadratic.

    Most shifts need no comparison at all.  Let s start with '1', f be the
    length of its leading run, and take a shift k whose run, read from k,
    has r < f symbols and ends inside s (k + r < n).  Then s[:r] = 1^r and
    s[r] = '1', and both comparisons resolve strictly:

    - upper: if s[k] = '1', s[k:k+r] = s[:r] and s[k+r] = '0' < s[r]; if
      s[k] = '0', s[k] < s[0] at once;
    - lower: if s[k] = '0', s[k:k+r] = 0^r is the complement of s[:r] and
      s[k+r] = '1' exceeds the complement '0' of s[r]; if s[k] = '1', it
      exceeds the complement '0' of s[0] at once.

    So neither violates nor ties, and `_compared_shifts` yields only the
    others: the k where f equal symbols start, and the k in the last run.
    A skipped shift j also has a closed-form common prefix with s, which
    the Z-box lookups read: the 1's from j up to the next '0', none if
    s[j] = '0'.  A window that starts with '0' violates at k = 1.
    """
    _check_symbols(s)
    n = len(s)
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if depth >= n:
        raise ValueError(f"depth {depth} needs a window longer than {n}")
    # same[k]: the common prefix of sigma^k w and w, -1 while unknown.
    # s[lo:hi] equals s[:hi-lo], and s[clo:chi] is the complement of
    # s[:chi-clo], so inside them a comparison at k repeats the upper one at
    # k-lo or k-clo.
    same = [n] + [-1] * depth
    lo = hi = clo = chi = 0
    flags: list[int] = []
    for shifts in _compared_shifts(s, depth):
        for k in shifts:
            overlap = n - k
            # upper side: sigma^k w < w must stay possible
            i = min(hi - k, same[k - lo]) if k < hi else 0
            if i < 0:  # k - lo was skipped: its 1's up to the next '0'
                i = min(hi - k, s.find("0", k - lo) - k + lo)
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
            if i < 0:
                i = min(chi - k, s.find("0", k - clo) - k + clo)
            while i < overlap and s[k + i] != s[i]:
                i += 1
            if k + i > chi:
                clo, chi = k, k + i
            if i < overlap and s[k + i] == "0":  # and smaller than the complement
                return GammaVerdict(VIOLATED, k, i + 1, tuple(flags))
            if upper_equal or i == overlap:
                flags.append(k)
    return GammaVerdict(CLEAN_TO_DEPTH, None, None, tuple(flags))


def _compared_shifts(s: str, depth: int):
    """Yield as increasing ranges the shifts that gamma_check_prefix compares.

    Every shift when s starts with '0', is constant, or starts with a
    single '1' (f = 1: every run is as long as the leading one).  Otherwise
    the shifts where f equal symbols start, one `find` per long run, and
    the shifts of the last run.
    """
    n = len(s)
    f = n - len(s.lstrip("1"))
    if f <= 1 or f == n:
        yield range(1, depth + 1)
        return
    blocks = ("0" * f, "1" * f)
    at = [s.find(blocks[0], f), s.find(blocks[1], f)]  # s[f] is '0'
    while True:
        c = 0 if at[1] < 0 or 0 <= at[0] < at[1] else 1
        a = at[c]
        if a < 0 or a > depth:
            break
        end = s.find("10"[c], a)  # the run of c from a ends before it
        if end < 0:  # it is the last run
            yield range(a, depth + 1)
            return
        yield range(a, min(end - f, depth) + 1)
        at[c] = s.find(blocks[c], end)  # the other symbol's next block is past end
    yield range(len(s.rstrip(s[-1])), depth + 1)


def clean_windows(L: int):
    """Yield every length-L window clean to depth L-1, in lexicographic order.

    The windows that gamma_check_prefix at depth L-1 finds clean, by a
    depth-first search that extends only clean prefixes.  A node, prefix s
    of length n, carries two sets of shifts k < n: `upper`, where s[k:]
    equals s[:n-k], and `lower`, where s[k:] is the complement of s[:n-k].
    Every other shift has met its first difference inside s, so its
    comparison is settled in every extension of s:

    - a violation is final: each extension compares the same symbols at
      the same shift, still within depth, so dropping the node loses no
      window;
    - a shift that resolved strictly stays resolved.

    So the two tied sets are all the state a node needs.  Appending c
    tests c only at the tied shifts and at the new shift n, whose empty
    overlap ties on both sides.  With c = '1', every upper tie needs
    s[n-k] = '1', else sigma^k s exceeds s; lower ties with s[n-k] = '0'
    stay tied, the rest resolve strictly.  With c = '0' it is the mirror:
    every lower tie needs s[n-k] = '1', else sigma^k s falls below the
    complement, and upper ties with s[n-k] = '0' stay tied.

    A set is a bit mask in which bit j stands for the shift n-j, whose
    next comparison reads s[j]; `ones` masks the 1's of s.  "Every tie
    reads a '1'" is then `not upper & ~ones`, and one more symbol shifts a
    mask left by one: a node costs a few integer operations, not a
    gamma_check_prefix scan.
    """
    if L < 2:
        raise ValueError(f"window length must be >= 2, got {L}")
    # (s, ones, upper, lower); length-1 prefixes compare no shifts
    stack = [("1", 1, 0, 0), ("0", 0, 0, 0)]
    while stack:
        s, ones, upper, lower = stack.pop()
        n = len(s)
        if n == L:
            yield s
            continue
        upper, lower = upper | 1, lower | 1  # the new shift n compares s[0]
        if not upper & ~ones:
            stack.append((s + "1", ones | 1 << n, upper << 1, (lower & ~ones) << 1))
        if not lower & ~ones:  # pushed last, so '0' pops first
            stack.append((s + "0", ones, (upper & ~ones) << 1, lower << 1))


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


def theta_embed(m: int, u: str) -> str:
    """Prefix 1^{2m} u of the univoque-construction sequences.

    Since u is admissible, every aligned length-m block past the leading
    1-run avoids the forbidden constant blocks.
    """
    _require_admissible(m, u)
    return "1" * (2 * m) + u
