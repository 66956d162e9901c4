"""Combinatorics of run-length-limited binary words.

A word is admissible for order m when no run of equal symbols reaches
length m.  Everything here is pure and operates on immutable values.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

MIN_ORDER = 3
WORD_CAP = 1 << 21  # bound on the words one enumeration materializes


class CapacityError(Exception):
    """Enumeration would materialize more words than the caller allows."""


class InadmissibleWordError(ValueError):
    """An operation that requires an admissible word received one that is not."""


def _check_symbols(s: str) -> None:
    if s.strip("01") != "":
        raise ValueError(f"word symbols must be '0'/'1', got {s!r}")


def _check_order(m: int) -> None:
    if m < MIN_ORDER:
        raise ValueError(f"constraint order must be >= {MIN_ORDER}, got {m}")


@dataclass(frozen=True)
class Word:
    """A finite binary word together with its constraint order."""

    symbols: str
    order: int

    def __post_init__(self):
        _check_order(self.order)
        _check_symbols(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def __str__(self) -> str:
        return self.symbols


@dataclass(frozen=True)
class OccurrenceReport:
    """Positions whose digit can be flipped keeping the prefix admissible."""

    set0: tuple[int, ...]
    set1: tuple[int, ...]
    n0: int
    n1: int


@dataclass(frozen=True)
class MetricValue:
    """A d2 value: exact, or an upper bound when the windows never differ."""

    value: Fraction
    exact: bool


def symbols_of(x) -> str:
    """Accept a Word or raw '0'/'1' string."""
    if isinstance(x, Word):
        return x.symbols
    if isinstance(x, str):
        _check_symbols(x)
        return x
    raise TypeError(f"expected Word or str, got {type(x)!r}")


def is_admissible_symbols(m: int, s: str) -> bool:
    """True iff s has no run of m equal symbols: the definition of Lambda_m."""
    _check_order(m)
    return "0" * m not in s and "1" * m not in s


def is_admissible(w: Word) -> bool:
    """True iff every maximal run in w has length <= m-1."""
    return is_admissible_symbols(w.order, w.symbols)


# ---------------------------------------------------------------------------
# run-state kernel: the transfer matrix of the shift of finite type.  States
# are (digit, run length r), 1 <= r <= m-1, held as two dense lists z (digit
# 0) and o (digit 1) indexed by r-1.  A free 0 weighs w0, a free 1 weighs w1,
# and the flip out of a maximal run is forced and weighs wf.  Counting uses
# (1, 1, 1); a measure with p = a/b uses (a, b-a, b), so every value is an
# integer numerator over b**(symbols read); a float p uses (p, 1-p, 1).


def _start(m: int, w0, w1):
    """Masses after one symbol: (z, o) for the states (0, r) and (1, r)."""
    zero = w0 * 0
    return [w0] + [zero] * (m - 2), [w1] + [zero] * (m - 2)


def _step(z, o, w0, w1, wf):
    """Masses after one more symbol."""
    if wf != 1:  # weigh the maximal runs, z[-1] and o[-1], for their forced flip
        z, o = z[:-1] + [z[-1] * wf], o[:-1] + [o[-1] * wf]
    # sums over the free states (r < m-1), started at r = 1 to add no zero
    return (
        [sum(o[1:-1], o[0]) * w0 + o[-1]] + [x * w0 for x in z[:-1]],
        [sum(z[1:-1], z[0]) * w1 + z[-1]] + [x * w1 for x in o[:-1]],
    )


def _emission(m: int, w0, w1, wf, s: str):
    """(ez, eo): the weight of reading s from each state, built from the back.

    All zeros when s is inadmissible; all ones for the empty word.
    """
    ez = eo = [w0**0] * (m - 1)
    for c in reversed(s):
        w, nxt = (w0, ez) if c == "0" else (w1, eo)  # the rest of s, from digit c
        stay = [w * x for x in nxt[1:]] + [nxt[0] * 0]  # a run of c reaching m dies
        flip = [w * nxt[0]] * (m - 2) + [wf * nxt[0]]  # forced out of a maximal run
        ez, eo = (stay, flip) if c == "0" else (flip, stay)
    return ez, eo


def _dot(z, o, e):
    """Total weight of the masses (z, o) followed by the emission e."""
    ez, eo = e
    return sum(map(mul, z, ez)) + sum(map(mul, o, eo))


def count_words(m: int, n: int) -> int:
    """Number of admissible words of length n (1 for the empty word)."""
    _check_order(m)
    if n < 0:
        raise ValueError(f"length must be >= 0, got {n}")
    if n == 0:
        return 1
    z, o = _start(m, 1, 1)
    for _ in range(n - 1):
        z, o = _step(z, o, 1, 1, 1)
    return sum(z) + sum(o)


def _levels(m: int, n: int):
    """Yield the admissible words of each length 0..n, each in lexicographic order.

    Appending '0', then '1', to each word of a sorted level keeps the next
    level sorted.  Raises CapacityError before building any level when
    length n, the largest level, holds more than WORD_CAP words.
    """
    total = count_words(m, n)
    if total > WORD_CAP:
        raise CapacityError(
            f"{total} words of length {n} exceed the cap {WORD_CAP}; use count_words"
        )
    level = [""]
    yield level
    for _ in range(n):
        level = [w + c for w in level for c in "01" if not w.endswith(c * (m - 1))]
        yield level


def enumerate_words(m: int, n: int) -> list[Word]:
    """All admissible words of length n in lexicographic order.

    Raises CapacityError when the list would exceed WORD_CAP entries; use
    count_words for sizes beyond that.
    """
    for level in _levels(m, n):
        pass
    return [Word(w, m) for w in level]


def words_upto(m: int, L: int) -> list[str]:
    """Every admissible word of length <= L, shortest first, from the empty word."""
    return [w for level in _levels(m, L) for w in level]


def admissible_pairs(table, L: int):
    """Yield (w, v, wv) for the keys w, v of `table` with |wv| <= L and wv admissible.

    `table` is a shortest-first dict holding every admissible word of length
    <= L (keyed by words_upto), so `wv in table` decides admissibility and
    `table[wv]` is the stored value.  Order: w, then v, each shortest first.
    """
    for w in table:
        for v in table:
            if len(w) + len(v) > L:
                break
            wv = w + v
            if wv in table:
                yield w, v, wv


def occurrence_counts(m: int, s: str) -> tuple[int, int]:
    """(n0, n1) of the occurrence report, for any '0'/'1' string s.

    A 0 is forced, and left out of n0, exactly when a run of at least m-1
    ones ends right before it: when it closes an occurrence of 1^{m-1}0.
    Such occurrences cannot overlap, so str.count counts them; n1 likewise.
    """
    return (
        s.count("0") - s.count("1" * (m - 1) + "0"),
        s.count("1") - s.count("0" * (m - 1) + "1"),
    )


def occurrence_report(w: Word) -> OccurrenceReport:
    """Flip-admissible positions of w (1-based), for an admissible word.

    The forced positions close the occurrences of 1^{m-1}0 and 0^{m-1}1
    that `occurrence_counts` counts; every other position is free.
    """
    if not is_admissible(w):
        raise InadmissibleWordError(f"{w.symbols!r} is not admissible for m={w.order}")
    m, s = w.order, w.symbols
    # the end of a match, 0-based and exclusive, is the 1-based closing position
    forced = {hit.end() for pattern in ("1" * (m - 1) + "0", "0" * (m - 1) + "1")
              for hit in re.finditer(pattern, s)}
    free = [(k, c) for k, c in enumerate(s, start=1) if k not in forced]
    set0 = tuple(k for k, c in free if c == "0")
    set1 = tuple(k for k, c in free if c == "1")
    return OccurrenceReport(set0, set1, len(set0), len(set1))


def complement(x):
    """Symbolwise flip; an involution that preserves admissibility."""
    flipped = symbols_of(x).translate(str.maketrans("01", "10"))
    if isinstance(x, Word):
        return Word(flipped, x.order)
    return flipped


def pi2(x) -> Fraction:
    """Projection to [0,1]: sum of w_n / 2^n over the finite word."""
    s = symbols_of(x)
    if not s:
        return Fraction(0)
    return Fraction(int(s, 2), 2 ** len(s))


def d2(w, v) -> MetricValue:
    """Metric 2^{-inf{k>=0: w_{k+1} != v_{k+1}}} on finite windows.

    Exact when the windows differ within the common length L; otherwise an
    upper-bound sentinel (value 2^{-L}, exact=False).  Callers must branch
    on `exact`.
    """
    a, b = symbols_of(w), symbols_of(v)
    if not a or not b:
        raise ValueError("d2 requires non-empty windows")
    common = min(len(a), len(b))
    for i in range(common):
        if a[i] != b[i]:
            return MetricValue(Fraction(1, 2**i), True)
    return MetricValue(Fraction(1, 2**common), False)
