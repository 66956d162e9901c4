"""Combinatorics of run-length-limited binary words.

A word is a plain '0'/'1' str; it is admissible for order m when no run
of equal symbols reaches length m.  A function that needs the order takes
m as its first argument.  Everything here is pure.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice
from operator import mul

import numpy as np

MIN_ORDER = 3
WORD_CAP = 1 << 21  # bound on the longest level one enumeration materializes


class CapacityError(Exception):
    """Enumeration would materialize more words than the caller allows."""


class InadmissibleWordError(ValueError):
    """An operation that requires an admissible word received one that is not."""


_DROP_SYMBOLS = str.maketrans("", "", "01")


def _check_symbols(s: str) -> None:
    # one table pass in C; strip("01") is several times slower on long words
    if s.translate(_DROP_SYMBOLS):
        raise ValueError(f"word symbols must be '0'/'1', got {s!r}")


def _check_order(m: int) -> None:
    if m < MIN_ORDER:
        raise ValueError(f"constraint order must be >= {MIN_ORDER}, got {m}")


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


def is_admissible_symbols(m: int, s: str) -> bool:
    """True iff s has no run of m equal symbols: the definition of Lambda_m.

    Raises ValueError for m < 3 or a symbol other than '0'/'1'.
    """
    _check_order(m)
    _check_symbols(s)
    return "0" * m not in s and "1" * m not in s


def _require_admissible(m: int, s: str) -> None:
    if not is_admissible_symbols(m, s):
        raise InadmissibleWordError(f"{s!r} is not admissible for m={m}")


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


def _masses(m: int, w0, w1, wf):
    """Yield the masses (z, o) after 1, 2, ... symbols: `_start`, then `_step`."""
    z, o = _start(m, w0, w1)
    while True:
        yield z, o
        z, o = _step(z, o, w0, w1, wf)


def _emission(m: int, w0, w1, wf, s: str):
    """(ez, eo): the weight of reading s from each state, built from the back.

    All zeros when s is inadmissible; all ones for the empty word.
    """
    e = ([w0**0] * (m - 1),) * 2
    for c in reversed(s):
        e = _prepend(m, w0, w1, wf, c, e)
    return e


def _prepend(m: int, w0, w1, wf, c: str, e):
    """The emission of c + s from the emission e of s."""
    ez, eo = e
    w, nxt = (w0, ez) if c == "0" else (w1, eo)  # the rest, from digit c
    stay = [w * x for x in nxt[1:]] + [nxt[0] * 0]  # a run of c reaching m dies
    flip = [w * nxt[0]] * (m - 2) + [wf * nxt[0]]  # forced out of a maximal run
    return (stay, flip) if c == "0" else (flip, stay)


def _dot(z, o, e):
    """Total weight of the masses (z, o) followed by the emission e."""
    ez, eo = e
    return sum(map(mul, z, ez)) + sum(map(mul, o, eo))


def _cycle_weights(m: int, w0, w1, wf):
    """Coefficients c[j] of F0(z) F1(z), so that det(I - zP) = 1 - F0(z) F1(z).

    Every cycle of the kernel is one run of 0's and then one run of 1's.  A
    0-run of length L < m-1 weighs w0^(L-1) w1 (the 1 that ends it is free),
    one of length m-1 weighs w0^(m-2) wf; F0 and F1 are their generating
    functions in z.  Any two cycles share the state (0, 1), so the cycle
    expansion of the determinant has no other terms.  c has degree
    S = 2(m-1), c[0] = c[1] = 0, and each sequence x P^n e obeys
    y_n = sum_j c[j] y_(n-j).
    """
    f0 = [w0**(run - 1) * w1 for run in range(1, m - 1)] + [w0**(m - 2) * wf]
    f1 = [w1**(run - 1) * w0 for run in range(1, m - 1)] + [w1**(m - 2) * wf]
    c = [w0 * 0] * (2 * m - 1)
    for i, x in enumerate(f0, start=1):
        for j, y in enumerate(f1, start=1):
            c[i + j] += x * y
    return c


def _reduce(u, fold):
    """u mod chi(z), in place from the top, for chi(z) = z^S - sum_j c[j] z^(S-j).

    fold lists c[S], ..., c[2]: z^d = z^(d-S) z^S puts u[d] c[j] on z^(d-j).
    """
    size = len(fold) + 1
    for d in range(len(u) - 1, size - 1, -1):
        h = u[d]
        if h:
            u[d - size:d - 1] = [x + h * y for x, y in zip(u[d - size:d - 1], fold)]
    del u[size:]
    return u


def _square(r):
    """Coefficients of r(z)^2, each cross product taken once and doubled."""
    size = len(r)
    u = [0] * (2 * size - 1)
    for i, x in enumerate(r):
        if x:
            u[2 * i] += x * x
            x2, hi = x + x, i + size
            u[2 * i + 1:hi] = [a + x2 * y for a, y in zip(u[2 * i + 1:hi], r[i + 1:])]
    return u


def _walk(m: int, w0: int, w1: int, wf: int, e, k: int) -> int:
    """_dot(z, o, e) for the masses (z, o) after k >= 1 symbols from _start.

    One algorithm (Fiduccia 1985), S = 2(m-1): step min(k, S) symbols for
    y_1, ..., y_min(k,S), and return y_k when k <= S.  Past that, by
    Cayley-Hamilton y_k = sum_t r_t y_(1+t), where r(z) = z^(k-1) mod chi(z)
    and chi(z) = z^S - sum_j c[j] z^(S-j) from `_cycle_weights`.  r comes by
    left-to-right square-and-multiply from r = 1; a multiply by z is a shift
    plus one reduction.  The cost is S steps plus bit_length(k-1) squarings
    of S^2/2 products each, where the step loop takes k-1 steps of O(S)
    products.  The squarings cost more than the steps they replace up to a
    k that grows with S and the size of the integers (p = 3/10; best of 3-9
    on a 2-core x86-64 VM whose timings moved by up to 2x between runs):
    doubling is faster from about 20 symbols on at m = 3 and 80 at m = 8
    (k = 400: 0.74 ms against 1.4-2.3 ms for the step loop); at m = 30 it
    is slower at k = 300 (5.0 ms against 4.1 ms) and even at k = 1000; at
    m = 60, k = 500 and k = 3481 take 1.1-2.5 times the step loop's time
    and k = 14000 0.8-1.1 times; count_words(300, 5000) takes 1.4-1.9 times
    (1.4-2.1 s).

    Integer weights only: chi is monic and every r_t is a nonnegative
    integer, so the result equals the step loop's bit for bit.
    """
    size = 2 * (m - 1)
    ys = [_dot(z, o, e) for z, o in islice(_masses(m, w0, w1, wf), min(k, size))]
    if k <= size:
        return ys[-1]
    fold = _cycle_weights(m, w0, w1, wf)[:1:-1]
    n = k - 1
    r = [1] + [0] * (size - 1)
    for bit in reversed(range(n.bit_length())):
        r = _reduce(_square(r), fold)
        if n >> bit & 1:
            r = _reduce([0] + r, fold)
    return sum(map(mul, r, ys))


def count_words(m: int, n: int) -> int:
    """Number of admissible words of length n (1 for the empty word).

    One `_walk` on unit weights with the all-ones emission, exact: S steps
    (S = 2(m-1)), then bit_length(n-1) squarings of z^(n-1) modulo the
    kernel's characteristic polynomial when n > S.
    """
    _check_order(m)
    if n < 0:
        raise ValueError(f"length must be >= 0, got {n}")
    if n == 0:
        return 1
    return _walk(m, 1, 1, 1, ([1] * (m - 1),) * 2, n)


FREE0, FREE1, FORCED = 0, 1, 2  # classes of a symbol: indices into (w0, w1, wf)


@dataclass(frozen=True)
class TreeArrays:
    """Per-node int arrays of a `WordTree`, indexed like its words.

    first is the first symbol (-1 at the root), depth the length, n0 and
    n1 the free 0's and free 1's (`occurrence_counts`), zeros the number of
    0's, and suffix the index of words[i][1:] (the root is its own suffix).
    """

    first: np.ndarray
    depth: np.ndarray
    n0: np.ndarray
    n1: np.ndarray
    zeros: np.ndarray
    suffix: np.ndarray


@dataclass(frozen=True, eq=False)
class WordTree:
    """Every admissible word of length <= L as a prefix tree, shortest first.

    Node 0 is the empty word, the root; every other node i is node
    parent[i] plus the symbol last[i], of class kind[i]: FREE0, FREE1, or
    FORCED, the flip out of a run of m-1 (the root's entries are -1).  The
    nodes of length n are starts[n]:starts[n+1], in lexicographic order.
    An exhaustive table shares its prefixes, so a quantity that grows
    symbol by symbol takes one step per node instead of one walk per word,
    and one array step per level.  The strings (`words`), the `arrays`
    and the `splits` are built on first use and kept with the tree, so
    the checks of several measures of one order can share it.
    """

    m: int
    parent: np.ndarray
    kind: np.ndarray
    last: np.ndarray
    starts: list[int]

    def _levels(self):
        """The words of each length, 0 to L, one list per level."""
        symbols = (self.last + ord("0")).astype(np.uint8).tobytes().decode("ascii")
        level = [""]
        yield level
        for lo, hi, up in zip(self.starts[1:], self.starts[2:], self.starts):
            parents = (self.parent[lo:hi] - up).tolist()  # into the level above
            level = [level[p] + c for p, c in zip(parents, symbols[lo:hi])]
            yield level

    @cached_property
    def words(self) -> list[str]:
        """Every node's word, by index."""
        return [w for level in self._levels() for w in level]

    @cached_property
    def arrays(self) -> TreeArrays:
        """The `TreeArrays`, one numpy step per level.

        A node's suffix is the child of its parent's suffix along the
        node's last symbol (Weiner 1973): words[i][1:] is
        words[parent[i]][1:] plus that symbol, and it is admissible, a
        factor of an admissible word, so it is in the tree.
        """
        parent, kind, last, starts = self.parent, self.kind, self.last, self.starts
        size = len(parent)
        depth = np.repeat(np.arange(len(starts) - 1), np.diff(starts))
        # per-node increments of n0, n1, zeros and first, summed down each path
        steps = (kind == FREE0, kind == FREE1, last == 0, last * (depth == 1))
        acc = np.stack(steps, axis=1).astype(np.int64)
        child = np.zeros((size, 2), dtype=np.intp)
        child[parent[1:], last[1:]] = np.arange(1, size)
        suffix = np.zeros(size, dtype=np.intp)  # the root and the length-1 words: the root
        for n, (lo, hi) in enumerate(zip(starts[1:], starts[2:]), start=1):
            p = parent[lo:hi]
            acc[lo:hi] += acc[p]
            if n > 1:
                suffix[lo:hi] = child[suffix[p], last[lo:hi]]
        n0, n1, zeros, first = acc.T
        first[0] = -1
        return TreeArrays(first, depth, n0, n1, zeros, suffix)

    @cached_property
    def splits(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(word, prefix, suffix): the index triples of every split point
        u = u[:i] u[i:] of the tree's words u, 0 <= i <= |u|, read-only.

        Ordered by u in tree order, then by i.  u[:i] is an ancestor by
        `parent`, u[i:] is i suffix links from u; each takes one array step
        per length.
        """
        starts = self.starts
        end, L = starts[-1], len(starts) - 2
        size = self.arrays.depth + 1  # i = 0, ..., |u|
        group = np.cumsum(size) - size  # where the splits of each word begin
        word = np.repeat(np.arange(end), size)
        prefix, suffix = np.empty_like(word), np.empty_like(word)
        # u[i:] for the words of length >= i, i = 0, 1, ...: one more suffix link
        links = self.arrays.suffix
        tail = np.arange(end)
        for i, lo in enumerate(starts[:-1]):
            if i:
                tail = links[tail[lo - starts[i - 1]:]]
            suffix[group[lo:] + i] = tail
        # u[:i] for the words of length >= i, i = L, L-1, ...: the words of
        # length i, then the parents of the heads of the longer words
        head = np.arange(starts[L], end)
        for i in range(L, -1, -1):
            lo = starts[i]
            if i < L:
                head = np.concatenate((np.arange(lo, starts[i + 1]), self.parent[head]))
            prefix[group[lo:] + i] = head
        for x in (word, prefix, suffix):
            x.flags.writeable = False
        return word, prefix, suffix

    def numerators(self, w0, w1, wf) -> np.ndarray:
        """Every word's numerator by the branching rule, one multiply per
        node: an object array of Python ints, never a fixed-width int."""
        weight = np.array([w0, w1, wf], dtype=object)
        out = np.empty(len(self.parent), dtype=object)
        out[0] = w0**0
        for lo, hi in zip(self.starts[1:], self.starts[2:]):
            out[lo:hi] = out[self.parent[lo:hi]] * weight[self.kind[lo:hi]]
        return out


def word_tree(m: int, L: int) -> WordTree:
    """The admissible words of length <= L as a `WordTree`.

    A node ending in a run of m-1 has one child, the forced flip; every
    other node has two, a free '0' and then a free '1', so each level stays
    sorted.  Each level is three array steps on the run states of the level
    above: 2(r-1) + d for a last run of r d's, and 2(m-1) at the root.
    Raises CapacityError before building any level when length L, the
    largest level, holds more than WORD_CAP words.
    """
    total = count_words(m, L)  # checks m and L
    if total > WORD_CAP:
        raise CapacityError(
            f"{total} words of length {L} exceed the cap {WORD_CAP}; use count_words"
        )
    size = 2 * (m - 1)
    state = np.arange(size)
    digit, maximal = state % 2, state >= size - 2
    # the children of each state, slot 0 then slot 1: symbol j extends a run
    # of j's (state + 2) or starts one (state j); a maximal run has only
    # its flip, in slot 0
    child = np.empty((size + 1, 2), dtype=np.intp)
    child[:size] = np.where(digit[:, None] == (0, 1), state[:, None] + 2, 1 - digit[:, None])
    child[:size][maximal, 0] = 1 - digit[maximal]
    child[size] = (0, 1)
    has = np.ones((size + 1, 2), dtype=bool)
    has[:size, 1] = ~maximal
    states, parents, starts = [np.array([size])], [np.array([-1])], [0, 1]
    for _ in range(L):
        slots = np.flatnonzero(has[states[-1]])  # 2 row + slot, in order
        rows = slots >> 1
        states.append(child.ravel()[2 * states[-1][rows] + (slots & 1)])
        parents.append(rows + starts[-2])
        starts.append(starts[-1] + len(rows))
    state, parent = np.concatenate(states), np.concatenate(parents)
    last = (state % 2).astype(np.int8)
    kind = np.where(np.append(maximal, False)[state[parent]], FORCED, last).astype(np.int8)
    last[0] = kind[0] = -1
    return WordTree(m, parent, kind, last, starts)


def enumerate_words(m: int, n: int) -> list[str]:
    """All admissible words of length n in lexicographic order.

    Builds the strings of one length at a time and keeps only the last.
    Raises CapacityError when the list would exceed WORD_CAP entries; use
    count_words for sizes beyond that.
    """
    for level in word_tree(m, n)._levels():
        pass  # each length replaces the one before
    return level


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


def occurrence_report(m: int, s: str) -> OccurrenceReport:
    """Flip-admissible positions of s (1-based), for an admissible word.

    The forced positions close the occurrences of 1^{m-1}0 and 0^{m-1}1
    that `occurrence_counts` counts; every other position is free.
    """
    _require_admissible(m, s)
    # the end of a match, 0-based and exclusive, is the 1-based closing position
    forced = {hit.end() for pattern in ("1" * (m - 1) + "0", "0" * (m - 1) + "1")
              for hit in re.finditer(pattern, s)}
    free = [(k, c) for k, c in enumerate(s, start=1) if k not in forced]
    set0 = tuple(k for k, c in free if c == "0")
    set1 = tuple(k for k, c in free if c == "1")
    return OccurrenceReport(set0, set1, len(set0), len(set1))


def complement(s: str) -> str:
    """Symbolwise flip; an involution that preserves admissibility."""
    _check_symbols(s)
    return s.translate(str.maketrans("01", "10"))


def pi2(s: str) -> Fraction:
    """Projection to [0,1]: sum of w_n / 2^n over the finite word."""
    _check_symbols(s)
    if not s:
        return Fraction(0)
    return Fraction(int(s, 2), 2 ** len(s))


def d2(w: str, v: str) -> MetricValue:
    """Metric 2^{-inf{k>=0: w_{k+1} != v_{k+1}}} on finite windows.

    Exact when the windows differ within the common length L; otherwise an
    upper-bound sentinel (value 2^{-L}, exact=False).  Callers must branch
    on `exact`.
    """
    _check_symbols(w)
    _check_symbols(v)
    if not w or not v:
        raise ValueError("d2 requires non-empty windows")
    common = min(len(w), len(v))
    for i in range(common):
        if w[i] != v[i]:
            return MetricValue(Fraction(1, 2**i), True)
    return MetricValue(Fraction(1, 2**common), False)
