"""Combinatorics of run-length-limited binary words.

A word is a plain '0'/'1' str; it is admissible for order m when no run
of equal symbols reaches length m.  A function that needs the order takes
m as its first argument.  Everything here is pure.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from operator import mul

MIN_ORDER = 3
WORD_CAP = 1 << 21  # bound on the longest level one enumeration materializes


class CapacityError(ValueError):
    """Enumeration would materialize more words than the caller allows."""


class InadmissibleWordError(ValueError):
    """An operation that requires an admissible word received one that is not."""


def _check_symbols(s: str) -> None:
    # an ASCII test and a bytes pass that deletes b"01": any other
    # character, a lone surrogate too, is left over or not ASCII
    if not s.isascii() or s.encode().translate(None, b"01"):
        raise ValueError(f"word symbols must be '0'/'1', got {s!r}")


def _check_order(m: int) -> None:
    if m < MIN_ORDER:
        raise ValueError(f"constraint order must be >= {MIN_ORDER}, got {m}")


def _check_open_unit(x, name: str) -> None:
    # nan fails both comparisons, so it is rejected too
    if not 0 < x < 1:
        raise ValueError(f"{name} must lie in (0,1), got {x}")


def is_admissible_symbols(m: int, s: str) -> bool:
    """True iff s has no run of m equal symbols: the definition of Lambda_m.

    One bit-parallel pass (`_run_ends`) over s read as a binary number and
    over its complement.  Raises ValueError for m < 3 or a symbol other
    than '0'/'1'.
    """
    _check_order(m)
    _check_symbols(s)
    if m > len(s):
        return True
    ones = int(s, 2)  # base 2 is exempt from the int-string digit limit
    zeros = ones ^ ((1 << len(s)) - 1)
    return not _run_ends(ones, m) and not _run_ends(zeros, m)


def _run_ends(x: int, m: int) -> int:
    """Nonzero iff x has m consecutive set bits: the lowest bit of each such run.

    Once a set bit marks a run of k set bits from it upwards, `x &= x >> k`
    leaves the marks of runs of 2k, so k doubles to the largest power of 2
    up to m in O(log m) shifts; one last shift by m - k < k joins two
    overlapping runs of k into one of m.  On check 14's 100 sampled words
    of 10**4 symbols, `is_admissible_symbols` takes 29-46 us a word this
    way against 64-78 us for the two substring scans (medians of 41
    passes, two sessions on a loaded 2-core x86-64 VM).
    """
    k = 1
    while 2 * k <= m:
        x &= x >> k
        k *= 2
    return x & (x >> (m - k))


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

    fold lists c[S], ..., c[1]: z^d = z^(d-S) z^S puts u[d] c[j] on z^(d-j),
    and c[1] lands on z^(d-1), the next degree the loop reduces.  A unit
    c[j] costs an addition, no product.
    """
    size = len(fold)
    for d in range(len(u) - 1, size - 1, -1):
        h = u[d]
        if h:
            u[d - size:d] = [x + (h if y == 1 else h * y) for x, y in zip(u[d - size:d], fold)]
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


def _nth_term(ys, fold, k: int) -> int:
    """y_k of a sequence with y_n = sum_j c[j] y_(n-j), from its first terms.

    ys holds y_1, ..., y_S, or y_1, ..., y_k when k <= S; fold lists the
    integer c[S], ..., c[1] of chi(z) = z^S - sum_j c[j] z^(S-j), as
    `_reduce` reads it.  Past S (Fiduccia 1985): chi(E) kills y for the
    shift E, so y_(1+d) = sum_t q_t y_(1+t) for any q(z) = z^d mod chi(z).
    Write k-1 = 2h + b with b = 0 or 1.  r(z) = z^h mod chi comes by
    left-to-right square-and-multiply from r = 1, a multiply by z being a
    shift plus one reduction.  Then q = r^2 z^b gives
    y_k = sum_i r_i sum_j r_j y_(1+b+i+j), the terms extended to y_(2S-1+b)
    by the recurrence: the last squaring's S^2/2 products of big r_i r_j
    become S, and the S^2 others take a small y.  chi is monic, so every
    r_t is an integer and the result equals k-1 steps of the recurrence
    bit for bit.
    """
    if k <= len(ys):
        return ys[k - 1]
    size = len(fold)
    h, b = divmod(k - 1, 2)
    r = [1] + [0] * (size - 1)
    for bit in reversed(range(h.bit_length())):
        r = _reduce(_square(r), fold)
        if h >> bit & 1:
            r = _reduce([0] + r, fold)
    ys = list(ys)
    while len(ys) < 2 * size - 1 + b:
        ys.append(sum(map(mul, fold, ys[-size:])))
    return sum(x * sum(map(mul, r, ys[i + b:])) for i, x in enumerate(r))


def _walk(m: int, w0: int, w1: int, wf: int, e, k: int) -> int:
    """_dot(z, o, e) for the masses (z, o) after k >= 1 symbols from _start.

    `_nth_term` of the kernel's recurrence, S = 2(m-1): min(k, S) steps
    give y_1, ..., y_min(k,S), and `_cycle_weights` gives chi when k > S.
    Integer weights only.  The squarings cost more than the steps they
    replace up to a k that grows with S and the size of the integers
    (p = 3/10; best of 3-7 on a 2-core x86-64 VM whose timings move by up
    to 2x between runs): doubling is faster from about 20 symbols on at
    m = 3 and 80 at m = 8 (k = 400: 0.83 ms against 1.6 ms for the step
    loop); at m = 30 it is slower at k = 300 (3.7 ms against 3.3 ms) and
    faster at k = 1000 (13 ms against 22 ms); at m = 60 it takes 1.2 times
    the step loop's time at k = 500 and about half at k = 3481 and 14000.
    """
    size = 2 * (m - 1)
    ys = [_dot(z, o, e) for z, o in islice(_masses(m, w0, w1, wf), min(k, size))]
    if k <= size:  # no chi, whose (m-1)^2 products outweigh short walks
        return ys[-1]
    return _nth_term(ys, _cycle_weights(m, w0, w1, wf)[:0:-1], k)


def count_words(m: int, n: int) -> int:
    """Number of admissible words of length n (1 for the empty word).

    A word of length n >= 1 that starts with 0 is a composition of n into
    runs of 1..m-1 (flip every symbol for one that starts with 1), so the
    count is 2 C(n) with C(n) = C(n-1) + ... + C(n-m+1) and C(j) = 2^(j-1)
    for 1 <= j <= m-1, where every composition qualifies.  Its polynomial
    z^(m-1) - z^(m-2) - ... - 1 is the one whose root
    `dimension.growth_root` finds.  One `_nth_term` on the m-1 terms, every
    c[j] = 1: exact, and equal to the 2(m-1)-state kernel's count.  Every
    word shorter than m is admissible, so n < m takes 2^n and builds no
    term.
    """
    _check_order(m)
    if n < 0:
        raise ValueError(f"length must be >= 0, got {n}")
    if n < m:
        return 1 << n
    return 2 * _nth_term([1 << j for j in range(m - 1)], [1] * (m - 1), n)


FREE0, FREE1, FORCED = 0, 1, 2  # classes of a symbol: indices into (w0, w1, wf)


@dataclass(frozen=True, eq=False)
class TreeArrays:
    """Per-node int arrays of a `WordTree`, indexed like its words.

    depth is the length and suffix the index of words[i][1:] (the root is
    its own suffix).  counts has three rows: n0 and n1, the free 0's and
    free 1's (`occurrence_counts`), and the number of 0's, so that one
    gather reads them together.
    """

    depth: np.ndarray
    counts: np.ndarray
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
    and one array step per level.  The strings (`words`) and the `arrays`
    are built on first use and kept with the tree; `numerators` and
    `emissions` fill one row per measure in one pass, so a check reads the
    tree once for all its measures of one order; the split points
    (`split_levels`) come one level at a time and are not kept.
    """

    m: int
    parent: np.ndarray
    kind: np.ndarray
    last: np.ndarray
    starts: list[int]

    def _levels(self):
        """The words of each length, 0 to L, one list per level."""
        import numpy as np
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
        """The `TreeArrays`, filled one level at a time.

        Each level adds its nodes' increments to their parents' counts and
        takes its suffix links as two ranges of the level above.  A level
        is sorted and, read backwards, its own complement, so its first
        half is the words 0x, in the order of their x.  Those x are the
        words of length n-1 that do not start with 0^(m-1); the words that
        do come first in their level, so the x are its last words, as many
        as the words 0x.  Likewise the words 1x link to its first words.
        No table of children is built.
        """
        import numpy as np
        parent, kind, last, starts = self.parent, self.kind, self.last, self.starts
        size = len(parent)
        # the increments of (n0, n1, zeros) by 2 kind + last: a free 0 adds
        # to n0 and zeros, a free 1 to n1, a forced 0 to zeros
        step = np.zeros((3, 6), dtype=np.intp)
        step[:, 2 * FREE0] = 1, 0, 1
        step[:, 2 * FREE1 + 1] = 0, 1, 0
        step[:, 2 * FORCED] = 0, 0, 1
        code = 2 * kind + last
        counts = np.zeros((3, size), dtype=np.intp)  # the root's stay 0
        suffix = np.zeros(size, dtype=np.intp)
        for up, lo, hi in zip(starts, starts[1:], starts[2:]):
            step.take(code[lo:hi], axis=1, out=counts[:, lo:hi])
            counts[:, lo:hi] += counts.take(parent[lo:hi], axis=1)
            half = (hi - lo) // 2
            suffix[lo:lo + half] = np.arange(lo - half, lo)
            suffix[lo + half:hi] = np.arange(up, up + half)
        depth = np.repeat(np.arange(len(starts) - 1), np.diff(starts))
        return TreeArrays(depth, counts, suffix)

    def split_levels(self):
        """The split points u = u[:i] u[i:] of the tree's words, one level at a time.

        Yields, for n = 0, ..., L, a pair (prefix, suffix) of arrays of
        shape (n + 1, words of length n): row i, column r hold the indices
        of u[:i] and u[i:] for u the word starts[n] + r.  Read column by
        column, a level is ordered by u in tree order, then by i.  Level n
        comes from level n-1 by one gather each: u[:i] is parent(u)[:i] and
        u[i:] is suffix(u)[i-1:], with u itself at u[:n] and u[0:].
        """
        import numpy as np
        parent, links, starts = self.parent, self.arrays.suffix, self.starts
        prefix = suffix = np.zeros((1, 1), dtype=np.intp)  # the root: ("", "")
        prefix.setflags(write=False)
        yield prefix, suffix
        for n, (up, lo, hi) in enumerate(zip(starts, starts[1:], starts[2:]), 1):
            level = np.empty((2, n + 1, hi - lo), dtype=np.intp)
            level[0, n] = level[1, 0] = np.arange(lo, hi)
            prefix.take(parent[lo:hi] - up, axis=1, out=level[0, :n])
            suffix.take(links[lo:hi] - up, axis=1, out=level[1, 1:])
            level.setflags(write=False)  # the next level is read from it
            prefix, suffix = level
            yield prefix, suffix

    def digit_levels(self):
        """The tree's words as 0/1 columns, one level at a time.

        Yields, for n = 0, ..., L, a uint8 array of shape (n, words of
        length n), column r the symbols of the word starts[n] + r: level n
        is level n-1 gathered by `parent`, with `last` as its new row.
        Reads the symbols only, not their classes.
        """
        import numpy as np
        level = np.zeros((0, 1), dtype=np.uint8)
        yield level
        for up, lo, hi in zip(self.starts, self.starts[1:], self.starts[2:]):
            above, level = level, np.empty((len(level) + 1, hi - lo), dtype=np.uint8)
            above.take(self.parent[lo:hi] - up, axis=1, out=level[:-1])
            level[-1] = self.last[lo:hi]
            yield level

    def numerators(self, weights, dtype=object) -> np.ndarray:
        """Every word's numerator by the branching rule, one row per (w0,
        w1, wf) triple of weights, all rows filled in the same pass of one
        multiply per node: an array (measures, words) of Python ints, or of
        a fixed-width dtype that the caller has proven wide enough
        (`measure.numerator_dtype`)."""
        import numpy as np
        weight = np.array(weights, dtype=dtype)  # (measures, 3)
        out = np.empty((len(weight), len(self.parent)), dtype=dtype)
        out[:, 0] = weight[:, 0] ** 0
        for lo, hi in zip(self.starts[1:], self.starts[2:]):
            step = weight.take(self.kind[lo:hi], axis=1)
            out[:, lo:hi] = out.take(self.parent[lo:hi], axis=1) * step
        return out

    def emissions(self, weights, dtype=object) -> np.ndarray:
        """`_emission` of every word for each (w0, w1, wf) triple of weights:
        an array (measures, 2(m-1), words), the states in the order z + o.

        Level by level: the emission of s is `_prepend` of s[0] to that of
        s[1:], the suffix link, on columns of the array, every measure at
        once.  A level is sorted and, read backwards, its own complement:
        its first half starts with 0, the second with 1, one call for each.
        """
        import numpy as np
        m, suffix = self.m, self.arrays.suffix
        w0, w1, wf = np.array(weights, dtype=dtype).T[:, :, None]  # each (measures, 1)
        e = np.empty((2 * (m - 1), len(w0), len(self.parent)), dtype=dtype)
        e[:, :, 0] = w0[:, 0] ** 0
        for lo, hi in zip(self.starts[1:], self.starts[2:]):
            mid = (lo + hi) // 2
            for c, start, stop in (("0", lo, mid), ("1", mid, hi)):
                tail = e[:, :, suffix[start:stop]]
                ez, eo = _prepend(m, w0, w1, wf, c, (tail[:m - 1], tail[m - 1:]))
                e[:, :, start:stop] = ez + eo
        return e.swapaxes(0, 1)


def word_tree(m: int, L: int) -> WordTree:
    """The admissible words of length <= L as a `WordTree`.

    A node ending in a run of m-1 has one child, the forced flip; every
    other node has two, a free '0' and then a free '1', so each level stays
    sorted.  Each level is three array steps on the run states of the level
    above: 2r + d for a last run of r d's, and 0, a run of no 0's, at the root.
    Raises CapacityError before building any level when length L, the
    largest level, holds more than WORD_CAP words.
    """
    import numpy as np
    if L < 0 or 1 << L > WORD_CAP:  # else the 2**L binary words of length L fit
        total = count_words(m, L)  # checks m and L
        if total > WORD_CAP:
            raise CapacityError(
                f"{total} words of length {L} exceed the cap {WORD_CAP}; use count_words"
            )
    else:
        _check_order(m)
    size = 2 * m
    state = np.arange(size)
    digit, maximal = state % 2, state >= size - 2
    # the children of each state, slot 0 then slot 1: symbol j extends a run
    # of j's (state + 2) or starts one (state 2 + j); a maximal run has only
    # its flip, in slot 0
    child = np.where(digit[:, None] == (0, 1), state[:, None] + 2, 3 - digit[:, None])
    child[maximal, 0] = 3 - digit[maximal]
    has = np.ones((size, 2), dtype=bool)
    has[:, 1] = ~maximal
    states, parents, starts = [np.array([0])], [np.array([-1])], [0, 1]
    for _ in range(L):
        slots = np.flatnonzero(has[states[-1]])  # 2 row + slot, in order
        rows = slots >> 1
        states.append(child.ravel()[2 * states[-1][rows] + (slots & 1)])
        parents.append(rows + starts[-2])
        starts.append(starts[-1] + len(rows))
    state, parent = np.concatenate(states), np.concatenate(parents)
    last = (state % 2).astype(np.int8)
    kind = np.where(maximal[state[parent]], FORCED, last).astype(np.int8)
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
    """(n0, n1): how many 0's and 1's of s are free, for any '0'/'1' string s.

    A symbol is free when the prefix ending in it stays admissible with
    that symbol flipped.  A 0 is forced, and left out of n0, exactly when a
    run of at least m-1 ones ends right before it: when it closes an
    occurrence of 1^{m-1}0.  Such occurrences cannot overlap, so str.count
    counts them; n1 likewise.
    """
    return (
        s.count("0") - s.count("1" * (m - 1) + "0"),
        s.count("1") - s.count("0" * (m - 1) + "1"),
    )


def column_occurrence_counts(m: int, digits: np.ndarray) -> np.ndarray:
    """`occurrence_counts` of every column of an (n, words) 0/1 array at
    once, as an int array (2, words): the words' n0 and n1.

    By the same definition: a 0 at position j >= m-1 closes 1^{m-1}0 when
    the m-1 symbols before it are all 1's, and a 1 closes 0^{m-1}1 when
    none of them is.  With c[j] the number of 1's before position j (one
    cumulative sum down the columns), those m-1 symbols hold
    c[j] - c[j-m+1] ones, so 2 (c[j] - c[j-m+1]) + the symbol at j is
    2(m-1) for the first and 1 for the second.
    """
    import numpy as np
    n, size = digits.shape
    ones = np.zeros((n + 1, size), dtype=np.intp)
    np.cumsum(digits, axis=0, out=ones[1:])
    counts = np.empty((2, size), dtype=np.intp)
    counts[1] = ones[n]
    counts[0] = n - counts[1]
    if n >= m:  # a symbol with m-1 before it
        key = ones[m - 1 : n] - ones[: n - m + 1]
        key *= 2
        key += digits[m - 1 :]
        counts[0] -= np.count_nonzero(key == 2 * (m - 1), axis=0)
        counts[1] -= np.count_nonzero(key == 1, axis=0)
    return counts
