import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rllshift import measure, words
from rllshift.words import (
    CapacityError,
    count_words,
    enumerate_words,
    is_admissible_symbols,
)


def brute_words(m, n):
    """Independent oracle: filter the full product by substring scan."""
    out = []
    for bits in itertools.product("01", repeat=n):
        s = "".join(bits)
        if "0" * m not in s and "1" * m not in s:
            out.append(s)
    return out


PROPERTY = settings(max_examples=100, deadline=None, database=None)
binary = st.text(alphabet="01", max_size=24)


def longest_run(s):
    """Length of the longest run of equal symbols, 0 for the empty word."""
    return max((len(run) for run in re.findall("0+|1+", s)), default=0)


def flip(s):
    """The word with every symbol flipped."""
    return s.translate(str.maketrans("01", "10"))


def brute_occurrence(m, s):
    """Direct evaluation of the flip-prefix definition."""
    set0, set1 = [], []
    for k in range(1, len(s) + 1):
        prefix = s[: k - 1]
        if s[k - 1] == "0" and words.is_admissible_symbols(m, prefix + "1"):
            set0.append(k)
        if s[k - 1] == "1" and words.is_admissible_symbols(m, prefix + "0"):
            set1.append(k)
    return tuple(set0), tuple(set1)


def loop_flip_positions(m, s):
    """Reference: the per-symbol walk over runs that occurrence_counts counts."""
    sets = {"0": [], "1": []}
    prev = ""
    run = 0  # run of `prev` ending just before the current position
    for k, c in enumerate(s, start=1):
        if c == prev:
            run += 1
            sets[c].append(k)
        else:
            if run < m - 1:
                sets[c].append(k)
            prev, run = c, 1
    return sets["0"], sets["1"]


class TestAdmissibility:
    def test_examples(self):
        assert is_admissible_symbols(3, "010")
        assert not is_admissible_symbols(3, "0001")
        assert is_admissible_symbols(4, "000")

    def test_empty_word_admissible(self):
        assert is_admissible_symbols(3, "")

    def test_order_below_three_rejected(self):
        with pytest.raises(ValueError):
            is_admissible_symbols(2, "01")

    def test_bad_symbols_rejected(self):
        with pytest.raises(ValueError):
            is_admissible_symbols(3, "012")

    # a digit, a blank, a line end and a non-ASCII digit, alone, inside a
    # binary word and in front of one
    @pytest.mark.parametrize("bad", ["2", " ", "\n", "\uff11"])
    @pytest.mark.parametrize("shape", ["{}", "01{}10", "{}0110"])
    def test_each_non_symbol_rejected(self, bad, shape):
        with pytest.raises(ValueError):
            words._check_symbols(shape.format(bad))

    def test_empty_word_has_valid_symbols(self):
        words._check_symbols("")

    # non-ASCII letters and digits, an astral character and lone
    # surrogates, in short words and in words past 16 symbols, where the
    # check reads the word as bytes
    @pytest.mark.parametrize("bad", ["\u00e9", "\u0661", "\U0001d7ce", "\ud800", "\udc30"])
    @pytest.mark.parametrize("shape", ["{}", "01{}10", "{}" + "01" * 20, "01" * 5000 + "{}"])
    def test_non_ascii_rejected_with_the_message(self, bad, shape):
        s = shape.format(bad)
        with pytest.raises(ValueError) as caught:
            words._check_symbols(s)
        assert type(caught.value) is ValueError
        assert str(caught.value) == f"word symbols must be '0'/'1', got {s!r}"

    @pytest.mark.parametrize("n", [0, 1, 15, 16, 17, 10**4])
    def test_binary_words_pass_at_every_length(self, n):
        words._check_symbols(("0110" * n)[:n])
        with pytest.raises(ValueError, match="word symbols must be"):
            words._check_symbols(("0110" * n)[:n] + "2")

    @PROPERTY
    @given(st.integers(3, 7), binary)
    def test_matches_longest_run(self, m, s):
        assert words.is_admissible_symbols(m, s) == (longest_run(s) < m)

    # runs of m-1, m and m+1 at either end, around a body of up to 2000
    # symbols in all
    @settings(max_examples=300, deadline=None, database=None)
    @given(st.integers(3, 70), st.data())
    def test_bit_pass_matches_substring_definition(self, m, data):
        end = st.tuples(st.sampled_from("01"), st.sampled_from([0, m - 1, m, m + 1]))
        (a, i), (b, j) = data.draw(end), data.draw(end)
        s = a * i + data.draw(st.text(alphabet="01", max_size=2000 - i - j)) + b * j
        assert words.is_admissible_symbols(m, s) == ("0" * m not in s and "1" * m not in s)

    # the empty word, m past the length, m a power of 2 (no last shift)
    @pytest.mark.parametrize(
        "m, s, admissible",
        [(3, "", True), (70, "1" * 69, True), (5, "0110", True), (64, "0" * 64, False),
         (64, "1" + "0" * 63 + "1", True), (65, "1" * 64 + "0" + "1" * 64, True),
         (65, "0" + "1" * 65, False)],
    )
    def test_bit_pass_edges(self, m, s, admissible):
        assert words.is_admissible_symbols(m, s) is admissible

    @pytest.mark.parametrize("m", [3, 5, 40])
    @pytest.mark.parametrize("s", ["2", "0\n", "01" * 20 + "\u0661"])
    def test_symbols_checked_before_the_length(self, m, s):
        # also where m > len(s), which needs no scan
        with pytest.raises(ValueError) as caught:
            words.is_admissible_symbols(m, s)
        assert str(caught.value) == f"word symbols must be '0'/'1', got {s!r}"
        with pytest.raises(ValueError, match="constraint order must be >= 3, got 2"):
            words.is_admissible_symbols(2, s)


class TestEnumeration:
    def test_small_sizes(self):
        assert enumerate_words(3, 1) == ["0", "1"]
        assert len(enumerate_words(3, 3)) == 6
        assert len(enumerate_words(3, 4)) == 10

    @pytest.mark.parametrize("m", [3, 4])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_brute_force_in_lex_order(self, m, n):
        assert enumerate_words(m, n) == brute_words(m, n)

    def test_capacity_error(self):
        # a usage error like any bad argument: the CLI exits 2 on ValueError
        assert issubclass(CapacityError, ValueError)
        with pytest.raises(CapacityError):
            enumerate_words(3, 40)

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_count_matches_enumeration(self, m):
        for n in range(0, 17):
            assert count_words(m, n) == len(enumerate_words(m, n))

    def test_count_examples(self):
        assert count_words(3, 0) == 1
        assert enumerate_words(3, 0) == [""]
        assert count_words(3, 2) == 4
        assert count_words(3, 5) == 16
        assert count_words(4, 3) == 8

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            count_words(3, -1)

    @pytest.mark.parametrize("m", [3, 4, 40])
    def test_words_shorter_than_m_all_count(self, m):
        assert [count_words(m, n) for n in range(m + 1)] == [2**n for n in range(m)] + [2**m - 2]

    def test_short_words_build_no_terms(self):
        # 2**n for n < m, without the m-1 initial terms, which took 6.9 MB
        # of tracemalloc at m = 20000 for this 1,250-byte answer
        tracemalloc.start()
        try:
            count = count_words(20000, 10000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 2**10000
        assert peak < 16 * 1024, peak

    @PROPERTY
    @given(st.integers(3, 40), st.integers(0, 2000))
    @example(151, 300)  # n = S = 2(m-1): kernel steps only
    @example(151, 301)  # n = S + 1: the shortest doubling
    @example(151, 1000)
    @example(200, 1000)
    def test_count_matches_run_recurrence(self, m, n):
        # a word starting with 0 is a composition of n into runs of 1..m-1
        c = [1]
        for j in range(1, n + 1):
            c.append(sum(c[max(j - m + 1, 0):j]))
        assert count_words(m, n) == (2 * c[n] if n else 1)

    @PROPERTY
    @given(st.integers(3, 40), st.integers(0, 2000))
    @example(3, 2)  # n = m-1: the run recurrence's initial terms only
    @example(3, 3)  # n = m: its shortest doubling
    @example(40, 39)
    @example(40, 40)
    @example(151, 1000)
    @example(200, 1000)
    def test_count_matches_kernel_route(self, m, n):
        # the 2(m-1)-state kernel on counting weights, stepped and doubled
        assert count_words(m, n) == kernel_count(m, n)
        if n:
            ones = ([1] * (m - 1),) * 2
            assert count_words(m, n) == words._walk(m, 1, 1, 1, ones, n)


def kernel_count(m, n):
    """Reference: the kernel's counting route, n-1 steps of the run-state
    walk on unit weights, read with the all-ones emission."""
    if n == 0:
        return 1
    z, o = words._start(m, 1, 1)
    for _ in range(n - 1):
        z, o = words._step(z, o, 1, 1, 1)
    return sum(z) + sum(o)


def monomial_remainder(u, fold):
    """Reference: u mod chi as sum_d u[d] (z^d mod chi), where z^(d+1) mod
    chi is z^d mod chi times z, its z^S replaced by sum_j c[j] z^(S-j)."""
    power = [1] + [0] * (len(fold) - 1)
    out = [0] * len(fold)
    for coef in u:
        out = [a + coef * b for a, b in zip(out, power)]
        top = power[-1]
        power = [a + top * f for a, f in zip([0] + power[:-1], fold)]
    return out


# chi's c[S], ..., c[1] with c[1] != 0, as the run recurrence has it
FOLDS = st.builds(
    lambda rest, c1: rest + [c1],
    st.lists(st.integers(0, 5), min_size=1, max_size=8),
    st.integers(1, 5),
)


class TestRecurrence:
    @PROPERTY
    @given(FOLDS, st.lists(st.integers(0, 10**6), max_size=30))
    def test_reduce_matches_monomial_remainder(self, fold, tail):
        u = [7] * len(fold) + tail  # _reduce takes a degree of at least S-1
        assert words._reduce(list(u), fold) == monomial_remainder(u, fold)

    @PROPERTY
    @given(FOLDS, st.integers(0, 10**3), st.integers(1, 300))
    def test_nth_term_matches_recurrence(self, fold, seed, k):
        size = len(fold)
        y = [seed + t for t in range(size)]
        while len(y) < k:
            y.append(sum(c * x for c, x in zip(fold, y[-size:])))
        assert words._nth_term(y[:min(k, size)], fold, k) == y[k - 1]


def loop_tree_arrays(tree):
    """Reference: depth, n0, n1, zeros and suffix node by node, each from the
    node's parent, kind and last symbol, and the suffix from the strings."""
    index = {w: i for i, w in enumerate(tree.words)}
    depth, n0, n1, zeros, suffix = ([0] for _ in range(5))
    for i in range(1, len(tree.words)):
        p, kind, last = int(tree.parent[i]), int(tree.kind[i]), int(tree.last[i])
        depth.append(depth[p] + 1)
        n0.append(n0[p] + (kind == words.FREE0))
        n1.append(n1[p] + (kind == words.FREE1))
        zeros.append(zeros[p] + (last == 0))
        suffix.append(index[tree.words[i][1:]])
    return [depth, n0, n1, zeros, suffix]


# kernel weights (w0, w1, wf): exact (a, b-a, b) for p = 2/7, float
# (p, 1-p, 1) and counting
KERNEL_WEIGHTS = st.sampled_from([(2, 5, 7), (0.3, 1 - 0.3, 1), (1, 1, 1)])
WEIGHT_ROWS = st.lists(KERNEL_WEIGHTS, min_size=1, max_size=3)  # one triple a measure


class TestWordTable:
    @PROPERTY
    @given(st.integers(3, 7), st.integers(0, 10))
    def test_tree_concatenates_lengths(self, m, L):
        tree = words.word_tree(m, L)
        assert tree.words == [w for n in range(L + 1) for w in brute_words(m, n)]
        for n in range(L + 1):
            assert tree.words[tree.starts[n]:tree.starts[n + 1]] == enumerate_words(m, n)
        for i in range(1, len(tree.words)):
            assert tree.words[tree.parent[i]] == tree.words[i][:-1]

    @PROPERTY
    @given(st.integers(3, 7), st.integers(0, 10))
    def test_tree_counts_match_occurrence_counts(self, m, L):
        tree = words.word_tree(m, L)
        counts = zip(*tree.arrays.counts[:2].tolist())
        assert list(counts) == [words.occurrence_counts(m, s) for s in tree.words]

    @PROPERTY
    @given(st.integers(3, 7), st.integers(0, 10))
    def test_tree_arrays_match_strings(self, m, L):
        tree = words.word_tree(m, L)
        a = tree.arrays
        symbol = {"0": 0, "1": 1}
        assert len(a.suffix) == len(tree.words)
        for i, s in enumerate(tree.words):
            assert tree.words[a.suffix[i]] == s[1:]
            assert a.depth[i] == len(s)
            assert a.counts[2, i] == s.count("0")
            assert tree.last[i] == symbol.get(s[-1:], -1)
        # what emissions splits each level by: read backwards, a level
        # is its own complement, so its first half is the words starting with 0
        for n in range(1, L + 1):
            level = tree.words[tree.starts[n]:tree.starts[n + 1]]
            assert level[::-1] == [flip(w) for w in level]
            half = len(level) // 2
            assert {w[0] for w in level[:half]} == {"0"} and {w[0] for w in level[half:]} == {"1"}

    @PROPERTY
    @given(st.integers(3, 9), st.integers(0, 11))
    def test_tree_arrays_match_node_loop(self, m, L):
        tree = words.word_tree(m, L)
        a = tree.arrays
        assert a.counts.shape == (3, len(tree.words))
        got = [x.tolist() for x in (a.depth, *a.counts, a.suffix)]
        assert got == loop_tree_arrays(tree)

    def test_tree_arrays_compare_by_identity(self):
        # the arrays of two trees compare and hash without reading an array
        a, b = words.word_tree(3, 4).arrays, words.word_tree(3, 4).arrays
        assert a == a and a != b and a in [b, a] and len({a, b}) == 2

    @PROPERTY
    @given(st.integers(3, 7), st.integers(0, 10))
    def test_splits_are_the_factorizations(self, m, L):
        # the (u[:i], u[i:], u) triples of test_pairs_match_brute_force, each
        # once: the levels, each read column by column and concatenated, go
        # by u in tree order and then by i
        tree = words.word_tree(m, L)
        got = []
        levels = list(tree.split_levels())
        assert len(levels) == L + 1
        for n, (lo, (prefix, suffix)) in enumerate(zip(tree.starts, levels)):
            assert prefix.shape == suffix.shape == (n + 1, tree.starts[n + 1] - lo)
            for r, (p, s) in enumerate(zip(prefix.T.tolist(), suffix.T.tolist())):
                got += [(tree.words[i], tree.words[j], tree.words[lo + r]) for i, j in zip(p, s)]
        assert got == [(u[:i], u[i:], u) for u in tree.words for i in range(len(u) + 1)]

    def test_splits_are_kept_read_only(self):
        # each level is read to build the next, so no caller may write into it
        tree = words.word_tree(4, 6)
        for level in tree.split_levels():
            for x in level:
                with pytest.raises(ValueError, match="read-only"):
                    x[0, 0] = 1

    @PROPERTY
    @given(st.integers(3, 7), st.integers(0, 10), WEIGHT_ROWS)
    def test_tree_numerators_match_branching_rule(self, m, L, weights):
        tree = words.word_tree(m, L)
        # one row per triple, each with the same products in the same order,
        # so float values agree exactly
        assert tree.numerators(weights).tolist() == [
            [measure._mu_symbols(m, *triple, s) for s in tree.words] for triple in weights
        ]

    @PROPERTY
    @given(st.integers(3, 7), st.integers(0, 9), WEIGHT_ROWS)
    def test_tree_emissions_match_emission(self, m, L, weights):
        tree = words.word_tree(m, L)
        got = tree.emissions(weights)
        assert got.shape == (len(weights), 2 * (m - 1), len(tree.words))
        for row, triple in zip(got, weights):
            for s, column in zip(tree.words, row.T.tolist()):
                ez, eo = words._emission(m, *triple, s)
                assert column == ez + eo

    @PROPERTY
    @given(st.integers(3, 5), st.integers(0, 8))
    def test_pairs_match_brute_force(self, m, L):
        binary_words = [
            "".join(bits)
            for n in range(L + 1)
            for bits in itertools.product("01", repeat=n)
        ]
        brute = [
            (w, v, w + v)
            for w in binary_words
            for v in binary_words
            if len(w) + len(v) <= L and words.is_admissible_symbols(m, w + v)
        ]
        # every factor of an admissible word is admissible, so the pairs
        # are the split points of the tree's words, each met once
        splits = [
            (u[:i], u[i:], u)
            for u in words.word_tree(m, L).words
            for i in range(len(u) + 1)
        ]
        assert len(splits) == len(set(splits))
        assert set(splits) == set(brute)


class TestOccurrence:
    def test_examples(self):
        assert words.occurrence_counts(3, "010") == (2, 1)
        assert words.occurrence_counts(3, "001") == (2, 0)  # 000 is forbidden
        assert words.occurrence_counts(5, "0101") == (2, 2)

    @pytest.mark.parametrize("m", [3, 4])
    def test_local_rule_matches_definition(self, m):
        for n in range(1, 11):
            for w in enumerate_words(m, n):
                set0, set1 = brute_occurrence(m, w)
                assert words.occurrence_counts(m, w) == (len(set0), len(set1))

    @PROPERTY
    @given(st.integers(3, 12), st.text(alphabet="01", max_size=60))
    def test_counts_match_flip_positions(self, m, s):
        # inadmissible strings too: the substring counts need no run check
        set0, set1 = loop_flip_positions(m, s)
        assert words.occurrence_counts(m, s) == (len(set0), len(set1))

    @PROPERTY
    @given(
        st.integers(3, 12),
        st.integers(0, 40).flatmap(
            lambda n: st.lists(st.text(alphabet="01", min_size=n, max_size=n), max_size=12)
        ),
    )
    @example(3, [])
    @example(3, ["110", "001"])
    @example(4, ["1110" * 10, "0001" * 10, "1" * 40, "0" * 40])
    def test_columns_match_occurrence_counts(self, m, batch):
        # a batch of equal-length words, admissible or not, as the columns
        # of one 0/1 array: n0 and n1 of each column in one pass
        n = len(batch[0]) if batch else 0
        digits = np.array([[int(c) for c in s] for s in batch], dtype=np.uint8).reshape(len(batch), n).T
        got = words.column_occurrence_counts(m, digits)
        assert got.shape == (2, len(batch))
        assert list(zip(*got.tolist())) == [words.occurrence_counts(m, s) for s in batch]

    @pytest.mark.parametrize("m", range(3, 9))
    def test_every_tree_level_matches_occurrence_counts(self, m):
        # the symbols of each level, gathered from parent and last, and
        # their counts, in the trees of every L <= 14
        tree = words.word_tree(m, 14)
        levels = list(tree.digit_levels())
        assert len(levels) == 15
        for n, (lo, hi, digits) in enumerate(zip(tree.starts, tree.starts[1:], levels)):
            assert digits.shape == (n, hi - lo) and digits.dtype == np.uint8
            level = tree.words[lo:hi]
            assert ["".join(map(str, col)) for col in digits.T.tolist()] == level
            got = words.column_occurrence_counts(m, digits)
            assert list(zip(*got.tolist())) == [words.occurrence_counts(m, s) for s in level]
        for L in range(14):  # a smaller tree's levels are the first of the larger's
            smaller = list(words.word_tree(m, L).digit_levels())
            assert len(smaller) == L + 1
            assert all(np.array_equal(a, b) for a, b in zip(smaller, levels))

    def test_subadditivity_small(self):
        m = 3
        pool = [w for n in range(1, 6) for w in enumerate_words(m, n)]
        for w in pool:
            for v in pool:
                if not words.is_admissible_symbols(m, w + v):
                    continue
                w0, w1 = words.occurrence_counts(m, w)
                v0, v1 = words.occurrence_counts(m, v)
                c0, c1 = words.occurrence_counts(m, w + v)
                assert w0 + v0 - 1 <= c0 <= w0 + v0
                assert w1 + v1 - 1 <= c1 <= w1 + v1
