import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rllshift import measure, words
from rllshift.words import (
    CapacityError,
    complement,
    count_words,
    d2,
    enumerate_words,
    is_admissible_symbols,
    occurrence_report,
    pi2,
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

    @PROPERTY
    @given(st.integers(3, 7), binary)
    def test_matches_longest_run(self, m, s):
        assert words.is_admissible_symbols(m, s) == (longest_run(s) < m)


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


# kernel weights (w0, w1, wf): exact (a, b-a, b) for p = 2/7, float
# (p, 1-p, 1) and counting
KERNEL_WEIGHTS = st.sampled_from([(2, 5, 7), (0.3, 1 - 0.3, 1), (1, 1, 1)])


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
        counts = zip(tree.arrays.n0.tolist(), tree.arrays.n1.tolist())
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
            assert a.zeros[i] == s.count("0")
            assert a.first[i] == symbol.get(s[:1], -1)
            assert tree.last[i] == symbol.get(s[-1:], -1)

    @PROPERTY
    @given(st.integers(3, 7), st.integers(0, 10))
    def test_splits_are_the_factorizations(self, m, L):
        # the (u[:i], u[i:], u) triples of test_pairs_match_brute_force, each
        # once, by u in tree order and then by i
        tree = words.word_tree(m, L)
        got = [
            (tree.words[p], tree.words[s], tree.words[u])
            for u, p, s in zip(*(x.tolist() for x in tree.splits))
        ]
        assert got == [(u[:i], u[i:], u) for u in tree.words for i in range(len(u) + 1)]

    def test_splits_are_kept_read_only(self):
        # measures of one order share them, so no caller may write into them
        tree = words.word_tree(4, 6)
        assert tree.splits is tree.splits
        for x in tree.splits:
            with pytest.raises(ValueError, match="read-only"):
                x[0] = 1

    @PROPERTY
    @given(st.integers(3, 7), st.integers(0, 10), KERNEL_WEIGHTS)
    def test_tree_numerators_match_branching_rule(self, m, L, weights):
        w0, w1, wf = weights
        tree = words.word_tree(m, L)
        # the same products in the same order, so float values agree exactly
        assert tree.numerators(w0, w1, wf).tolist() == [
            measure._mu_symbols(m, w0, w1, wf, s) for s in tree.words
        ]

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
        r = occurrence_report(3, "010")
        assert (r.n0, r.n1) == (2, 1)
        r = occurrence_report(3, "001")
        assert (r.n0, r.n1) == (2, 0)
        assert 3 not in r.set1  # 000 is forbidden, so position 3 is stuck
        r = occurrence_report(5, "0101")
        assert (r.n0, r.n1) == (2, 2)

    def test_inadmissible_rejected(self):
        with pytest.raises(words.InadmissibleWordError):
            occurrence_report(3, "000")

    @pytest.mark.parametrize("m", [3, 4])
    def test_local_rule_matches_definition(self, m):
        for n in range(1, 11):
            for w in enumerate_words(m, n):
                r = occurrence_report(m, w)
                assert (r.set0, r.set1) == brute_occurrence(m, w)

    @PROPERTY
    @given(st.integers(3, 6), binary)
    def test_report_matches_definition(self, m, s):
        if not words.is_admissible_symbols(m, s):
            with pytest.raises(words.InadmissibleWordError):
                occurrence_report(m, s)
            return
        r = occurrence_report(m, s)
        assert (r.set0, r.set1) == brute_occurrence(m, s)
        assert (r.n0, r.n1) == words.occurrence_counts(m, s)

    @PROPERTY
    @given(st.integers(3, 12), st.text(alphabet="01", max_size=60))
    def test_counts_match_flip_positions(self, m, s):
        # inadmissible strings too: the substring counts need no run check
        set0, set1 = loop_flip_positions(m, s)
        assert words.occurrence_counts(m, s) == (len(set0), len(set1))

    @pytest.mark.parametrize("m", [3, 4])
    def test_complement_swaps_report(self, m):
        for w in enumerate_words(m, 7):
            r = occurrence_report(m, w)
            rc = occurrence_report(m, complement(w))
            assert (rc.set0, rc.n0) == (r.set1, r.n1)
            assert (rc.set1, rc.n1) == (r.set0, r.n0)

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


class TestComplement:
    def test_flip(self):
        assert complement("010") == "101"

    def test_involution_and_admissibility(self):
        for w in enumerate_words(3, 6):
            assert complement(complement(w)) == w
            assert is_admissible_symbols(3, complement(w))


class TestMetricAndProjection:
    def test_d2_examples(self):
        assert d2("01", "11") == words.MetricValue(Fraction(1), True)
        assert d2("0101", "0111") == words.MetricValue(Fraction(1, 4), True)
        assert d2("0101", "0101") == words.MetricValue(Fraction(1, 16), False)

    def test_d2_empty_rejected(self):
        with pytest.raises(ValueError):
            d2("", "0")

    def test_pi2_examples(self):
        assert pi2("1") == Fraction(1, 2)
        assert pi2("011") == Fraction(3, 8)
        assert pi2("000") == 0

    def test_projection_lipschitz(self):
        # |pi2(w) - pi2(v)| <= d2(w, v) whenever d2 is exact
        n = 6
        for a in itertools.product("01", repeat=n):
            for b in itertools.product("01", repeat=n):
                w, v = "".join(a), "".join(b)
                metric = d2(w, v)
                if metric.exact:
                    assert abs(pi2(w) - pi2(v)) <= metric.value
