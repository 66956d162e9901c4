import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rllshift import words
from rllshift.words import (
    CapacityError,
    Word,
    complement,
    count_words,
    d2,
    enumerate_words,
    is_admissible,
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
        assert is_admissible(Word("010", 3))
        assert not is_admissible(Word("0001", 3))
        assert is_admissible(Word("000", 4))

    def test_empty_word_admissible(self):
        assert is_admissible(Word("", 3))

    def test_order_below_three_rejected(self):
        with pytest.raises(ValueError):
            Word("01", 2)

    def test_bad_symbols_rejected(self):
        with pytest.raises(ValueError):
            Word("012", 3)

    @PROPERTY
    @given(st.integers(3, 7), binary)
    def test_matches_longest_run(self, m, s):
        assert words.is_admissible_symbols(m, s) == (longest_run(s) < m)


class TestEnumeration:
    def test_small_sizes(self):
        assert [w.symbols for w in enumerate_words(3, 1)] == ["0", "1"]
        assert len(enumerate_words(3, 3)) == 6
        assert len(enumerate_words(3, 4)) == 10

    @pytest.mark.parametrize("m", [3, 4])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_brute_force_in_lex_order(self, m, n):
        assert [w.symbols for w in enumerate_words(m, n)] == brute_words(m, n)

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            enumerate_words(3, 40)

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_count_matches_enumeration(self, m):
        for n in range(0, 17):
            assert count_words(m, n) == len(enumerate_words(m, n))

    def test_count_examples(self):
        assert count_words(3, 0) == 1
        assert enumerate_words(3, 0) == [Word("", 3)]
        assert count_words(3, 2) == 4
        assert count_words(3, 5) == 16
        assert count_words(4, 3) == 8

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            count_words(3, -1)

    @PROPERTY
    @given(st.integers(3, 12), st.integers(0, 200))
    def test_count_matches_run_recurrence(self, m, n):
        # a word starting with 0 is a composition of n into runs of 1..m-1
        c = [1]
        for j in range(1, n + 1):
            c.append(sum(c[j - i] for i in range(1, m) if i <= j))
        assert count_words(m, n) == (2 * c[n] if n else 1)


class TestWordTable:
    @PROPERTY
    @given(st.integers(3, 6), st.integers(0, 10))
    def test_words_upto_concatenates_lengths(self, m, L):
        expected = [w.symbols for n in range(L + 1) for w in enumerate_words(m, n)]
        assert words.words_upto(m, L) == expected

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
        table = dict.fromkeys(words.words_upto(m, L))
        assert list(words.admissible_pairs(table, L)) == brute


class TestOccurrence:
    def test_examples(self):
        r = occurrence_report(Word("010", 3))
        assert (r.n0, r.n1) == (2, 1)
        r = occurrence_report(Word("001", 3))
        assert (r.n0, r.n1) == (2, 0)
        assert 3 not in r.set1  # 000 is forbidden, so position 3 is stuck
        r = occurrence_report(Word("0101", 5))
        assert (r.n0, r.n1) == (2, 2)

    def test_inadmissible_rejected(self):
        with pytest.raises(words.InadmissibleWordError):
            occurrence_report(Word("000", 3))

    @pytest.mark.parametrize("m", [3, 4])
    def test_local_rule_matches_definition(self, m):
        for n in range(1, 11):
            for w in enumerate_words(m, n):
                r = occurrence_report(w)
                assert (r.set0, r.set1) == brute_occurrence(m, w.symbols)

    @PROPERTY
    @given(st.integers(3, 6), binary)
    def test_report_matches_definition(self, m, s):
        if not words.is_admissible_symbols(m, s):
            with pytest.raises(words.InadmissibleWordError):
                occurrence_report(Word(s, m))
            return
        r = occurrence_report(Word(s, m))
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
            r = occurrence_report(w)
            rc = occurrence_report(complement(w))
            assert (rc.set0, rc.n0) == (r.set1, r.n1)
            assert (rc.set1, rc.n1) == (r.set0, r.n0)

    def test_subadditivity_small(self):
        m = 3
        pool = [w.symbols for n in range(1, 6) for w in enumerate_words(m, n)]
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
            assert is_admissible(complement(w))


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
