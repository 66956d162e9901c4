import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rllshift import markov
from rllshift.univoque import (
    CLEAN_TO_DEPTH,
    EXACT_MEMBER,
    EXACT_NONMEMBER,
    STRICT,
    VIOLATED,
    WEAK,
    EventuallyPeriodicSequence,
    clean_windows,
    gamma_check_periodic,
    gamma_check_prefix,
    theta_embed,
)
from rllshift.words import InadmissibleWordError, Word


def loop_gamma_prefix(s, depth):
    """Reference: the symbol-by-symbol compares that gamma_check_prefix
    replaces with a common-prefix table (quadratic on periodic windows)."""
    n = len(s)
    flip = {"0": "1", "1": "0"}
    flags = []
    for k in range(1, depth + 1):
        upper_equal = lower_equal = True
        for i in range(n - k):
            if s[k + i] != s[i]:
                upper_equal = False
                if s[k + i] > s[i]:
                    return (VIOLATED, k, i + 1, tuple(flags))
                break
        for i in range(n - k):
            if s[k + i] != flip[s[i]]:
                lower_equal = False
                if s[k + i] < flip[s[i]]:
                    return (VIOLATED, k, i + 1, tuple(flags))
                break
        if upper_equal or lower_equal:
            flags.append(k)
    return (CLEAN_TO_DEPTH, None, None, tuple(flags))


def loop_gamma_periodic(seq, variant):
    """Reference: the shift-by-shift compares that gamma_check_periodic
    replaces with one prefix scan.  Each compare runs preperiod + period + k
    symbols, past which both sides are periodic; shifts past preperiod +
    period repeat.  Works on any representation, normalized or not."""
    pre, per = seq.preperiod, seq.period
    horizon = len(pre) + len(per)

    def symbol(i):
        return pre[i] if i < len(pre) else per[(i - len(pre)) % len(per)]

    for k in range(1 if variant == STRICT else 0, horizon + 1):
        for flip, wrong in ((False, "greater"), (True, "less")):
            verdict = "equal"
            for i in range(horizon + k):
                a, b = symbol(i + k), symbol(i)
                if flip:
                    b = "1" if b == "0" else "0"
                if a != b:
                    verdict = "less" if a < b else "greater"
                    break
            if verdict == wrong or (verdict == "equal" and variant == STRICT):
                return (EXACT_NONMEMBER, k, None, ())
    return (EXACT_MEMBER, None, None, ())


def loop_normalized(pre, per):
    """Reference: minimal period by trying every rotation, then the
    preperiod absorbed into the period from the back."""
    L = len(per)
    d = next(
        d for d in range(1, L + 1) if all(per[i] == per[(i + d) % L] for i in range(L))
    )
    per = per[:d]
    while pre and pre[-1] == per[-1]:
        pre, per = pre[:-1], per[-1] + per[:-1]
    return pre, per


def _verdict(v):
    return (v.status, v.k, v.position, v.equality_flags)


class TestNormalization:
    def test_minimal_period(self):
        seq = EventuallyPeriodicSequence("", "0101").normalized()
        assert (seq.preperiod, seq.period) == ("", "01")

    def test_preperiod_absorbed(self):
        # 1(01)^inf = (10)^inf
        seq = EventuallyPeriodicSequence("1", "01").normalized()
        assert (seq.preperiod, seq.period) == ("", "10")

    def test_same_tail(self):
        a = EventuallyPeriodicSequence("110", "100110")
        b = a.normalized()
        assert a.prefix(40) == b.prefix(40)

    def test_empty_period_rejected(self):
        with pytest.raises(ValueError):
            EventuallyPeriodicSequence("0", "")

    def test_bad_symbols_rejected(self):
        with pytest.raises(ValueError):
            EventuallyPeriodicSequence("", "02")

    @settings(max_examples=300, deadline=None, database=None)
    @given(
        st.text("01", max_size=12),
        st.text("01", min_size=1, max_size=8),
        st.integers(1, 4),
    )
    def test_matches_rotation_loop(self, pre, unit, repeats):
        per = unit * repeats  # repeated units: periods that are not minimal
        seq = EventuallyPeriodicSequence(pre, per).normalized()
        assert (seq.preperiod, seq.period) == loop_normalized(pre, per)


class TestPeriodicDecision:
    def test_alternating_strict_vs_weak(self):
        seq = EventuallyPeriodicSequence("", "10")
        # sigma^2 w = w kills strictness but not the weak inequalities
        assert gamma_check_periodic(seq, STRICT).status == EXACT_NONMEMBER
        assert gamma_check_periodic(seq, WEAK).status == EXACT_MEMBER

    def test_constant_ones_nonmember(self):
        seq = EventuallyPeriodicSequence("", "1")
        assert gamma_check_periodic(seq, STRICT).status == EXACT_NONMEMBER
        assert gamma_check_periodic(seq, WEAK).status == EXACT_MEMBER

    def test_starts_with_zero_nonmember(self):
        seq = EventuallyPeriodicSequence("", "01")
        assert gamma_check_periodic(seq, STRICT).status == EXACT_NONMEMBER
        assert gamma_check_periodic(seq, WEAK).status == EXACT_NONMEMBER

    def test_purely_periodic_never_strict(self):
        # shifting by one full period reproduces the sequence, so the
        # strict upper inequality always fails
        for per in ("1100", "110", "110100"):
            seq = EventuallyPeriodicSequence("", per)
            assert gamma_check_periodic(seq, STRICT).status == EXACT_NONMEMBER

    def test_strict_member_example(self):
        # 111(10)^inf: every shift lands strictly between the complement
        # and the sequence itself
        seq = EventuallyPeriodicSequence("111", "10")
        assert gamma_check_periodic(seq, STRICT).status == EXACT_MEMBER
        assert gamma_check_periodic(seq, WEAK).status == EXACT_MEMBER

    def test_witness_k_is_sound(self):
        seq = EventuallyPeriodicSequence("", "10")
        verdict = gamma_check_periodic(seq, STRICT)
        k = verdict.k
        horizon = 400
        shifted = seq.prefix(horizon + k)[k:]
        base = seq.prefix(horizon)
        flipped = "".join("1" if c == "0" else "0" for c in base)
        assert shifted >= base or shifted <= flipped

    def test_bad_variant_rejected(self):
        with pytest.raises(ValueError):
            gamma_check_periodic(EventuallyPeriodicSequence("", "10"), "loose")

    def test_matches_loop_exhaustive(self):
        for n_pre, n_per in itertools.product(range(6), range(1, 7)):
            for bits in itertools.product("01", repeat=n_pre + n_per):
                word = "".join(bits)
                seq = EventuallyPeriodicSequence(word[:n_pre], word[n_pre:])
                for variant in (STRICT, WEAK):
                    got = _verdict(gamma_check_periodic(seq, variant))
                    assert got == loop_gamma_periodic(seq, variant), (seq, variant)

    @settings(max_examples=300, deadline=None, database=None)
    @given(
        st.text("01", max_size=30),
        st.text("01", min_size=1, max_size=30),
        st.sampled_from((STRICT, WEAK)),
    )
    def test_matches_loop(self, pre, per, variant):
        seq = EventuallyPeriodicSequence(pre, per)
        assert _verdict(gamma_check_periodic(seq, variant)) == loop_gamma_periodic(
            seq, variant
        )


class TestPrefixCheck:
    def test_window_starting_zero_violated_immediately(self):
        verdict = gamma_check_prefix("0110", 2)
        assert verdict.status == VIOLATED
        assert verdict.k == 1

    def test_shift_exceeding_window_violated(self):
        verdict = gamma_check_prefix("1011", 3)
        assert verdict.status == VIOLATED
        assert verdict.k == 2  # sigma^2 starts 11 > 10

    def test_alternating_clean_with_flags(self):
        w = "10" * 50
        verdict = gamma_check_prefix(w, 50)
        assert verdict.status == CLEAN_TO_DEPTH
        # every shift ties with w or its complement through the overlap tail
        assert verdict.equality_flags[:4] == (1, 2, 3, 4)

    def test_clean_example(self):
        # prefix of the strict member 111(10)^inf: every comparison is
        # decided within a few symbols, so no equality flags either
        verdict = gamma_check_prefix("111" + "10" * 30, 20)
        assert verdict.status == CLEAN_TO_DEPTH
        assert verdict.equality_flags == ()

    def test_violation_witness_sound(self):
        w = "1011010110"
        verdict = gamma_check_prefix(w, 5)
        assert verdict.status == VIOLATED
        k, i = verdict.k, verdict.position
        flipped = "".join("1" if c == "0" else "0" for c in w)
        upper_bad = w[k + i - 1] > w[i - 1] and w[k : k + i - 1] == w[: i - 1]
        lower_bad = (
            w[k + i - 1] < flipped[i - 1] and w[k : k + i - 1] == flipped[: i - 1]
        )
        assert upper_bad or lower_bad

    def test_violations_persist_with_depth(self):
        w = "110110101100110101" * 4
        seen = False
        for depth in range(1, len(w) - 1):
            verdict = gamma_check_prefix(w, depth)
            if seen:
                assert verdict.status == VIOLATED
            seen = verdict.status == VIOLATED

    def test_agrees_with_periodic_decision(self):
        for pre, per in [("", "10"), ("", "1100"), ("", "110100"), ("1", "10")]:
            seq = EventuallyPeriodicSequence(pre, per)
            exact = gamma_check_periodic(seq, STRICT)
            finite = gamma_check_prefix(seq.prefix(240), 60)
            if exact.status == EXACT_MEMBER:
                assert finite.status == CLEAN_TO_DEPTH
            elif finite.status == VIOLATED:
                assert exact.status == EXACT_NONMEMBER

    @settings(max_examples=200, deadline=None, database=None)
    @given(st.text("01", min_size=2, max_size=80), st.data())
    def test_matches_loop(self, w, data):
        depth = data.draw(st.integers(1, len(w) - 1))
        assert _verdict(gamma_check_prefix(w, depth)) == loop_gamma_prefix(w, depth)

    @settings(max_examples=100, deadline=None, database=None)
    @given(
        st.text("01", max_size=4),
        st.text("01", min_size=1, max_size=8),
        st.integers(2, 300),
        st.data(),
    )
    def test_matches_loop_on_periodic_windows(self, pre, period, length, data):
        # long equal stretches: the case the common-prefix table is for
        w = (pre + period * length)[:length]
        depth = data.draw(st.integers(1, length - 1))
        assert _verdict(gamma_check_prefix(w, depth)) == loop_gamma_prefix(w, depth)

    def test_constant_window(self):
        # every shift of 1^n ties with it through the whole overlap: about
        # 2n steps here, where comparing from the start took n^2/2 (a minute)
        verdict = gamma_check_prefix("1" * 30_000, 29_999)
        assert verdict.status == CLEAN_TO_DEPTH
        assert verdict.equality_flags == tuple(range(1, 30_000))

    def test_depth_bounds_enforced(self):
        with pytest.raises(ValueError):
            gamma_check_prefix("10", 0)
        with pytest.raises(ValueError):
            gamma_check_prefix("10", 2)


def brute_clean_windows(L):
    """Reference: all 2**L windows, each checked at depth L-1."""
    windows = (format(code, f"0{L}b") for code in range(1 << L))
    return [
        s for s in windows if gamma_check_prefix(s, L - 1).status == CLEAN_TO_DEPTH
    ]


class TestCleanWindows:
    @pytest.mark.parametrize("L", range(2, 17))
    def test_matches_brute_force(self, L):
        assert list(clean_windows(L)) == brute_clean_windows(L)

    @pytest.mark.parametrize("L", [-1, 0, 1])
    def test_short_length_rejected(self, L):
        with pytest.raises(ValueError):
            next(clean_windows(L))


class TestThetaEmbedding:
    def test_prefix_shape(self):
        assert theta_embed(Word("010011", 3)) == "111111010011"

    def test_inadmissible_rejected(self):
        with pytest.raises(InadmissibleWordError):
            theta_embed(Word("000", 3))

    def test_embedded_samples_stay_clean(self):
        chain = markov.build_chain(3, 0.5)
        for seed in range(10):
            run = markov.sample(chain, 400, seed=seed)
            win = theta_embed(Word(run.word, 3))
            verdict = gamma_check_prefix(win, 200)
            assert verdict.status == CLEAN_TO_DEPTH

    def test_clean_windows_have_bounded_runs(self):
        # any length-16 window surviving the prefix check has all complete
        # runs no longer than its leading run
        for bits in itertools.product("01", repeat=10):
            w = "11" + "".join(bits) + "0011"
            verdict = gamma_check_prefix(w, len(w) - 1)
            if verdict.status != CLEAN_TO_DEPTH:
                continue
            runs = []
            count = 1
            for a, b in zip(w, w[1:]):
                if a == b:
                    count += 1
                else:
                    runs.append(count)
                    count = 1
            assert all(r <= runs[0] for r in runs)
