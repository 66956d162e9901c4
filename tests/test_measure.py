import itertools
from collections import defaultdict
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rllshift import measure, words
from rllshift.dimension import f_m
from rllshift.univoque import theta_embed
from rllshift.measure import (
    PullbackRecurrenceError,
    bernoulli,
    cesaro_lambda,
    mu_closed,
    mu_recursive,
    pullback_cylinder,
    pullback_series,
)

P13 = Fraction(1, 3)

# p = a/b with b <= 12
ratios = st.integers(2, 12).flatmap(
    lambda b: st.integers(1, b - 1).map(lambda a: Fraction(a, b))
)


def loop_cesaro(meas, w, n):
    """Reference: the step-by-step sum that cesaro_lambda does by doubling."""
    s = words.symbols_of(w)
    m = meas.m
    p = float(meas.p)
    q = 1.0 - p
    total = measure._mu_symbols(m, p, q, 1, s)
    e = words._emission(m, p, q, 1, s)
    z, o = words._start(m, p, q)
    for _ in range(n - 1):
        total += words._dot(z, o, e)
        z, o = words._step(z, o, p, q, 1)
    return total / n


def brute_pullback(meas, w, k):
    """Oracle: enumerate every admissible prefix u of length k directly."""
    total = Fraction(0)
    for bits in itertools.product("01", repeat=k):
        u = "".join(bits)
        if words.is_admissible_symbols(meas.m, u + w):
            total += mu_recursive(meas, u + w)
    return total


def ref_mu(m, p, s, prev="", run=0):
    """Fraction reference: [s] by the branching rule, read after `run` `prev`s."""
    val = Fraction(1)
    for c in s:
        if prev and run >= m - 1:
            if c == prev:
                return Fraction(0)
        else:
            val *= p if c == "0" else 1 - p
        run = run + 1 if c == prev else 1
        prev = c
    return val


def ref_states(m, p, kmax):
    """Fraction masses of the run states (digit, run) after k = 0..kmax symbols."""
    dists = [{("", 0): Fraction(1)}]
    for _ in range(kmax):
        nxt = defaultdict(Fraction)
        for (prev, run), mass in dists[-1].items():
            for c in "01":
                nxt[c, run + 1 if c == prev else 1] += mass * ref_mu(m, p, c, prev, run)
        dists.append(nxt)
    return dists


def ref_pullback(m, p, s, k, dists=None):
    """Fraction reference for mu(sigma^{-k}[s])."""
    dist = (dists or ref_states(m, p, k))[k]
    return sum(mass * ref_mu(m, p, s, prev, run) for (prev, run), mass in dist.items())


class TestMu:
    def test_recursive_examples(self):
        p = P13
        meas = bernoulli(3, p)
        assert mu_recursive(meas, "01") == p * (1 - p)
        assert mu_recursive(meas, "001") == p**2
        assert mu_recursive(meas, "000") == 0

    def test_closed_examples(self):
        p = P13
        meas = bernoulli(3, p)
        assert mu_closed(meas, "010") == p**2 * (1 - p)
        assert mu_closed(meas, "001") == p**2
        assert mu_closed(meas, "101") == p * (1 - p) ** 2

    def test_closed_rejects_inadmissible(self):
        with pytest.raises(words.InadmissibleWordError):
            mu_closed(bernoulli(3, P13), "000")

    @pytest.mark.parametrize("value", [
        mu_recursive,
        mu_closed,
        lambda meas, w: pullback_cylinder(meas, w, 2),
        lambda meas, w: cesaro_lambda(meas, w, 10),
    ])
    def test_word_of_another_order_rejected(self, value):
        # [0000] is empty in Lambda_3, nonempty in Lambda_5
        meas = bernoulli(3, P13)
        with pytest.raises(ValueError, match="order 5"):
            value(meas, words.Word("0000", 5))
        assert value(meas, words.Word("0110", 3)) == value(meas, "0110")

    @settings(max_examples=100, deadline=None, database=None)
    @given(
        st.integers(3, 8),
        st.sampled_from([P13, Fraction(2, 5), 0.3]),
        st.text(alphabet="01", max_size=12),
        st.sampled_from("01"),
        st.text(alphabet="01", max_size=12),
    )
    def test_inadmissible_contract(self, m, p, head, c, tail):
        s = head + c * m + tail  # a run of m equal symbols
        meas = bernoulli(m, p)
        assert mu_recursive(meas, s) == 0
        for k in range(4):
            assert pullback_cylinder(meas, s, k) == 0
        assert cesaro_lambda(meas, s, 50) == 0.0
        for reject in (
            lambda: mu_closed(meas, s),
            lambda: words.occurrence_report(words.Word(s, m)),
            lambda: theta_embed(words.Word(s, m)),
        ):
            with pytest.raises(words.InadmissibleWordError):
                reject()

    @pytest.mark.parametrize("m", [3, 4])
    def test_closed_equals_recursive(self, m):
        meas = bernoulli(m, Fraction(2, 3))
        for n in range(1, 9):
            for w in words.enumerate_words(m, n):
                assert mu_closed(meas, w) == mu_recursive(meas, w)

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_normalization(self, m):
        meas = bernoulli(m, P13)
        for n in range(1, 9):
            total = sum(
                mu_recursive(meas, w) for w in words.enumerate_words(m, n)
            )
            assert total == 1

    def test_empty_word_mass_one(self):
        assert mu_recursive(bernoulli(3, P13), "") == 1

    def test_mode_follows_type_of_p(self):
        assert bernoulli(3, P13).mode == measure.EXACT
        assert bernoulli(3, 0.25).mode == measure.FLOAT
        assert bernoulli(3, "1/4", measure.FLOAT).p == 0.25
        assert bernoulli(3, 0.25, measure.EXACT).p == Fraction(1, 4)
        with pytest.raises(AttributeError):
            bernoulli(3, P13).mode = measure.FLOAT

    def test_p_outside_open_interval_rejected(self):
        with pytest.raises(ValueError):
            bernoulli(3, Fraction(1))
        with pytest.raises(ValueError):
            bernoulli(3, Fraction(0))


class TestPullback:
    def test_single_digit(self):
        meas = bernoulli(3, P13)
        assert pullback_cylinder(meas, "0", 1) == P13

    def test_non_invariance_example(self):
        p = P13
        meas = bernoulli(3, p)
        pulled = pullback_cylinder(meas, "01", 1)
        assert pulled == p**2 + p * (1 - p) ** 2
        assert pulled != mu_recursive(meas, "01")

    def test_symmetry_at_half(self):
        meas = bernoulli(3, Fraction(1, 2))
        for w in ["0", "01", "011", "10"]:
            for k in range(4):
                flipped = words.complement(w)
                assert pullback_cylinder(meas, w, k) == pullback_cylinder(
                    meas, flipped, k
                )

    @pytest.mark.parametrize("m", [3, 4])
    def test_matches_enumeration_oracle(self, m):
        meas = bernoulli(m, Fraction(2, 5))
        for w in ["0", "1", "01", "10", "010", "00", "000"]:
            for k in range(6):
                assert pullback_cylinder(meas, w, k) == brute_pullback(meas, w, k)

    @settings(max_examples=40, deadline=None, database=None)
    @given(
        st.integers(3, 6),
        st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(5, 7)]),
        st.text(alphabet="01", max_size=8),
        st.integers(0, 6),
    )
    def test_matches_enumeration_oracle_property(self, m, p, w, k):
        # admissible or not: an inadmissible w has the empty cylinder at every k
        meas = bernoulli(m, p)
        assert pullback_cylinder(meas, w, k) == brute_pullback(meas, w, k)

    def test_prefix_decomposition(self):
        meas = bernoulli(3, P13)
        for w in ["0", "01", "10"]:
            for k in range(1, 6):
                split = sum(
                    pullback_cylinder(meas, x + w, k - 1)
                    for x in "01"
                    if words.is_admissible_symbols(3, x + w)
                )
                assert pullback_cylinder(meas, w, k) == split


class TestSeries:
    def test_first_terms(self):
        s = pullback_series(bernoulli(3, P13), 10)
        assert s.a[0] == P13
        assert s.a[1] == P13
        assert s.a[2] == Fraction(16, 27)

    def test_mass_partition(self):
        s = pullback_series(bernoulli(4, Fraction(2, 3)), 12)
        assert all(ak + bk == 1 for ak, bk in zip(s.a, s.b))
        assert all(0 <= x <= 1 for seq in (s.a, s.b, s.c, s.d) for x in seq)

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_recurrences_validated(self, m):
        # constructor raises on any recurrence mismatch
        pullback_series(bernoulli(m, Fraction(2, 5)), 20)

    def test_kmax_below_m_rejected(self):
        with pytest.raises(ValueError):
            pullback_series(bernoulli(5, P13), 4)

    def test_recurrence_error_is_loud(self):
        # sanity: a corrupted d-series trips the validator
        meas = bernoulli(3, P13)
        s = pullback_series(meas, 8)
        # numerators over 3**(k+1) for a_k, 3**(k+2) for c_k and d_k
        a = [x * 3 ** (k + 1) for k, x in enumerate(s.a)]
        c, d = ([x * 3 ** (k + 2) for k, x in enumerate(seq)] for seq in (s.c, s.d))
        measure._check_series_recurrences(3, *meas.weights, a, c, d, exact=True)
        with pytest.raises(PullbackRecurrenceError):
            measure._check_series_recurrences(
                3, *meas.weights, a, c, [x + 1 for x in d], exact=True
            )


class TestIntegerScaled:
    """The integer numerators over b**length against Fraction arithmetic."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.integers(3, 6), ratios, st.text(alphabet="01", max_size=10), st.integers(0, 8))
    def test_values_match_fraction_reference(self, m, p, w, k):
        # admissible or not
        meas = bernoulli(m, p)
        got = pullback_cylinder(meas, w, k)
        assert isinstance(got, Fraction)
        assert got == ref_pullback(m, p, w, k)
        assert mu_recursive(meas, w) == ref_mu(m, p, w)

    @settings(max_examples=30, deadline=None, database=None)
    @given(st.integers(3, 6), ratios, st.integers(0, 2))
    def test_series_matches_fraction_reference(self, m, p, extra):
        kmax = min(m + extra, 8)
        s = pullback_series(bernoulli(m, p), kmax)
        dists = ref_states(m, p, kmax)
        for seq, w in ((s.a, "0"), (s.b, "1"), (s.c, "01"), (s.d, "10")):
            assert list(seq) == [ref_pullback(m, p, w, k, dists) for k in range(kmax + 1)]
        running = itertools.accumulate(s.a)
        assert list(s.cesaro_a) == [t / n for n, t in enumerate(running, start=1)]

    @settings(max_examples=20, deadline=None, database=None)
    @given(st.integers(3, 6), ratios, st.integers(2, 7))
    def test_quasi_bernoulli_comparisons(self, m, p, L):
        # each integer comparison against the Fraction one it replaces, at
        # the true mu[wv] and at numerators on both sides of each bound
        a, b = p.numerator, p.denominator
        weights = bernoulli(m, p).weights
        table = {s: measure._mu_symbols(m, *weights, s) for s in words.words_upto(m, L)}
        for w, v, wv in words.admissible_pairs(table, L):
            prod = table[w] * table[v]
            assert Fraction(prod, b ** len(wv)) == ref_mu(m, p, w) * ref_mu(m, p, v)
            assert Fraction(table[wv], b ** len(wv)) == ref_mu(m, p, wv)
            top = b * b * prod // (a * (b - a))
            for mu_wv in {table[wv], prod - 1, prod, prod + 1, top, top + 1}:
                fprod = Fraction(prod, b ** len(wv))
                fwv = Fraction(mu_wv, b ** len(wv))
                want = (fprod <= fwv, fwv <= fprod / (p * (1 - p)))
                assert measure._quasi_bernoulli_bounds(a, b, prod, mu_wv) == want

    @settings(max_examples=20, deadline=None, database=None)
    @given(st.integers(3, 6), ratios, st.integers(1, 6), st.integers(1, 8))
    def test_pullback_bound_comparisons(self, m, p, L, kmax):
        # as above, for c^{-1} mu[w] <= mu(sigma^{-k}[w]) <= c mu[w]
        a, b = p.numerator, p.denominator
        meas = bernoulli(m, p)
        c = 1 / (p * p * (1 - p) * (1 - p))
        dists = ref_states(m, p, kmax)
        for s in words.words_upto(m, L)[1:]:
            mu_w = measure._mu_symbols(m, *meas.weights, s)
            fmu = ref_mu(m, p, s)
            assert Fraction(mu_w, b ** len(s)) == fmu
            for k in range(1, kmax + 1):
                scale = b ** (k + len(s))
                pb = pullback_cylinder(meas, s, k) * scale
                assert pb.denominator == 1
                pb = pb.numerator
                low = (a * (b - a)) ** 2 * mu_w * b**k // b**4
                high = b**4 * mu_w * b**k // (a * (b - a)) ** 2
                for num in {pb, low, low + 1, high, high + 1}:
                    fpb = Fraction(num, scale)
                    want = (fmu <= c * fpb, fpb <= c * fmu)
                    assert measure._pullback_bounds(a, b, k, mu_w, num) == want
                assert Fraction(pb, scale) == ref_pullback(m, p, s, k, dists)


class TestCesaroAndClosedForm:
    def test_symmetric_case_exact(self):
        meas = bernoulli(3, Fraction(1, 2))
        assert cesaro_lambda(meas, "0", 100) == 0.5

    def test_converges_to_closed_form(self):
        meas = bernoulli(3, P13)
        got = cesaro_lambda(meas, "0", 4000)
        assert abs(got - 4 / 9) < 1e-3

    def test_cylinders_01_and_10_agree_in_limit(self):
        meas = bernoulli(3, P13)
        c = cesaro_lambda(meas, "01", 4000)
        d = cesaro_lambda(meas, "10", 4000)
        assert abs(c - d) < 1e-3

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        st.integers(3, 12),
        st.one_of(
            ratios,
            st.sampled_from([1e-12, 1 - 1e-12]),
            st.floats(0, 1, exclude_min=True, exclude_max=True),
        ),
        st.text("01", max_size=6),
        st.one_of(
            st.integers(1, 3000),
            st.builds(
                lambda j, d: max(1, 2**j + d), st.integers(0, 11), st.sampled_from([-1, 0, 1])
            ),
        ),
    )
    def test_doubling_matches_loop(self, m, p, w, n):
        meas = bernoulli(m, p)
        got, want = cesaro_lambda(meas, w, n), loop_cesaro(meas, w, n)
        assert isinstance(got, float)
        if not words.is_admissible_symbols(m, w):
            assert got == want == 0.0
        else:
            assert abs(got - want) <= 1e-12 * want

    @settings(max_examples=15, deadline=None, database=None)
    @given(st.integers(3, 12), ratios)
    def test_error_against_exact_average(self, m, p):
        meas = bernoulli(m, p)
        exact = pullback_series(meas, 200).cesaro_a
        for n in (1, 2, 3, 7, 50, 200):
            got = Fraction(cesaro_lambda(meas, "0", n))
            assert abs(got - exact[n - 1]) <= Fraction(1, 10**13) * exact[n - 1]

    @pytest.mark.parametrize("m, p", [(3, P13), (7, 0.3), (12, 1e-12)])
    def test_one_term_and_empty_cylinder(self, m, p):
        meas = bernoulli(m, p)
        for w in ("", "0", "0110", "101"):
            assert cesaro_lambda(meas, w, 1) == mu_recursive(bernoulli(m, float(p)), w)
        for n in (1, 2, 1000, 10**12):
            assert cesaro_lambda(meas, "0" * m, n) == 0.0
            assert cesaro_lambda(meas, "01" + "1" * m, n) == 0.0

    def test_lambda0_examples(self):
        assert f_m(3, Fraction(1, 2)) == Fraction(1, 2)
        assert f_m(3, P13) == Fraction(4, 9)

    def test_lambda0_m3_identity(self):
        for num in range(1, 10):
            p = Fraction(num, 10)
            assert f_m(3, p) == (1 + p) / 3


class TestInequalitySuites:
    def test_quasi_bernoulli_empty(self):
        assert measure.quasi_bernoulli_check(bernoulli(3, P13), 6) == []

    def test_quasi_bernoulli_requires_exact(self):
        with pytest.raises(ValueError):
            measure.quasi_bernoulli_check(bernoulli(3, 0.3), 6)

    def test_pullback_bounds_empty(self):
        assert measure.pullback_bounds_check(bernoulli(3, P13), 5, 5) == []

    def test_equality_case(self):
        meas = bernoulli(3, Fraction(1, 2))
        mu00 = mu_recursive(meas, "00")
        mu0 = mu_recursive(meas, "0")
        assert mu00 == mu0 * mu0 == Fraction(1, 4)
