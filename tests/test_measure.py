import itertools
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rllshift import markov, measure, verify, words
from rllshift.dimension import f_m
from rllshift.univoque import gamma_check_prefix, theta_embed
from rllshift.measure import (
    PullbackRecurrenceError,
    bernoulli,
    cesaro_lambda,
    mu_closed,
    mu_recursive,
    pullback_cylinder,
)

P13 = Fraction(1, 3)

# p = a/b with b <= 12
ratios = st.integers(2, 12).flatmap(
    lambda b: st.integers(1, b - 1).map(lambda a: Fraction(a, b))
)


def loop_cesaro(meas, s, n):
    """Reference: the step-by-step sum that cesaro_lambda does by doubling."""
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


def unit_rows_transfer_matrix(m, p, q):
    """Reference: the float transfer matrix one `_step` of a unit state per row."""
    size = m - 1
    rows = []
    for i in range(2 * size):
        unit = [0.0] * (2 * size)
        unit[i] = 1.0
        z, o = words._step(unit[:size], unit[size:], p, q, 1)
        rows.append(z + o)
    return np.array(rows)


def loop_quasi_bernoulli(meas, L):
    """Reference: the per-split loop that quasi_bernoulli_check does in array passes."""
    a, _, b = weights = meas.weights
    holds = measure._quasi_bernoulli_bounds(a, b)
    tree = words.word_tree(meas.m, L)
    mu = dict(zip(tree.words, tree.numerators([weights])[0]))
    return [(u[:i], u[i:]) for u, mu_u in mu.items() for i in range(len(u) + 1)
            if not holds(mu[u[:i]] * mu[u[i:]], mu_u)]


def loop_pullback_bounds(meas, L, kmax):
    """Reference: one emission and one _dot per (w, k), as pullback_bounds_check was."""
    m = meas.m
    a, _, b = weights = meas.weights
    holds = measure._pullback_bounds(a, b)
    masses = list(itertools.islice(words._masses(m, *weights), kmax))
    tree = words.word_tree(m, L)
    emissions = {"": words._emission(m, *weights, "")}  # shortest first, so s[1:] is in
    violations = []
    for s, mu_w in zip(tree.words[1:], tree.numerators([weights])[0, 1:]):
        e = emissions[s] = words._prepend(m, *weights, s[0], emissions[s[1:]])
        for k, (z, o) in enumerate(masses, start=1):
            if not holds(mu_w * b**k, words._dot(z, o, e)):
                violations.append((s, k))
    return violations


def largest_base(exponent, count=1):
    """The largest b >= 1 with count * b**exponent < 2**63, by bisection."""
    lo, hi = 1, 2**63
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if count * mid**exponent < 2**63 else (lo, mid - 1)
    return lo


def on_python_ints(*args):
    """A numerator_dtype that always answers object."""
    return object


# (m, L, kmax, p) with b**e just below and just above 2**63, for e the
# exponent of check 5 (L + 2) and of check 6 (kmax + L + 4), and for e + 1,
# where numerator_dtype switches from int64 to Python ints; p = 1/b and
# (b-1)/b weigh the runs of one digit b-1 a symbol, so numerators come
# close to their bound b**n
BOUND_EDGE_EXAMPLES = [
    (m, L, kmax, Fraction(a, b))
    for m, L, kmax, e in [(4, 8, 1, 8 + 2), (3, 6, 2, 6 + 2), (5, 8, 8, 8 + 8 + 4),
                          (3, 5, 3, 5 + 3 + 4)]
    for edge in (e, e + 1)
    for b in (largest_base(edge), largest_base(edge) + 1)
    for a in (1, b - 1)
]


def reject_all(a, b):
    """A bound that rejects every comparison, scalar or array."""
    return lambda x, _: np.zeros(np.shape(x), dtype=bool)


def reject_by_parity(a, b):
    """A bound that rejects the comparisons whose numerators sum to an even number."""
    return lambda x, y: (x + y) % 2 != 0


def examples(cases):
    """Stack one hypothesis @example per case on a @given test."""
    def apply(test):
        for case in cases:
            test = example(*case)(test)
        return test
    return apply


# k at and around S = 2(m-1), where the warm-up steps end and the doubling
# starts, and big integers at m = 40 and 60 (b = 10, k <= 600)
WALK_EXAMPLES = [
    (m, (1 + m % 9, 10), "0110", k)
    for m in range(3, 13)
    for k in (1, 2 * m - 3, 2 * m - 2, 2 * m - 1, 2 * m)
] + [
    (40, (3, 10), "0110", 600),
    (40, (9, 10), "", 79),
    (60, (3, 10), "0110", 500),
    (60, (7, 10), "101", 119),
    (60, (1, 10), "0011", 600),
]


# float pullbacks at k = 1 and around S = 2(m-1), where the exact walk
# switches from kernel steps to doubling, and at S = 198 with k past S
FLOAT_WALK_EXAMPLES = [
    (m, 0.3, "0110", k)
    for m in (3, 7, 12, 40)
    for k in (1, 2 * m - 3, 2 * m - 2, 2 * m - 1)
] + [
    (100, 0.3, "0110", 199),
    (100, 0.7, "101", 2000),
]


def loop_walk(m, w0, w1, wf, e, k):
    """Reference: the k-1 kernel steps that words._walk replaces by doubling."""
    z, o = words._start(m, w0, w1)
    for _ in range(k - 1):
        z, o = words._step(z, o, w0, w1, wf)
    return words._dot(z, o, e)


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


def series_values(meas, kmax):
    """a, b, c, d of `pullback_numerators` as Fractions: numerators over
    b**(k+1) for a_k and b_k, over b**(k+2) for c_k and d_k."""
    base = meas.p.denominator
    series = measure.pullback_numerators(meas, kmax)
    return [[Fraction(x, base ** (k + len(w))) for k, x in enumerate(seq)]
            for w, seq in zip(measure._SERIES_CYLINDERS, series)]


def flip(s):
    """The word with every symbol flipped."""
    return s.translate(str.maketrans("01", "10"))


# every public function that takes a word, called as (m, s); True where the
# function, or the measure it reads, takes the order m
WORD_TAKING = {
    "mu_recursive": (lambda m, s: mu_recursive(bernoulli(m, P13), s), True),
    "mu_closed": (lambda m, s: mu_closed(bernoulli(m, P13), s), True),
    "pullback_cylinder": (lambda m, s: pullback_cylinder(bernoulli(m, P13), s, 2), True),
    "cesaro_lambda": (lambda m, s: cesaro_lambda(bernoulli(m, 0.3), s, 10), True),
    "is_admissible_symbols": (words.is_admissible_symbols, True),
    "theta_embed": (theta_embed, True),
    "gamma_check_prefix": (lambda m, s: gamma_check_prefix(s, 1), False),
}


@pytest.mark.parametrize("name", WORD_TAKING)
def test_word_taking_functions_reject_bad_input(name):
    call, takes_order = WORD_TAKING[name]
    with pytest.raises(ValueError, match="symbols must be"):
        call(3, "012")
    if takes_order:
        with pytest.raises(ValueError, match="order must be"):
            call(2, "01")


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
            lambda: theta_embed(m, s),
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
        # the CLI parses text; any p that is not a Fraction goes through float
        assert bernoulli(3, "0.3") == bernoulli(3, 0.3)
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

    def test_negative_k_rejected(self):
        for p in (P13, 0.3):
            with pytest.raises(ValueError, match="k must be >= 0, got -1"):
                pullback_cylinder(bernoulli(3, p), "0", -1)

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
                assert pullback_cylinder(meas, w, k) == pullback_cylinder(
                    meas, flip(w), k
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


class TestWalk:
    """Exact `words._walk` and float pullbacks against the step loop, the
    cycle polynomial, and the limit."""

    @settings(max_examples=150, deadline=None, database=None)
    @given(
        st.integers(3, 12),
        st.integers(2, 10).flatmap(lambda b: st.tuples(st.integers(1, b - 1), st.just(b))),
        st.text(alphabet="01", max_size=10),
        st.one_of(st.integers(1, 400), st.integers(400, 3000)),
    )
    @examples(WALK_EXAMPLES)
    def test_exact_equals_loop(self, m, ab, w, k):
        # empty and inadmissible words included; the latter give 0 at every k
        a, b = ab
        weights = (a, b - a, b)
        e = words._emission(m, *weights, w)
        got = words._walk(m, *weights, e, k)
        assert type(got) is int
        assert got == loop_walk(m, *weights, e, k)
        if not words.is_admissible_symbols(m, w):
            assert got == 0

    @pytest.mark.parametrize("p", [0.3, 0.5, 2 / 7, 1e-12, 1 - 1e-12])
    def test_transfer_matrix_equals_unit_rows(self, p):
        # one vector step of the identity: the same floats as a step per row
        for m in [*range(3, 41), 300]:
            got = measure._transfer_matrix(m, p, 1.0 - p)
            want = unit_rows_transfer_matrix(m, p, 1.0 - p)
            assert got.dtype == want.dtype and got.flags.c_contiguous
            assert np.array_equal(got, want), m

    @pytest.mark.parametrize("m", range(3, 13))
    @pytest.mark.parametrize("p", [Fraction(1, 1000), P13, Fraction(1, 2), Fraction(9, 10)])
    def test_cycle_polynomial(self, m, p):
        # det(I - zP) = 1 - F0(z) F1(z) against numpy's characteristic polynomial
        c = words._cycle_weights(m, float(p), float(1 - p), 1)
        charpoly = np.poly(measure._transfer_matrix(m, float(p), float(1 - p)))
        assert len(c) == len(charpoly) == 2 * m - 1
        assert np.allclose(charpoly, [1.0] + [-x for x in c[1:]], rtol=0, atol=1e-9)
        # and on integer weights the recurrence holds exactly for the step loop
        a, b = p.numerator, p.denominator
        weights = (a, b - a, b)
        c = words._cycle_weights(m, *weights)
        e = words._emission(m, *weights, "0110")
        y = [None] + [loop_walk(m, *weights, e, k) for k in range(1, 6 * m)]
        for n in range(2 * m - 1, 6 * m):
            assert y[n] == sum(c[j] * y[n - j] for j in range(2, 2 * m - 1))

    @settings(max_examples=80, deadline=None, database=None)
    @given(
        st.integers(3, 40),
        st.one_of(
            ratios,
            st.sampled_from([1e-3, 1e-12, 1 - 1e-12]),
            st.floats(0, 1, exclude_min=True, exclude_max=True),
        ),
        st.text("01", max_size=6),
        st.integers(1, 5000),
    )
    @examples(FLOAT_WALK_EXAMPLES)
    def test_float_pullback_matches_loop(self, m, p, w, k):
        p = float(p)
        got = pullback_cylinder(bernoulli(m, p), w, k)
        want = loop_walk(m, p, 1 - p, 1, words._emission(m, p, 1 - p, 1, w), k)
        assert isinstance(got, float)
        assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("m", [3, 7, 12, 35, 100])
    @pytest.mark.parametrize(
        "p", [Fraction(1, 1000), Fraction(3, 10), Fraction(1, 2), Fraction(999, 1000)]
    )
    def test_float_pullback_reaches_stationary_value(self, m, p):
        # the stationary law as integer visit numerators over their total
        visits, total = markov._visit_numerators(markov.build_chain(m, p))
        meas = bernoulli(m, float(p))
        for w in ("", "0", "01", "110", "0110"):
            ez, eo = words._emission(m, p, 1 - p, 1, w)
            exact = Fraction(sum(v * x for v, x in zip(visits, ez + eo)), total)
            got = pullback_cylinder(meas, w, 10**12)
            assert abs(Fraction(got) - exact) <= Fraction(1, 10**14) * exact

    @pytest.mark.parametrize("k", [2**1024 - 1, 2**1024, 10**400])
    def test_float_pullback_past_the_float_range(self, k):
        # the Cesaro sum that the doubling carries overflows here; the
        # pullback does not, and no warning escapes
        meas = bernoulli(5, 0.3)
        want = pullback_cylinder(meas, "0110", 10**12)
        assert abs(pullback_cylinder(meas, "0110", k) - want) <= 1e-14 * want
        assert pullback_cylinder(meas, "000000", k) == 0.0


class TestSeries:
    def test_first_terms(self):
        a = series_values(bernoulli(3, P13), 10)[0]
        assert a[:3] == [P13, P13, Fraction(16, 27)]

    def test_mass_partition(self):
        a, b, c, d = series_values(bernoulli(4, Fraction(2, 3)), 12)
        assert all(ak + bk == 1 for ak, bk in zip(a, b))
        assert all(0 <= x <= 1 for seq in (a, b, c, d) for x in seq)

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_recurrences_validated(self, m):
        # raises on any recurrence mismatch
        measure.pullback_numerators(bernoulli(m, Fraction(2, 5)), 20)

    def test_kmax_below_m_rejected(self):
        with pytest.raises(ValueError):
            measure.pullback_numerators(bernoulli(5, P13), 4)

    def test_float_p_rejected(self):
        with pytest.raises(ValueError, match="^pullback_numerators requires exact mode$"):
            measure.pullback_numerators(bernoulli(5, 0.3), 20)

    @pytest.mark.parametrize("m", [3, 4, 5, 8])
    @pytest.mark.parametrize("p", [0.3, 0.5, 2 / 3, 0.001])
    def test_float_series_matches_exact(self, m, p):
        # the float route to the series, pullback_cylinder and cesaro_lambda,
        # agrees with the exact numerators at the same binary64 p
        meas = bernoulli(m, p)
        series = series_values(bernoulli(m, Fraction(p)), 40)
        for w, seq in zip(measure._SERIES_CYLINDERS, series):
            for k, want in enumerate(seq):
                assert abs(pullback_cylinder(meas, w, k) - want) <= 1e-12 * want
        for n, total in enumerate(itertools.accumulate(series[0]), start=1):
            assert abs(cesaro_lambda(meas, "0", n) - total / n) <= 1e-12 * total / n

    def test_recurrence_error_is_loud(self):
        # sanity: a corrupted d-series trips the validator
        meas = bernoulli(3, P13)
        a, _, c, d = measure.pullback_numerators(meas, 8)
        measure._check_series_recurrences(3, *meas.weights, a, c, d)
        with pytest.raises(PullbackRecurrenceError):
            measure._check_series_recurrences(3, *meas.weights, a, c, [x + 1 for x in d])


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
        dists = ref_states(m, p, kmax)
        for seq, w in zip(series_values(bernoulli(m, p), kmax), measure._SERIES_CYLINDERS):
            assert seq == [ref_pullback(m, p, w, k, dists) for k in range(kmax + 1)]

    @settings(max_examples=20, deadline=None, database=None)
    @given(st.integers(3, 6), ratios, st.integers(2, 7))
    def test_quasi_bernoulli_comparisons(self, m, p, L):
        # each integer comparison against the Fraction one it replaces, at
        # the true mu[wv] and at numerators on both sides of each bound
        # (top >= 4 prod, so each boundary pair tests one bound alone)
        a, b = p.numerator, p.denominator
        weights = bernoulli(m, p).weights
        table = {s: measure._mu_symbols(m, *weights, s) for s in words.word_tree(m, L).words}
        bounds = measure._quasi_bernoulli_bounds(a, b)
        splits = [(u[:i], u[i:], u) for u in table for i in range(len(u) + 1)]
        for w, v, wv in splits:
            prod = table[w] * table[v]
            assert Fraction(prod, b ** len(wv)) == ref_mu(m, p, w) * ref_mu(m, p, v)
            assert Fraction(table[wv], b ** len(wv)) == ref_mu(m, p, wv)
            top = b * b * prod // (a * (b - a))
            for mu_wv in {table[wv], prod - 1, prod, prod + 1, top, top + 1}:
                fprod = Fraction(prod, b ** len(wv))
                fwv = Fraction(mu_wv, b ** len(wv))
                want = fprod <= fwv and fwv <= fprod / (p * (1 - p))
                assert bounds(prod, mu_wv) == want

    @settings(max_examples=20, deadline=None, database=None)
    @given(st.integers(3, 6), ratios, st.integers(1, 6), st.integers(1, 8))
    def test_pullback_bound_comparisons(self, m, p, L, kmax):
        # as above, for c^{-1} mu[w] <= mu(sigma^{-k}[w]) <= c mu[w]
        a, b = p.numerator, p.denominator
        meas = bernoulli(m, p)
        c = 1 / (p * p * (1 - p) * (1 - p))
        dists = ref_states(m, p, kmax)
        bounds = measure._pullback_bounds(a, b)
        for s in words.word_tree(m, L).words[1:]:
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
                    want = fmu <= c * fpb and fpb <= c * fmu
                    assert bounds(mu_w * b**k, num) == want
                assert Fraction(pb, scale) == ref_pullback(m, p, s, k, dists)


def quick_and_full_edges():
    """(quick, p) with b**e just below and just above 2**63, for e the
    exponent of check 3 (L) and of check 4 (L, with the count of the widest
    level at m = 3 and 5), and for e + 1, where numerator_dtype switches."""
    cases = []
    for quick, L in ((True, 8), (False, 12)):
        for count in (1, words.count_words(3, L), words.count_words(5, L)):
            for edge in (L, L + 1):
                b = largest_base(edge, count)
                cases += [(quick, Fraction(x - 1, x)) for x in (b, b + 1)]
    return cases


def numerators_one_more_past_five(tree, *args):
    """WordTree.numerators with one unit too many on every word longer than 5."""
    return NUMERATORS(tree, *args) + (tree.arrays.depth > 5)


def numerators_times_21_past_five(tree, *args):
    """WordTree.numerators with every word longer than 5 weighed 21 times."""
    return NUMERATORS(tree, *args) * (1 + 20 * (tree.arrays.depth > 5))


def counts_n0_plus_one_past_five(m, digits):
    """column_occurrence_counts with one free 0 too many on every word
    longer than 5 (the words are the columns, their length the rows)."""
    counts = COLUMN_OCCURRENCE_COUNTS(m, digits)
    counts[0] += len(digits) > 5
    return counts


NUMERATORS, COLUMN_OCCURRENCE_COUNTS = words.WordTree.numerators, words.column_occurrence_counts


class TestExactDtype:
    """measure.numerator_dtype: int64 where the bound is proven, else Python ints."""

    # p = a/b with b up to 10**12, so both routes run
    @settings(max_examples=10, deadline=None, database=None)
    @given(
        st.booleans(),
        st.integers(2, 10**12).flatmap(
            lambda b: st.integers(1, b - 1).map(lambda a: Fraction(a, b))
        ),
    )
    @examples(quick_and_full_edges())
    def test_checks_3_and_4_match_the_object_route(self, quick, p):
        # the same verdicts and counts in numerator_dtype's dtype as on
        # Python ints: as they are, and with a numerator or a count planted
        # one too large past length 5
        planted = [
            (None, None, None),
            (words.WordTree, "numerators", numerators_one_more_past_five),
            (words, "column_occurrence_counts", counts_n0_plus_one_past_five),
        ]
        for owner, attr, defect in planted:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(verify, "P_GRID", (p,))
                if owner is not None:
                    mp.setattr(owner, attr, defect)
                got = [verify.check_closed_vs_recursive(quick), verify.check_normalization(quick)]
                mp.setattr(measure, "numerator_dtype", on_python_ints)
                assert [verify.check_closed_vs_recursive(quick),
                        verify.check_normalization(quick)] == got
                if owner is not None:
                    assert not got[0].passed

    def test_edge_examples_straddle_both_routes(self):
        # the examples above run checks 5 and 6 on int64 and on Python ints
        routes = {
            (measure.numerator_dtype(p.denominator, L + 2),
             measure.numerator_dtype(p.denominator, kmax + L + 4))
            for _, L, kmax, p in BOUND_EDGE_EXAMPLES
        }
        assert {np.int64, object} <= {dtype for pair in routes for dtype in pair}

    # (exponent of the check's bound at depth L and shift kmax, count): b**L
    # for check 3, count_words(m, L) b**L for check 4, b**(L+2) for check 5,
    # b**(kmax+L+4) for check 6
    CHECK_BOUNDS = {
        "3": lambda b, L, kmax, m: (L, 1),
        "4": lambda b, L, kmax, m: (L, words.count_words(m, L)),
        "5": lambda b, L, kmax, m: (L + 2, 1),
        "6": lambda b, L, kmax, m: (kmax + L + 4, 1),
    }

    @pytest.mark.parametrize("check", sorted(CHECK_BOUNDS))
    @pytest.mark.parametrize("b", [2, 3, 10, 52, 53, 10**3, 10**6, 10**12])
    def test_numerator_dtype_picks_object_one_step_past(self, check, b):
        bound = self.CHECK_BOUNDS[check]
        m, kmax = 5, 8

        def dtype(b, L, kmax):
            return measure.numerator_dtype(b, *bound(b, L, kmax, m))

        fits = [L for L in range(64) if dtype(b, L, kmax) is np.int64]
        assert fits == list(range(len(fits)))  # every L up to the largest
        for L in fits:  # the bound with a factor b to spare
            exponent, count = bound(b, L, kmax, m)
            assert count * b**exponent * b < 2**63
        if not fits:
            assert dtype(b, 0, kmax) is object
            return
        L = fits[-1]
        # one step past in L, in b and, for check 6, in kmax
        assert dtype(b, L + 1, kmax) is object
        lo, hi = b, 2**63  # the largest base on int64 at this L, by bisection
        while lo < hi:
            mid = (lo + hi + 1) // 2
            lo, hi = (mid, hi) if dtype(mid, L, kmax) is np.int64 else (lo, mid - 1)
        assert dtype(lo + 1, L, kmax) is object
        exponent, count = bound(lo, L, kmax, m)
        assert count * lo**exponent * lo < 2**63 <= count * (lo + 1) ** exponent * (lo + 1)
        if check == "6":
            assert dtype(b, L, kmax + 1) is object

    def test_gate_sizes_run_on_int64(self, monkeypatch):
        # b <= 3, |w| <= 12, k <= 8: checks 3-6 never fall back to Python ints
        picked = []
        numerator_dtype = measure.numerator_dtype

        def recording(*args):
            picked.append(numerator_dtype(*args))
            return picked[-1]

        monkeypatch.setattr(measure, "numerator_dtype", recording)
        for num in ("3", "4", "5", "6"):
            assert dict(verify.CHECKS)[num](False).passed
        # one pick per m in each check, whose three p share one array
        assert len(picked) == 4 * 3 and set(picked) == {np.int64}

    def test_one_pass_per_order(self, monkeypatch):
        # checks 3-6 each read a tree once for all three p: one numerators
        # call and one numerator_dtype pick per order, 12 of each in all
        calls = []
        for owner, attr in ((words.WordTree, "numerators"), (measure, "numerator_dtype")):
            def counted(*args, fn=getattr(owner, attr), attr=attr):
                calls.append(attr)
                return fn(*args)
            monkeypatch.setattr(owner, attr, counted)
        for num in ("3", "4", "5", "6"):
            calls.clear()
            assert dict(verify.CHECKS)[num](False).passed
            assert sorted(calls) == ["numerator_dtype"] * 3 + ["numerators"] * 3, num


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
        sums = list(itertools.accumulate(series_values(meas, 200)[0]))
        for n in (1, 2, 3, 7, 50, 200):
            exact = sums[n - 1] / n
            got = Fraction(cesaro_lambda(meas, "0", n))
            assert abs(got - exact) <= Fraction(1, 10**13) * exact

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
        assert measure.quasi_bernoulli_check(words.word_tree(3, 6), [P13]) == [[]]

    def test_quasi_bernoulli_requires_exact(self):
        with pytest.raises(ValueError, match="exact mode"):
            measure.quasi_bernoulli_check(words.word_tree(3, 6), [P13, 0.3])

    def test_pullback_bounds_empty(self):
        assert measure.pullback_bounds_check(words.word_tree(3, 5), [P13], 5) == [[]]

    def test_pullback_bounds_requires_exact(self):
        with pytest.raises(ValueError, match="exact mode"):
            measure.pullback_bounds_check(words.word_tree(3, 5), [P13, 0.3], 5)

    @pytest.mark.parametrize("kmax", [0, -1])
    def test_pullback_bounds_rejects_kmax_below_one(self, kmax):
        with pytest.raises(ValueError, match=f"kmax must be >= 1, got {kmax}"):
            measure.pullback_bounds_check(words.word_tree(3, 5), [P13], kmax)

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_quasi_bernoulli_reports_every_split(self, monkeypatch, m):
        # a bound that rejects every pair: the check must list them all,
        # by wv in tree order, then by split point
        monkeypatch.setattr(measure, "_quasi_bernoulli_bounds", reject_all)
        tree = words.word_tree(m, 6)
        every = [(u[:i], u[i:]) for u in tree.words for i in range(len(u) + 1)]
        assert measure.quasi_bernoulli_check(tree, [P13]) == [every]
        assert measure.quasi_bernoulli_check(tree, [P13, Fraction(1, 2)]) == [every, every]

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_pullback_bounds_reports_every_pair(self, monkeypatch, m):
        # as above: every non-empty w, shortest first, then every k
        monkeypatch.setattr(measure, "_pullback_bounds", reject_all)
        L, kmax = 5, 4
        tree = words.word_tree(m, L)
        every = [(w, k) for w in tree.words[1:] for k in range(1, kmax + 1)]
        assert measure.pullback_bounds_check(tree, [P13], kmax) == [every]
        assert measure.pullback_bounds_check(tree, [P13, Fraction(1, 2)], kmax) == [every, every]

    # p = a/b with b up to 10**12: the numerators pass 2**63 at small sizes
    @settings(max_examples=40, deadline=None, database=None)
    @given(
        st.integers(3, 6),
        st.integers(0, 8),
        st.integers(1, 8),
        st.integers(2, 10**12).flatmap(
            lambda b: st.integers(1, b - 1).map(lambda a: Fraction(a, b))
        ),
    )
    @example(6, 8, 8, Fraction(10**12 - 1, 10**12))
    @example(3, 8, 8, Fraction(1, 10**12))
    @example(4, 0, 3, P13)
    @example(5, 1, 8, Fraction(1, 2))
    @examples(BOUND_EDGE_EXAMPLES)
    def test_array_passes_match_loops(self, m, L, kmax, p):
        # the same violations in the same order: under the true bounds, a
        # bound that rejects everything, and one that rejects by parity;
        # and the same on Python ints as in numerator_dtype's dtype
        meas = bernoulli(m, p)
        tree = words.word_tree(m, L)
        for bound in (None, reject_all, reject_by_parity):
            with pytest.MonkeyPatch.context() as mp:
                if bound is not None:
                    mp.setattr(measure, "_quasi_bernoulli_bounds", bound)
                    mp.setattr(measure, "_pullback_bounds", bound)
                quasi = measure.quasi_bernoulli_check(tree, [p])
                assert quasi == [loop_quasi_bernoulli(meas, L)]
                pullback = measure.pullback_bounds_check(tree, [p], kmax)
                assert pullback == [loop_pullback_bounds(meas, L, kmax)]
                mp.setattr(measure, "numerator_dtype", on_python_ints)
                assert measure.quasi_bernoulli_check(tree, [p]) == quasi
                assert measure.pullback_bounds_check(tree, [p], kmax) == pullback

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_shared_tree_gives_the_same_violations(self, monkeypatch, m):
        # one tree per order serves every p, as checks 5 and 6 use it
        monkeypatch.setattr(measure, "_quasi_bernoulli_bounds", reject_by_parity)
        monkeypatch.setattr(measure, "_pullback_bounds", reject_by_parity)
        L, kmax = 6, 4
        tree = words.word_tree(m, L)
        ps = (P13, Fraction(1, 2), Fraction(2, 3), Fraction(7, 10**12))
        loops = [loop_quasi_bernoulli(bernoulli(m, p), L) for p in ps]
        pullbacks = [loop_pullback_bounds(bernoulli(m, p), L, kmax) for p in ps]
        assert all(loops) and all(pullbacks)
        # one pass for every p, on Python ints for all of them (b = 3 with
        # b = 10**12)
        assert measure.quasi_bernoulli_check(tree, ps) == loops
        assert measure.pullback_bounds_check(tree, ps, kmax) == pullbacks
        # and in int64 for the first three
        assert measure.quasi_bernoulli_check(tree, ps[:3]) == loops[:3]
        assert measure.pullback_bounds_check(tree, ps[:3], kmax) == pullbacks[:3]
        for p, loop, pullback in zip(ps, loops, pullbacks):
            assert measure.quasi_bernoulli_check(tree, [p]) == [loop]
            assert measure.pullback_bounds_check(tree, [p], kmax) == [pullback]

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_planted_numerators_list_violations_in_order(self, monkeypatch, m):
        # one unit too many on every word longer than 5, as in the gate's
        # defect matrix: the same violations as the per-split loop's, by wv
        # in tree order, then by split point, for each p of one pass
        monkeypatch.setattr(words.WordTree, "numerators", numerators_one_more_past_five)
        L = 9
        tree = words.word_tree(m, L)
        got = measure.quasi_bernoulli_check(tree, verify.P_GRID)
        assert got == [loop_quasi_bernoulli(bernoulli(m, p), L) for p in verify.P_GRID]
        assert any(got)

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_planted_numerators_list_pullback_violations_in_order(self, monkeypatch, m):
        # every word longer than 5 weighed 21 times, past c = (p(1-p))^-2
        # (16 at p = 1/2, 20.25 at 1/3 and 2/3): the same violations as the
        # loop's, by w, shortest first, then k, for each p of one pass
        monkeypatch.setattr(words.WordTree, "numerators", numerators_times_21_past_five)
        L, kmax = 8, 5
        tree = words.word_tree(m, L)
        got = measure.pullback_bounds_check(tree, verify.P_GRID, kmax)
        want = [loop_pullback_bounds(bernoulli(m, p), L, kmax) for p in verify.P_GRID]
        assert got == want
        assert all(0 < len(bad) < (len(tree.words) - 1) * kmax for bad in got)

    def test_equality_case(self):
        meas = bernoulli(3, Fraction(1, 2))
        mu00 = mu_recursive(meas, "00")
        mu0 = mu_recursive(meas, "0")
        assert mu00 == mu0 * mu0 == Fraction(1, 4)
