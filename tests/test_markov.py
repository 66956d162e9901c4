import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rllshift import markov, measure, words
from rllshift.dimension import f_m
from rllshift.markov import (
    ChainSpec,
    RunState,
    build_chain,
    digit_mass,
    empirical_local_dimension,
    is_irreducible,
    sample,
    stationary,
)
from rllshift.verify import ERGODIC_SEED

P13 = Fraction(1, 3)


def loop_sample(chain, n, seed):
    """Reference: the per-symbol walk that sample applies a block at a time."""
    m, p = chain.m, float(chain.p)
    u = np.random.Generator(np.random.Philox(key=seed)).random(n)
    bits = np.empty(n, dtype=np.uint8)
    digit = 0 if u[0] < p else 1
    run = 1
    bits[0] = digit
    for i in range(1, n):
        # a maximal run forces the flip; a free state stays with mass p or 1-p
        if run < m - 1 and u[i] < (p if digit == 0 else 1.0 - p):
            run += 1
        else:
            digit, run = 1 - digit, 1
        bits[i] = digit
    return bits


def gauss_stationary(chain):
    """Reference: solve pi (P - I) = 0, sum(pi) = 1 by Gauss-Jordan elimination."""
    states = chain.states
    index = {st: i for i, st in enumerate(states)}
    n = len(states)
    zero, one = chain.p * 0, chain.p**0
    # the balance equations with the last one replaced by the normalization
    aug = [[zero] * (n + 1) for _ in range(n)]
    for st in states:
        for _, nxt, prob in chain.kernel[st]:
            aug[index[nxt]][index[st]] += prob
    for i in range(n):
        aug[i][i] -= one
    aug[n - 1] = [one] * (n + 1)
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return {st: aug[index[st]][n] for st in states}


def loop_increments(run, q):
    """Reference: -log of each symbol's measure factor; forced positions add 0."""
    log_q, log_1q = -math.log(q), -math.log(1.0 - q)
    out = np.empty(run.n, dtype=np.float64)
    digit, rlen = -1, 0
    for i in range(run.n):
        b = int(run.bits[i])
        if digit >= 0 and rlen == run.m - 1:
            out[i] = 0.0  # forced flip
        else:
            out[i] = log_q if b == 0 else log_1q
        rlen = rlen + 1 if b == digit else 1
        digit = b
    return out


def assert_within_fsum(series, inc, lengths=None):
    """Each series[k-1] is within 1e-15 relative of the exactly rounded sum of
    the first k increments over k log 2."""
    for k in lengths or range(1, len(series) + 1):
        want = math.fsum(inc[:k]) / (k * math.log(2.0))
        assert abs(series[k - 1] - want) <= 1e-15 * want


class TestChain:
    def test_state_space(self):
        chain = build_chain(3, P13)
        assert len(chain.states) == 4
        chain5 = build_chain(5, P13)
        assert len(chain5.states) == 8

    def test_forced_transition(self):
        chain = build_chain(3, P13)
        (entry,) = chain.kernel[RunState(0, 2)]
        assert entry == (1, RunState(1, 1), 1)

    def test_free_transition_m4(self):
        chain = build_chain(4, P13)
        step = {d: (nxt, prob) for d, nxt, prob in chain.kernel[RunState(0, 2)]}
        assert step[0] == (RunState(0, 3), P13)
        assert step[1] == (RunState(1, 1), 1 - P13)

    def test_rows_sum_to_one(self):
        for m in (3, 4, 5):
            chain = build_chain(m, Fraction(2, 5))
            for st in chain.states:
                assert sum(prob for _, _, prob in chain.kernel[st]) == 1

    def test_irreducible_aperiodic(self):
        for m in range(3, 13):
            assert is_irreducible(build_chain(m, P13))
            # Wielandt: an S x S nonnegative matrix has a strictly positive
            # power (S-1)^2 + 1 exactly when it is irreducible and aperiodic
            matrix = measure._transfer_matrix(m, float(P13), float(1 - P13))
            size = len(matrix)
            power = np.linalg.matrix_power(matrix, (size - 1) ** 2 + 1)
            assert (power > 0).all()


class TestKernelMatchesMeasure:
    @pytest.mark.parametrize("m", range(3, 13))
    @pytest.mark.parametrize("p", [P13, Fraction(2, 5), Fraction(9, 10)])
    def test_rows_equal_measure_step(self, m, p):
        # the oracle chain and the measure's kernel share no code
        chain = build_chain(m, p)
        for i, st in enumerate(chain.states):
            unit = [Fraction(0)] * len(chain.states)
            unit[i] = Fraction(1)
            z, o = words._step(unit[: m - 1], unit[m - 1 :], p, 1 - p, 1)
            row = dict.fromkeys(chain.states, Fraction(0))
            for digit, nxt, prob in chain.kernel[st]:
                assert digit == nxt.digit
                row[nxt] += prob
            assert list(row.values()) == z + o


class TestStationary:
    @pytest.mark.parametrize("m", range(3, 61))
    @pytest.mark.parametrize("p", [P13, Fraction(1, 2), Fraction(2, 3)])
    def test_matches_closed_form_exactly(self, m, p):
        pi = stationary(build_chain(m, p))
        assert digit_mass(pi, 0) == f_m(m, p)
        assert digit_mass(pi, 0) + digit_mass(pi, 1) == 1

    def test_symmetric_case(self):
        pi = stationary(build_chain(4, Fraction(1, 2)))
        assert digit_mass(pi, 0) == Fraction(1, 2)

    def test_m3_hand_solution(self):
        # balance equations for the four-state chain solved by hand
        p = P13
        pi = stationary(build_chain(3, p))
        assert digit_mass(pi, 0) == (1 + p) / 3

    @pytest.mark.parametrize("m", range(3, 13))
    @pytest.mark.parametrize(
        "p", [P13, Fraction(2, 5), Fraction(1, 2), Fraction(2, 3), Fraction(9, 10)]
    )
    def test_matches_gauss_jordan_exactly(self, m, p):
        chain = build_chain(m, p)
        assert stationary(chain) == gauss_stationary(chain)

    def test_float_within_1e14_of_exact(self):
        # entries of p**k underflow near the ends of (0, 1); the pass only
        # multiplies and adds positive numbers, so no cancellation occurs
        ps = [1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 0.1, 0.3, 0.5, 0.7, 0.9]
        ps += [1 - x for x in (1e-3, 1e-6, 1e-9, 1e-12, 1e-15)]
        for m in range(3, 61, 3):
            for p in ps:
                got = digit_mass(stationary(build_chain(m, p)), 0)
                exact = f_m(m, Fraction(p))
                assert math.isfinite(got)
                assert abs(Fraction(got) - exact) <= Fraction(1, 10**14) * exact, (m, p)

    def test_cycle_avoiding_first_state_raises(self):
        a, b, c = RunState(0, 1), RunState(0, 2), RunState(1, 1)
        half = Fraction(1, 2)
        # irreducible, but b -> c -> b never visits a
        kernel = {a: ((0, b, 1),), b: ((1, c, 1),), c: ((0, b, half), (0, a, half))}
        chain = ChainSpec(3, P13, (a, b, c), kernel)
        assert is_irreducible(chain)
        with pytest.raises(RuntimeError, match="cycle"):
            stationary(chain)

    def test_unreachable_state_raises(self):
        a, b, c = RunState(0, 1), RunState(0, 2), RunState(1, 1)
        # nothing leads into c
        kernel = {a: ((0, b, 1),), b: ((1, a, 1),), c: ((0, a, 1),)}
        chain = ChainSpec(3, P13, (a, b, c), kernel)
        with pytest.raises(RuntimeError, match="irreducible"):
            stationary(chain)

    @pytest.mark.parametrize("m", range(3, 13))
    def test_fixed_by_kernel(self, m):
        chain = build_chain(m, Fraction(2, 5))
        pi = stationary(chain)
        pushed = {st: Fraction(0) for st in chain.states}
        for st, mass in pi.items():
            for _, nxt, prob in chain.kernel[st]:
                pushed[nxt] += mass * Fraction(prob)
        assert pushed == pi


class TestSampling:
    def test_determinism(self):
        chain = build_chain(3, 0.3)
        a = sample(chain, 5000, seed=7)
        b = sample(chain, 5000, seed=7)
        assert np.array_equal(a.bits, b.bits)
        c = sample(chain, 5000, seed=8)
        assert not np.array_equal(a.bits, c.bits)

    def test_samples_are_admissible(self):
        for m in (3, 4):
            chain = build_chain(m, 0.3)
            run = sample(chain, 20_000, seed=1)
            assert words.is_admissible_symbols(m, run.word)

    def test_frequency_symmetric_case(self):
        chain = build_chain(3, 0.5)
        run = sample(chain, 200_000, seed=11)
        assert abs(run.freq0() - 0.5) < 0.005

    @settings(max_examples=80, deadline=None, database=None)
    @given(
        st.integers(3, 15),
        st.one_of(
            st.sampled_from(
                [0.5, math.nextafter(0.5, 0), math.nextafter(0.5, 1), 1e-12, 1 - 1e-12]
            ),
            st.floats(0, 1, exclude_min=True, exclude_max=True),
        ),
        st.one_of(
            st.integers(1, 2 * markov._SLICE + 100),
            st.builds(
                lambda k, d: max(1, k * markov.BLOCK + d),
                st.integers(0, 2 * markov._SLICE // markov.BLOCK + 2),
                st.sampled_from([-1, 0, 1]),
            ),
        ),
        st.integers(0, 2**32 - 1),
    )
    def test_bits_match_loop(self, m, p, n, seed):
        chain = build_chain(m, p)
        got = sample(chain, n, seed).bits
        assert got.dtype == np.uint8
        assert got.tobytes() == loop_sample(chain, n, seed).tobytes()

    def test_bits_pinned(self):
        # check 12's band was calibrated on this path; check 14 samples these
        run = sample(build_chain(3, 0.2), 10**6, ERGODIC_SEED)
        assert hashlib.sha256(run.bits.tobytes()).hexdigest() == (
            "514386ab1dd7911a0874fcf92d9daed0f13272578860526eb2d22aae68d47d72"
        )
        pinned = [
            "21db8f620d80bc190781e3e6164bbb5a5a7f1ae004a037d8f246722847768b0c",
            "bfa6ce9657276709365558815faf33470b79d268c1b65bf268bb58f917371920",
            "a535ff05703ae50fdd3d771e3de29b05ef76e0069a382b72b825a2b9377d2665",
        ]
        for seed, digest in enumerate(pinned):
            run = sample(build_chain(3, 0.5), 10_000, seed)
            assert hashlib.sha256(run.bits.tobytes()).hexdigest() == digest

    def test_word_matches_join(self):
        run = sample(build_chain(4, 0.3), 5000, seed=2)
        assert run.word == "".join("01"[b] for b in run.bits)
        one = markov.SampleRun(3, 0.5, 0, 1, np.array([1], dtype=np.uint8))
        assert one.word == "1"

    def test_frequency_series_shape(self):
        run = sample(build_chain(3, 0.5), 100, seed=0)
        series = run.frequency_series()
        assert len(series) == 100
        assert series[-1] == run.freq0()


class TestLocalDimension:
    def test_nonnegative(self):
        run = sample(build_chain(3, 0.4), 10_000, seed=3)
        series = empirical_local_dimension(run, 0.4)
        assert np.all(series >= 0)

    def test_symmetric_case_dominates_bound(self):
        run = sample(build_chain(3, 0.5), 100_000, seed=5)
        series = empirical_local_dimension(run, 0.5)
        assert series[-1] >= 0.5 - 0.01

    def test_forced_positions_contribute_nothing(self):
        # "00" forces the 1 at position 3, which adds no mass
        run = markov.SampleRun(3, 0.5, 0, 4, np.array([0, 0, 1, 1], dtype=np.uint8))
        series = empirical_local_dimension(run, 0.5)
        for got, want in zip(series, [1, 1, 2 / 3, 3 / 4], strict=True):
            assert abs(got - want) <= 1e-15 * want

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        st.integers(3, 7),
        st.lists(st.integers(0, 1), min_size=1, max_size=60),
        st.floats(0.01, 0.99),
    )
    def test_series_matches_loop_sum(self, m, bits, q):
        # any bit string, admissible or not, including runs longer than m-1
        run = markov.SampleRun(m, 0.5, 0, len(bits), np.array(bits, dtype=np.uint8))
        assert_within_fsum(empirical_local_dimension(run, q), loop_increments(run, q))

    @pytest.mark.parametrize("m,p,q", [(3, 0.2, 0.2), (12, 0.85, 0.6)])
    def test_error_model_at_a_million(self, m, p, q):
        run = sample(build_chain(m, p), 1_000_000, ERGODIC_SEED)
        inc = loop_increments(run, q)
        final = markov.final_local_dimension(run, q)
        want = math.fsum(inc) / (run.n * math.log(2.0))
        assert abs(final - want) <= 1e-15 * want
        series = empirical_local_dimension(run, q)
        assert_within_fsum(series, inc, (1, 999, 65_537, 500_001, run.n))

    @settings(max_examples=40, deadline=None, database=None)
    @given(
        st.integers(3, 12),
        st.floats(0.05, 0.95),
        st.integers(1, 3000),
        st.integers(0, 2**32 - 1),
        st.lists(st.floats(0, 1), min_size=1, max_size=5),
    )
    def test_free_counts_are_occurrence_counts(self, m, p, n, seed, cuts):
        # the path's free 0's and 1's are the paper's N0 and N1 of each prefix
        run = sample(build_chain(m, p), n, seed)
        forced = markov._forced_positions(run)
        free = np.ones(n, dtype=bool)
        free[forced] = False
        for k in {max(1, round(c * n)) for c in cuts} | {n}:
            prefix = run.bits[:k][free[:k]]
            n1 = int(np.count_nonzero(prefix))
            assert (len(prefix) - n1, n1) == words.occurrence_counts(m, run.word[:k])

    @settings(max_examples=40, deadline=None, database=None)
    @given(
        st.integers(3, 12),
        st.floats(0.01, 0.99),
        st.integers(1, 50_000),
        st.floats(0.01, 0.99),
        st.integers(0, 2**32 - 1),
    )
    def test_final_value_matches_series_bit_for_bit(self, m, p, n, q, seed):
        run = sample(build_chain(m, p), n, seed)
        final = markov.final_local_dimension(run, q)
        assert final.hex() == float(empirical_local_dimension(run, q)[-1]).hex()

    def test_bad_q_rejected(self):
        run = sample(build_chain(3, 0.5), 10, seed=0)
        with pytest.raises(ValueError):
            empirical_local_dimension(run, 1.0)
        with pytest.raises(ValueError):
            markov.final_local_dimension(run, 0.0)
