import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rllshift import markov, measure, words
from rllshift.dimension import f_m
from rllshift.markov import build_chain, digit_mass, sample
from rllshift.verify import ERGODIC_SEED

P13 = Fraction(1, 3)


def loop_sample(m, p, n, seed):
    """Reference: the per-symbol walk that sample applies a block at a time."""
    p = float(p)
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


def forced_mask(m, bits):
    """Reference: True at the symbol right after m-1 equal ones; the rest are free."""
    n = len(bits)
    # run j covers edges[j] <= i < edges[j+1]; the symbol after its (m-1)-th one is forced
    edges = np.flatnonzero(np.diff(bits, prepend=bits[0] ^ 1, append=bits[-1] ^ 1))
    forced = edges[:-1][np.diff(edges) >= m - 1] + (m - 1)
    mask = np.zeros(n, dtype=bool)
    mask[forced[forced < n]] = True
    return mask


def law_blocks(order, digit, run, codes):
    """Reference: (digit, run) after each block code's BLOCK symbols from one
    state, by the per-symbol law on the classes (symbol j is base-3 digit j
    of the code) with favoured digit 0, for an array of codes."""
    digit = np.full(len(codes), digit)
    run = np.full(len(codes), run)
    for j in range(markov.BLOCK):
        cls = codes // 3**j % 3
        stay = (run < order - 1) & (cls + (digit == 0) >= 2)
        digit = np.where(stay, digit, 1 - digit)
        run = np.where(stay, run + 1, 1)
    return digit, run


def walk_list(order):
    """The row list that `sample` walks at an order that lists its whole
    gap, as it pads it, with its nxt table: state x of the list is the run
    x >> 1 of digit x & 1."""
    k = min(order, markov.BLOCK + 2)
    row, nxt, _, _ = markov._block_table(k)
    pad = order - k
    assert pad <= markov._PAD
    return row[:2] * pad + row, nxt


def walks_past_the_pad(monkeypatch, m, p, *refused):
    """Check that `sample` and `samples` at an order m of 43 or more, which
    lists less than its gap, draw the per-symbol law's paths without
    calling the markov functions named in refused, even with groups taken
    at every length; at order 42 both still call them."""
    n, seeds = 20_000, range(3)

    class Called(Exception):
        pass

    def refuse(*args):
        raise Called

    monkeypatch.setattr(markov, "_GROUP_FROM", 0)
    for name in refused:
        monkeypatch.setattr(markov, name, refuse)
    with pytest.raises(Called):
        sample(42, p, n, 0)
    with pytest.raises(Called):
        markov.samples(42, p, n, seeds)
    runs = [sample(m, p, n, seed) for seed in seeds]
    for run, seed in zip(runs, seeds):
        bits, forced = unpack(run)
        assert bits.tobytes() == loop_sample(m, p, n, seed).tobytes()
        assert np.array_equal(forced, forced_mask(m, bits))
    for run, ref in zip(markov.samples(m, p, n, seeds), runs, strict=True):
        assert run.packed_bits.tobytes() == ref.packed_bits.tobytes()
        assert run.packed_forced.tobytes() == ref.packed_forced.tobytes()


def examples(cases):
    """Stack one hypothesis @example per case on a @given test."""
    def apply(test):
        for case in cases:
            test = example(*case)(test)
        return test
    return apply


def unpack(run):
    """The run's symbols as uint8 and its forced marks as bool, one per symbol."""
    bits = np.unpackbits(run.packed_bits, count=run.n)
    return bits, np.unpackbits(run.packed_forced, count=run.n).view(bool)


def cumsum_series(run, q):
    """Reference: freq0 and the local dimension at every n from n-length running counts."""
    n = np.arange(1, run.n + 1)
    bits, forced = unpack(run)
    free = ~forced
    n1 = np.cumsum(free & (bits == 1))
    local = markov._local_dimension(np.cumsum(free) - n1, n1, n, q)
    return np.cumsum(bits == 0) / n, local


def hand_run(m, bits):
    """A SampleRun over given bits, with the reference forced marks."""
    bits = np.array(bits, dtype=np.uint8)
    packed, forced = np.packbits(bits), np.packbits(forced_mask(m, bits))
    return markov.SampleRun(m, 0.5, 0, len(bits), packed, forced)


def loop_build_chain(m, p):
    """Reference: the per-state construction that `build_chain` makes from
    shared states, with new next states on every edge."""
    q = 1 - p
    one = p**0
    states = tuple((d, r) for d in (0, 1) for r in range(1, m))
    kernel = {}
    for st in states:
        d, r = st
        if r == m - 1:
            kernel[st] = (((1 - d, 1), one),)
        else:
            stay, flip = (p, q) if d == 0 else (q, p)
            kernel[st] = (
                ((d, r + 1), stay),
                ((1 - d, 1), flip),
            )
    return kernel


def number_type_one(chain):
    """1 in the number type of the chain's probabilities, that of its first edge."""
    return next(iter(chain.values()))[0][1] ** 0


def stationary(chain):
    """Reference: the stationary law from `_visit_numerators`, each pi(x) one
    Fraction for rational probabilities and a float quotient otherwise."""
    visits, total = markov._visit_numerators(chain)
    if isinstance(total, int):
        return {st: Fraction(v, total) for st, v in zip(chain, visits)}
    return {st: v / total for st, v in zip(chain, visits)}


def gauss_stationary(chain):
    """Reference: solve pi (P - I) = 0, sum(pi) = 1 by Gauss-Jordan elimination."""
    states = list(chain)
    index = {st: i for i, st in enumerate(states)}
    n = len(states)
    one = number_type_one(chain)
    zero = one * 0
    # the balance equations with the last one replaced by the normalization
    aug = [[zero] * (n + 1) for _ in range(n)]
    for st in states:
        for nxt, prob in chain[st]:
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


def fraction_stationary(chain):
    """Reference: the regeneration pass on values in p's number type, one
    multiplication and addition per edge, that `_visit_numerators` runs on
    integer numerators."""
    first = next(iter(chain))
    index = {st: i for i, st in enumerate(chain)}
    visits = dict.fromkeys(chain)
    visits[first] = number_type_one(chain)
    for i, st in enumerate(chain):
        if visits[st] is None:
            continue
        for nxt, prob in chain[st]:
            if nxt == first:
                continue
            assert index[nxt] > i
            flow = visits[st] * prob
            visits[nxt] = flow if visits[nxt] is None else visits[nxt] + flow
    assert None not in visits.values()
    total = sum(visits.values())
    return {st: v / total for st, v in visits.items()}


def loop_increments(run, q):
    """Reference: -log of each symbol's measure factor; forced positions add 0."""
    log_q, log_1q = -math.log(q), -math.log(1.0 - q)
    out = np.empty(run.n, dtype=np.float64)
    bits = unpack(run)[0]
    digit, rlen = -1, 0
    for i in range(run.n):
        b = int(bits[i])
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
        assert len(chain) == 4
        chain5 = build_chain(5, P13)
        assert len(chain5) == 8

    def test_forced_transition(self):
        chain = build_chain(3, P13)
        (entry,) = chain[(0, 2)]
        assert entry == ((1, 1), 1)

    def test_free_transition_m4(self):
        chain = build_chain(4, P13)
        step = {nxt[0]: (nxt, prob) for nxt, prob in chain[(0, 2)]}
        assert step[0] == ((0, 3), P13)
        assert step[1] == ((1, 1), 1 - P13)

    @pytest.mark.parametrize("p", [0, 1, 1.5, float("nan")])
    def test_p_outside_open_interval_rejected(self, p):
        # the chain and the measure share one check and one message
        with pytest.raises(ValueError, match=r"p must lie in \(0,1\)") as chain_exc:
            build_chain(3, p)
        with pytest.raises(ValueError) as measure_exc:
            measure.BernoulliTypeMeasure(3, p)
        assert str(chain_exc.value) == str(measure_exc.value)

    def test_rows_sum_to_one(self):
        for m in (3, 4, 5):
            chain = build_chain(m, Fraction(2, 5))
            for st in chain:
                assert sum(prob for _, prob in chain[st]) == 1

    def test_irreducible_aperiodic(self):
        for m in range(3, 13):
            # Wielandt: an S x S nonnegative matrix has a strictly positive
            # power (S-1)^2 + 1 exactly when it is irreducible and aperiodic
            matrix = measure._transfer_matrix(m, float(P13), float(1 - P13))
            size = len(matrix)
            power = np.linalg.matrix_power(matrix, (size - 1) ** 2 + 1)
            assert (power > 0).all()

    @pytest.mark.parametrize(
        "p", [P13, Fraction(2, 5), Fraction(9, 10), 0.3, 1e-320, 1 - 1e-16]
    )
    def test_matches_per_state_construction(self, p):
        for m in range(3, 61):
            chain, want = build_chain(m, p), loop_build_chain(m, p)
            assert list(chain) == list(want)
            # equal entries under equal keys, in the same key order
            assert list(chain.items()) == list(want.items()), m

    @pytest.mark.parametrize("p", [P13, 0.3])
    def test_next_states_are_the_chain_states(self, p):
        for m in range(3, 61):
            chain = build_chain(m, p)
            own = {id(st) for st in chain}  # `is` a key of the chain
            assert all(
                id(nxt) in own for edges in chain.values() for nxt, _ in edges
            ), m


class TestKernelMatchesMeasure:
    @pytest.mark.parametrize("m", range(3, 13))
    @pytest.mark.parametrize("p", [P13, Fraction(2, 5), Fraction(9, 10)])
    def test_rows_equal_measure_step(self, m, p):
        # the oracle chain and the measure's kernel share no code
        chain = build_chain(m, p)
        for i, st in enumerate(chain):
            unit = [Fraction(0)] * len(chain)
            unit[i] = Fraction(1)
            z, o = words._step(unit[: m - 1], unit[m - 1 :], p, 1 - p, 1)
            row = dict.fromkeys(chain, Fraction(0))
            for nxt, prob in chain[st]:
                row[nxt] += prob
            assert list(row.values()) == z + o


class TestStationary:
    @pytest.mark.parametrize("m", range(3, 61))
    @pytest.mark.parametrize("p", [P13, Fraction(1, 2), Fraction(2, 3)])
    def test_matches_closed_form_exactly(self, m, p):
        assert digit_mass(m, p, 0) == f_m(m, p)
        assert digit_mass(m, p, 0) + digit_mass(m, p, 1) == 1

    def test_symmetric_case(self):
        assert digit_mass(4, Fraction(1, 2), 0) == Fraction(1, 2)

    def test_m3_hand_solution(self):
        # balance equations for the four-state chain solved by hand
        p = P13
        assert digit_mass(3, p, 0) == (1 + p) / 3

    @pytest.mark.parametrize("m", range(3, 13))
    @pytest.mark.parametrize(
        "p", [P13, Fraction(2, 5), Fraction(1, 2), Fraction(2, 3), Fraction(9, 10)]
    )
    def test_matches_gauss_jordan_exactly(self, m, p):
        chain = build_chain(m, p)
        assert stationary(chain) == gauss_stationary(chain)

    @pytest.mark.parametrize(
        "p", [P13, Fraction(2, 5), Fraction(1, 2), Fraction(9, 10), Fraction(1, 1000)]
    )
    def test_integer_pass_equals_fraction_pass(self, p):
        for m in range(3, 61):
            chain = build_chain(m, p)
            got = stationary(chain)
            assert got == fraction_stationary(chain), m
            assert all(type(v) is Fraction for v in got.values())

    @pytest.mark.parametrize("p", [0.3, 1e-320, 1 - 1e-16])
    def test_float_pass_equals_fraction_pass_bit_for_bit(self, p):
        # the same pass with b = 1: every scaling is an exact multiplication by 1
        for m in range(3, 61):
            chain = build_chain(m, p)
            got, want = stationary(chain), fraction_stationary(chain)
            assert list(got) == list(want)
            for st, v in got.items():
                assert type(v) is float and v == want[st], (m, st)

    def test_hand_built_chain_takes_lcm_of_denominators(self):
        # probabilities 1/3, 2/3, 1/2 and 1 put every value over 6**k, not
        # over p's 3**k: int(prob * 3) would truncate 1/2 to 1
        a, b, c = (0, 1), (0, 2), (1, 1)
        third, half = Fraction(1, 3), Fraction(1, 2)
        chain = {
            a: ((b, third), (c, 1 - third)),
            b: ((c, half), (a, half)),
            c: ((a, 1),),
        }
        pi = stationary(chain)
        assert pi == {a: Fraction(6, 13), b: Fraction(2, 13), c: Fraction(5, 13)}
        assert pi == fraction_stationary(chain)

    def test_float_within_1e14_of_exact(self):
        # entries of p**k underflow near the ends of (0, 1); the pass only
        # multiplies and adds positive numbers, so no cancellation occurs
        ps = [1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 0.1, 0.3, 0.5, 0.7, 0.9]
        ps += [1 - x for x in (1e-3, 1e-6, 1e-9, 1e-12, 1e-15)]
        for m in range(3, 61, 3):
            for p in ps:
                got = digit_mass(m, p, 0)
                exact = f_m(m, Fraction(p))
                assert math.isfinite(got)
                assert abs(Fraction(got) - exact) <= Fraction(1, 10**14) * exact, (m, p)

    def test_cycle_avoiding_first_state_raises(self):
        a, b, c = (0, 1), (0, 2), (1, 1)
        half = Fraction(1, 2)
        # irreducible, but b -> c -> b never visits a
        chain = {a: ((b, 1),), b: ((c, 1),), c: ((b, half), (a, half))}
        with pytest.raises(RuntimeError, match="cycle"):
            stationary(chain)

    def test_underflowing_float_visits_accepted(self):
        # p**2 underflows to 0.0, but the state is reached: the chain is
        # irreducible, and pi[0] is 1/4 as in `lambda --m 4 --p 1e-320`
        assert digit_mass(4, 1e-320, 0) == 0.25

    def test_unreachable_state_raises(self):
        a, b, c = (0, 1), (0, 2), (1, 1)
        # nothing leads into c
        chain = {a: ((b, 1),), b: ((a, 1),), c: ((a, 1),)}
        with pytest.raises(RuntimeError, match="irreducible"):
            stationary(chain)

    @pytest.mark.parametrize("m", range(3, 13))
    def test_fixed_by_kernel(self, m):
        chain = build_chain(m, Fraction(2, 5))
        pi = stationary(chain)
        pushed = {st: Fraction(0) for st in chain}
        for st, mass in pi.items():
            for nxt, prob in chain[st]:
                pushed[nxt] += mass * Fraction(prob)
        assert pushed == pi


class TestDigitMass:
    @pytest.mark.parametrize(
        "p", [P13, Fraction(2, 5), Fraction(1, 2), Fraction(9, 10), Fraction(1, 1000)]
    )
    def test_fraction_equals_sum_of_stationary(self, p):
        for m in range(3, 61):
            pi = stationary(build_chain(m, p))
            masses = [digit_mass(m, p, d) for d in (0, 1)]
            for d, got in enumerate(masses):
                want = sum(v for st, v in pi.items() if st[0] == d)
                assert type(got) is type(want) is Fraction and got == want, (m, d)
            assert masses[0] + masses[1] == 1

    @pytest.mark.parametrize("p", [0.3, 1e-320, 1 - 1e-16])
    def test_float_equals_sum_of_stationary(self, p):
        # the per-state quotients added in state order, as the sum over the dict
        for m in range(3, 61):
            pi = stationary(build_chain(m, p))
            for d in (0, 1):
                got = digit_mass(m, p, d)
                want = sum(v for st, v in pi.items() if st[0] == d)
                assert type(got) is type(want) is float and got == want, (m, d)

    @settings(max_examples=150, deadline=None, database=None)
    @given(
        st.integers(3, 60),
        st.integers(2, 60).flatmap(
            lambda b: st.integers(1, b - 1).map(lambda a: Fraction(a, b))
        ),
    )
    def test_matches_closed_form(self, m, p):
        assert digit_mass(m, p, 0) == f_m(m, p)

    @pytest.mark.parametrize("digit", [-1, 2, 0.5, None])
    def test_digit_other_than_0_or_1_rejected(self, digit):
        with pytest.raises(ValueError, match=rf"digit must be 0 or 1, got {digit!r}"):
            digit_mass(3, P13, digit)


class TestSampling:
    def test_determinism(self):
        a = sample(3, 0.3, 5000, seed=7)
        b = sample(3, 0.3, 5000, seed=7)
        assert np.array_equal(unpack(a)[0], unpack(b)[0])
        c = sample(3, 0.3, 5000, seed=8)
        assert not np.array_equal(unpack(a)[0], unpack(c)[0])

    def test_length_below_one_rejected(self):
        for n in (0, -1):
            with pytest.raises(ValueError, match=f"n must be >= 1, got {n}"):
                sample(3, 0.3, n, seed=7)

    def test_samples_are_admissible(self):
        for m in (3, 4):
            run = sample(m, 0.3, 20_000, seed=1)
            assert words.is_admissible_symbols(m, run.word)

    def test_frequency_symmetric_case(self):
        run = sample(3, 0.5, 200_000, seed=11)
        assert abs(run.freq0() - 0.5) < 0.005

    @settings(max_examples=80, deadline=None, database=None)
    @given(
        # rows of their own for every run state at m <= 9, clamped rows from 10 on
        st.integers(3, 40),
        st.one_of(
            st.sampled_from(
                [0.5, math.nextafter(0.5, 0), math.nextafter(0.5, 1), 1e-12, 1 - 1e-12,
                 1e-9, 1 - 1e-9]
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
    # p at the edges of the integer class tests: 1.0 - p rounds to 1.0 below
    # 2**-54, and p or 1.0 - p lands on, or one float off, a multiple of 2**-53
    @example(3, 4e-85, markov._SLICE + 9, 1)
    @example(4, 2.0**-60, markov._SLICE + 9, 2)
    @example(5, 1 - 2.0**-53, markov._SLICE + 9, 3)
    @example(6, 12345 * 2.0**-53, markov._SLICE + 9, 4)
    @example(7, 0.25, markov._SLICE + 9, 5)
    @example(12, 0.75, markov._SLICE + 9, 6)
    @example(3, math.nextafter(4e-85, 1), 5000, 7)
    @example(4, math.nextafter(2.0**-60, 1), 5000, 8)
    @example(5, math.nextafter(1 - 2.0**-53, 0), 5000, 9)
    @example(6, math.nextafter(12345 * 2.0**-53, 1), 5000, 10)
    @example(7, math.nextafter(0.25, 0), 5000, 11)
    @example(12, math.nextafter(0.75, 1), 5000, 12)
    # m >= 19: a gap of more than BLOCK runs below the block table's, which
    # only a full extension climbs (`sample`'s `climb`); at p = 1e-9 and
    # 1 - 1e-9 the runs cross it and reach the table's rows, and at
    # m = 10**6 the order is n + 2, so the path's one run climbs to its end
    @examples([
        (m, p, markov._SLICE + 2 * markov.BLOCK + 3, m)
        for m in (18, 19, 20, 27, 45, 10**6)
        for p in (1e-9, 0.03, 0.97, 1 - 1e-9)
    ])
    def test_bits_match_loop(self, m, p, n, seed):
        run = sample(m, p, n, seed)
        bits, forced = unpack(run)
        assert bits.dtype == np.uint8
        assert bits.tobytes() == loop_sample(m, p, n, seed).tobytes()
        assert forced.dtype == bool
        assert np.array_equal(forced, forced_mask(m, bits))

    # m >= 128: at p = 1e-9 and 1 - 1e-9 the runs reach m-1, so the run
    # states x = 2*run + digit go past a byte
    @pytest.mark.parametrize("m", [128, 129, 130, 300])
    @pytest.mark.parametrize("p", [0.5, 1e-9, 0.3, 1 - 1e-9])
    def test_bits_match_loop_past_a_byte(self, m, p):
        n = markov._SLICE + 2 * markov.BLOCK + 3  # a second slice
        bits, forced = unpack(sample(m, p, n, seed=m))
        assert bits.tobytes() == loop_sample(m, p, n, m).tobytes()
        assert np.array_equal(forced, forced_mask(m, bits))

    @pytest.mark.parametrize(
        "m, p, message",
        [
            (2, 0.3, "constraint order must be >= 3, got 2"),
            (3, 0.0, "p must lie in (0,1), got 0.0"),
            (3, 1.0, "p must lie in (0,1), got 1.0"),
            (3, math.nan, "p must lie in (0,1), got nan"),
            # the walk reads float(p), here 0.0 or 1.0
            (3, Fraction(1, 10**400), "p must lie in (0,1), got 0.0"),
            (3, 1 - Fraction(1, 10**400), "p must lie in (0,1), got 1.0"),
        ],
        ids=["m2", "p0", "p1", "nan", "fraction-to-0", "fraction-to-1"],
    )
    def test_rejects_order_or_p(self, m, p, message):
        # the messages that build_chain gives for an order or a p out of range
        with pytest.raises(ValueError) as excinfo:
            sample(m, p, 100, seed=4)
        assert str(excinfo.value) == message

    # both draws walk at an order of at most n + 2, so they cost like any short path
    @settings(max_examples=100, deadline=None, database=None)
    @given(
        st.one_of(st.floats(0.01, 0.49), st.floats(0.51, 0.99)),
        st.integers(2, 2000),
        st.integers(0, 2**32 - 1),
    )
    @example(0.3, 2000, 1)
    @example(0.7, 2000, 2)
    def test_order_past_the_path_length(self, p, n, seed):
        # no run of n symbols reaches the cap m - 1 >= n, so m does not matter
        big, small = sample(10**6, p, n, seed), sample(n + 1, p, n, seed)
        assert big.packed_bits.tobytes() == small.packed_bits.tobytes()
        assert big.packed_forced.tobytes() == small.packed_forced.tobytes()

    def test_order_past_the_path_length_costs_like_the_path(self):
        # the walk at order 10**6 over 1000 symbols lists no row per order
        sample(12, 0.3, 10, 0)  # the block table, built once per process
        tracemalloc.start()
        try:
            big = sample(10**6, 0.3, 1000, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        small = sample(1002, 0.3, 1000, 1)
        assert big.m == 10**6
        assert big.packed_bits.tobytes() == small.packed_bits.tobytes()
        assert big.packed_forced.tobytes() == small.packed_forced.tobytes()
        # nor over 10**6 symbols, where order 10**6 is below n + 2: the
        # per-block walk peaks no higher than order 12's groups
        peaks = {}
        for m in (12, 10**6):
            tracemalloc.start()
            try:
                sample(m, 0.3, 10**6, 1)
                peaks[m] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[10**6] <= peaks[12], peaks

    def test_random_is_shifted_raw_word(self):
        # sample reads the uniforms off the raw words; a numpy change fails here first
        for key in (0, 1, 2**64 + 5, 2**128 - 1):
            rng = np.random.Generator(np.random.Philox(key=key))
            u = np.append(rng.random(), rng.random(5000))
            w = np.random.Philox(key=key).random_raw(5001)
            assert u.tobytes() == ((w >> 11) * 2.0**-53).tobytes()

    @pytest.mark.parametrize(
        "p",
        [x for base in (4e-85, 2.0**-60, 1 - 2.0**-53, 12345 * 2.0**-53, 0.25, 0.5,
                        0.3, 5e-324)
         for x in (base, math.nextafter(base, 0), math.nextafter(base, 1))],
    )
    def test_class_bounds_exact(self, p):
        below_lo, upto_hi = markov._class_bounds(p)
        assert below_lo.dtype == upto_hi.dtype == np.uint64
        lo, hi = sorted((p, 1.0 - p))
        words = {0, 2**64 - 1, 2**63}
        for edge in (int(below_lo), int(upto_hi)):
            words.update(w for w in range(edge - 2049, edge + 2050) if 0 <= w < 2**64)
        for w in sorted(words):
            u = (w >> 11) * 2.0**-53
            assert (np.uint64(w) < below_lo) == (u < lo), w
            assert (np.uint64(w) <= upto_hi) == (u < hi), w

    def test_bits_pinned(self):
        # check 12's band was calibrated on this path; check 14 samples these
        run = sample(3, 0.2, 10**6, ERGODIC_SEED)
        assert hashlib.sha256(unpack(run)[0].tobytes()).hexdigest() == (
            "514386ab1dd7911a0874fcf92d9daed0f13272578860526eb2d22aae68d47d72"
        )
        pinned = [
            "21db8f620d80bc190781e3e6164bbb5a5a7f1ae004a037d8f246722847768b0c",
            "bfa6ce9657276709365558815faf33470b79d268c1b65bf268bb58f917371920",
            "a535ff05703ae50fdd3d771e3de29b05ef76e0069a382b72b825a2b9377d2665",
        ]
        for seed, digest in enumerate(pinned):
            run = sample(3, 0.5, 10_000, seed)
            assert hashlib.sha256(unpack(run)[0].tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("args, digests, marks", [
        ((43, 0.3, 10**6, 1),
         ("3ad082008af161889c378578bec7e817f973dc1abc6003f9e99ee3b2697780b0",
          "d29751f2649b32ff572b5e0a9f541ea660a50f94ff0beedfb0b692b924cc8025"), 0),
        # runs that climb past the pad and park
        ((200, 0.97, 10**6, 2),
         ("8a3ea7e414266856950c20bcc78049cdb947b493ae44cefa90061d35634c772b",
          "5b929594cba2e5c573cd39749c0cb4f56b39dd0973535cb46401df46757b0bad"), 62),
    ], ids=["43", "200"])
    def test_bits_pinned_past_the_pad(self, args, digests, marks):
        # long paths at orders of 43 and more, which the per-block walk takes
        bits, forced = unpack(sample(*args))
        got = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (bits, forced))
        assert got == digests
        assert np.count_nonzero(forced) == marks

    @pytest.mark.parametrize("m", range(3, 41))
    @pytest.mark.parametrize("p", [1e-9, 0.5, 1 - 1e-9])
    def test_forced_matches_reference_across_a_slice(self, m, p):
        # n is no multiple of BLOCK and takes a second slice
        n = markov._SLICE + 2 * markov.BLOCK + 3
        bits, forced = unpack(sample(m, p, n, seed=m))
        assert np.array_equal(forced, forced_mask(m, bits))

    @pytest.mark.parametrize("k", range(3, markov.BLOCK + 3))
    def test_block_table_rows(self, k):
        row, nxt, emitted, marks = markov._block_table(k)
        size = 3**markov.BLOCK
        assert len(row) == 2 * k
        assert len(emitted) == len(marks) == len(nxt) * size
        assert sorted(set(row)) == list(range(len(nxt)))
        if k <= markov.BLOCK + 1:
            # k rows per digit, run 0 with its own
            assert len(nxt) == 2 * k
        else:
            # run 0 shares the lowest row, run 1's
            assert len(nxt) == 2 * (markov.BLOCK + 1)
            assert row[:2] == row[2:4]
        # from run 0 the first symbol is free: digit 0 stays in class 1 or 2,
        # digit 1 in class 2 only, and neither is forced
        cls = np.arange(size) % 3
        for digit in (0, 1):
            at = row[digit] * size + np.arange(size)
            stays = cls + (digit == 0) >= 2
            assert np.array_equal(emitted[at] >> 7, np.where(stays, digit, 1 - digit))
            assert not np.any(marks[at] >> 7)

    def test_one_table_per_order_class(self, monkeypatch):
        # every m >= BLOCK + 2 shares one table, and favoured digit 1 reads
        # digit 0's: each class comes back after the others with the other
        # favoured digit, so a swap that wrote into a shared table would
        # spoil that path, and a cache of fewer tables would build it again
        table = markov._block_table
        table.cache_clear()
        got = {}
        monkeypatch.setattr(markov, "_block_table", lambda k: got.setdefault(m, table(k)))
        for m, p in [(m, p) for p in (0.3, 0.7) for m in range(3, 13)] + [(129, 0.7), (300, 0.3)]:
            n = 3000 + m
            bits, forced = unpack(sample(m, p, n, seed=m))
            assert bits.tobytes() == loop_sample(m, p, n, m).tobytes()
            assert np.array_equal(forced, forced_mask(m, bits))
        assert table.cache_info().misses <= 8
        assert got[10] is got[300]
        for row, nxt, emitted, marks in got.values():
            assert type(row) is type(nxt) is tuple
            assert all(type(r) is bytes for r in nxt)
            assert not emitted.flags.writeable and not marks.flags.writeable

    @pytest.mark.parametrize(
        "n",
        sorted({*range(1, 18), *(8 * k + d for k in (3, 64, 4096) for d in (-1, 1)),
                2 * markov._SLICE + 5}),
    )
    @pytest.mark.parametrize("p", [0.3, 0.7])
    def test_packed_layout(self, n, p):
        run = sample(4, p, n, seed=n)
        bits = loop_sample(4, p, n, n)
        # the path, then zero padding to the byte
        assert run.packed_bits.dtype == run.packed_forced.dtype == np.uint8
        assert run.packed_bits.tobytes() == np.packbits(bits).tobytes()
        assert run.packed_forced.tobytes() == np.packbits(forced_mask(4, bits)).tobytes()
        bits, forced = unpack(run)
        assert markov._popcount(run.packed_bits) == np.count_nonzero(bits)
        assert markov._popcount(run.packed_forced) == np.count_nonzero(forced)
        assert run.freq0() == float(np.count_nonzero(bits == 0)) / n
        # the unpacked formula: free 1's and free 0's by count_nonzero
        n1 = np.count_nonzero(bits > forced)
        want = markov._local_dimension(n - np.count_nonzero(forced) - n1, n1, n, 0.4)
        assert markov.final_local_dimension(run, 0.4).hex() == want.hex()

    # orders of every block table (3..BLOCK + 2) and with the whole gap
    # listed (11, 18, 42), which build a step table, and past the pad, which
    # walk block by block, with a p for each: 200 at 0.97 climbs past the
    # pad and parks
    PAST_THE_PAD = {43: 0.3, 44: 0.5, 200: 0.97, 10**6: 0.03}
    STEP_ORDERS = [*range(3, 13), 18, 19, 42, *PAST_THE_PAD]

    @pytest.mark.parametrize("order", STEP_ORDERS)
    def test_step_table_is_the_law(self, monkeypatch, order):
        # every entry of the lanes' table is the per-symbol law's state
        # after the block; past the pad no step table is built and the
        # per-block walk is the law
        if order in self.PAST_THE_PAD:
            walks_past_the_pad(monkeypatch, order, self.PAST_THE_PAD[order], "_step_table")
            return
        row, nxt = walk_list(order)
        step = markov._step_table(row, nxt)
        codes = np.arange(3**markov.BLOCK)
        assert step.shape == (len(codes), len(row)) and step.dtype == np.uint8
        for x in range(len(row)):
            digit, after = law_blocks(order, x & 1, x >> 1, codes)
            assert np.array_equal(step[:, x], 2 * after + digit), (order, x)

    @pytest.mark.parametrize("order", STEP_ORDERS)
    def test_lane_starts_hold_every_block_end_state(self, monkeypatch, order):
        # the speed-up rests on this: after a group's head the states reached
        # from every state a block can end on number at most two, and then
        # the two lanes start on exactly those; where they number more, the
        # lanes start on two of them and the walk goes block by block from
        # every other. Past the pad no lane starts: the per-block walk is
        # the law
        if order in self.PAST_THE_PAD:
            walks_past_the_pad(
                monkeypatch, order, self.PAST_THE_PAD[order], "_heads", "_carry")
            return
        row, nxt = walk_list(order)
        step = markov._step_table(row, nxt)
        codes = np.arange(3**markov.BLOCK)
        second = np.random.default_rng(order).permutation(codes)
        after1, after2, lanes = markov._heads(step, codes, second, markov._GROUP)
        assert lanes.shape == (markov._GROUP - 1, 2, len(codes))
        assert np.array_equal(after1, step[codes])
        assert np.array_equal(after2, step[second[:, None], after1])
        few = 0
        for c, (a, b) in enumerate(lanes[0].T.tolist()):
            reached = set(after2[c, 2:].tolist())
            assert {a, b} <= reached
            if len(reached) <= 2:
                few += 1
                assert {a, b} == reached, (order, c)
        assert few >= len(codes) // 2

    # group, slice and batch edges: the walk groups blocks by _GROUP, draws
    # _SLICE symbols at a time and walks _BATCH at a time
    GROUP_EDGES = sorted({
        max(1, n + d)
        for n in (markov.BLOCK * markov._GROUP, 3 * markov.BLOCK * markov._GROUP,
                  markov._SLICE, markov._BATCH, 2 * markov._BATCH)
        for d in (-1, 0, 1)
    })

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        st.sampled_from([*range(3, 13), 19, 20, 200, 10**6]),
        st.one_of(
            st.sampled_from(
                [0.5, math.nextafter(0.5, 0), math.nextafter(0.5, 1), 1e-12, 1 - 1e-12,
                 0.15, 0.85]
            ),
            st.floats(0, 1, exclude_min=True, exclude_max=True),
        ),
        st.one_of(
            st.sampled_from([1, *GROUP_EDGES, 200_000]),
            st.builds(
                lambda j, d: markov.BLOCK * markov._GROUP * j + d,
                st.integers(1, 200_000 // (markov.BLOCK * markov._GROUP)),
                st.sampled_from([-1, 1]),
            ),
        ),
        st.integers(0, 2**32 - 1),
    )
    @examples([(m, p, 200_000, m) for m in (3, 12, 20, 200) for p in (0.15, 0.85)])
    def test_group_walk_matches_loop(self, m, p, n, seed):
        # with and without groups from the first block on: the bits and the
        # forced marks of the per-symbol walk, on every path the groups take
        # (both lanes, a head that reaches more than two states) and at
        # m >= 43, which the per-block walk takes either way
        bits = loop_sample(m, p, n, seed)
        forced = forced_mask(m, bits)
        runs = [sample(m, p, n, seed)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(markov, "_GROUP_FROM", 0)
            runs.append(sample(m, p, n, seed))
        for run in runs:
            got_bits, got_forced = unpack(run)
            assert got_bits.tobytes() == bits.tobytes()
            assert np.array_equal(got_forced, forced)

    def test_path_stays_packed(self):
        # the json summary's reads build no n-byte array
        n = 10**6
        sample(3, 0.2, 10, 0)  # the block table, built once per process
        tracemalloc.start()
        try:
            run = sample(3, 0.2, n, ERGODIC_SEED)
            run.freq0()
            markov.final_local_dimension(run, 0.2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n
        assert run.packed_bits.nbytes + run.packed_forced.nbytes == 2 * -(-n // 8)
        assert run.packed_bits.base is None and run.packed_forced.base is None

    @settings(max_examples=80, deadline=None, database=None)
    @given(
        st.sampled_from([*range(3, 13), 42, 43, 200, 10**6]),
        st.one_of(
            st.sampled_from(
                [0.5, math.nextafter(0.5, 0), math.nextafter(0.5, 1), 1e-12, 1 - 1e-12]
            ),
            st.floats(0, 1, exclude_min=True, exclude_max=True),
        ),
        st.sampled_from([1, 7, 8, 9, 2000, 10**4]),
        st.lists(
            st.one_of(st.sampled_from([0, 2**128 - 1]), st.integers(0, 2**128 - 1)),
            max_size=8,
        ).map(lambda seeds: seeds + seeds[:2]),  # a repeated seed or two
        st.sampled_from([0, None]),
    )
    @example(3, 0.5, 10**4, [0, 2**128 - 1, 0], 0)
    @example(3, 0.5, 10**4, [], 0)
    @example(3, 0.5, 10**4, [], None)
    # a second draw slice
    @example(5, 0.3, markov._SLICE + 9, [1, 2, 3], 0)
    # orders past the pad: every path walks block by block
    @example(200, 1 - 1e-12, 2000, [4, 5], 0)
    @example(10**6, 1e-12, 10**4, [6], 0)
    def test_samples_are_samples(self, m, p, n, seeds, group_from):
        # each seed's run, bits and forced marks byte-equal to its `sample`,
        # in groups from the first block (group_from 0) and as `samples`
        # chooses; in sets of one path and of two as well
        want = [sample(m, p, n, seed) for seed in seeds]
        size = markov.BLOCK * -(-n // markov.BLOCK)
        patches = [{}, {"_BATCH": size}, {"_BATCH": 2 * size}]
        for patch in patches:
            with pytest.MonkeyPatch.context() as mp:
                if group_from is not None:
                    mp.setattr(markov, "_GROUP_FROM", group_from)
                for name, value in patch.items():
                    mp.setattr(markov, name, value)
                got = markov.samples(m, p, n, iter(seeds))
            assert len(got) == len(seeds)
            for run, ref in zip(got, want):
                assert (run.m, run.p, run.seed, run.n) == (ref.m, ref.p, ref.seed, ref.n)
                assert run.packed_bits.tobytes() == ref.packed_bits.tobytes()
                assert run.packed_forced.tobytes() == ref.packed_forced.tobytes()
                assert run.packed_bits.dtype == run.packed_forced.dtype == np.uint8
                assert run.packed_bits.base is None and run.packed_forced.base is None

    def test_check14_draws_take_groups_when_full(self, monkeypatch):
        # check 14's full draw, 100 paths of 10**4 symbols, walks in groups;
        # its quick draw, 10 paths of 2000, block by block; neither calls
        # `sample`
        heads = []
        original = markov._heads

        def counting(*args):
            heads.append(len(args[1]))
            return original(*args)

        def refuse(*args):
            raise AssertionError("samples called sample")

        monkeypatch.setattr(markov, "_heads", counting)
        monkeypatch.setattr(markov, "sample", refuse)
        assert len(markov.samples(3, 0.5, 2000, range(10))) == 10
        assert heads == []
        assert len(markov.samples(3, 0.5, 10**4, range(100))) == 100
        assert heads and sum(heads) == 100 * (10**4 // markov.BLOCK // markov._GROUP)

    def test_samples_hold_little_past_their_runs(self):
        # a path set holds at most _BATCH symbols of work at once, whatever
        # the number of paths
        markov.samples(3, 0.5, 10**5, range(2))  # the tables, built once per process
        tracemalloc.start()
        try:
            runs = markov.samples(3, 0.5, 10**5, range(40))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        packed = sum(run.packed_bits.nbytes + run.packed_forced.nbytes for run in runs)
        assert peak < packed + 2**20

    def test_runs_compare_by_identity(self):
        # a run holds arrays, so == is identity and hash never reads them
        a, b = sample(3, 0.2, 100, 1), sample(3, 0.2, 100, 1)
        assert a == a and a != b and not a == b
        assert a in [b, a] and b not in [a]
        assert len({hash(a), hash(b)}) == 2 and len({a, b, a}) == 2

    # the same errors whether the bad argument comes alone or after `leading`
    # good seeds, which make a set of many paths
    @pytest.mark.parametrize("leading", [0, 20])
    @pytest.mark.parametrize(
        "m, p, n, seeds",
        [(2, 0.3, 100, [1]), (3, 0.0, 100, [1]), (3, 1.0, 100, []), (3, math.nan, 100, [1]),
         (3, 0.3, 0, [1]), (3, 0.3, -5, []), (3, 0.3, 100, [1, -1]), (3, 0.3, 100, [2**128]),
         (3, 0.3, 100, [0, "a"])],
    )
    def test_samples_reject_as_sample(self, leading, m, p, n, seeds):
        bad = [seed for seed in seeds if not isinstance(seed, int) or not 0 <= seed < 2**128]
        with pytest.raises(ValueError) as want:
            sample(m, p, n, bad[0] if bad else 1)
        with pytest.raises(ValueError) as got:
            markov.samples(m, p, n, [*range(leading), *seeds])
        assert str(got.value) == str(want.value)

    def test_word_matches_join(self):
        run = sample(4, 0.3, 5000, seed=2)
        assert run.word == "".join("01"[b] for b in unpack(run)[0])
        assert hand_run(3, [1]).word == "1"

    def test_frequency_series_shape(self):
        run = sample(3, 0.5, 100, seed=0)
        series = markov.strided_series(run, 0.5, 1)[1]
        assert len(series) == 100
        assert series[-1] == run.freq0()


class TestLocalDimension:
    def test_nonnegative(self):
        run = sample(3, 0.4, 10_000, seed=3)
        series = markov.strided_series(run, 0.4, 1)[2]
        assert np.all(series >= 0)

    def test_symmetric_case_dominates_bound(self):
        run = sample(3, 0.5, 100_000, seed=5)
        series = markov.strided_series(run, 0.5, 1)[2]
        assert series[-1] >= 0.5 - 0.01

    def test_forced_positions_contribute_nothing(self):
        # "00" forces the 1 at position 3, which adds no mass
        run = hand_run(3, [0, 0, 1, 1])
        series = markov.strided_series(run, 0.5, 1)[2]
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
        run = hand_run(m, bits)
        assert_within_fsum(markov.strided_series(run, q, 1)[2], loop_increments(run, q))

    @pytest.mark.parametrize("m,p,q", [(3, 0.2, 0.2), (12, 0.85, 0.6)])
    def test_error_model_at_a_million(self, m, p, q):
        run = sample(m, p, 1_000_000, ERGODIC_SEED)
        inc = loop_increments(run, q)
        final = markov.final_local_dimension(run, q)
        want = math.fsum(inc) / (run.n * math.log(2.0))
        assert abs(final - want) <= 1e-15 * want
        series = markov.strided_series(run, q, 1)[2]
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
        run = sample(m, p, n, seed)
        bits, forced = unpack(run)
        free = ~forced
        for k in {max(1, round(c * n)) for c in cuts} | {n}:
            prefix = bits[:k][free[:k]]
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
        run = sample(m, p, n, seed)
        final = markov.final_local_dimension(run, q)
        assert final.hex() == float(markov.strided_series(run, q, 1)[2][-1]).hex()

    @settings(max_examples=40, deadline=None, database=None)
    @given(
        st.integers(3, 12),
        st.floats(0.01, 0.99),
        st.integers(1, 20_000),
        st.integers(1, 25_000),
        st.floats(0.01, 0.99),
        st.integers(0, 2**32 - 1),
    )
    def test_strided_series_bit_for_bit(self, m, p, n, stride, q, seed):
        # every stride-th value of the full running series, the same bits
        run = sample(m, p, n, seed)
        at, freq, local = markov.strided_series(run, q, stride)
        want_freq, want_local = cumsum_series(run, q)
        assert at.tolist() == list(range(stride, n + 1, stride))
        assert freq.tobytes() == want_freq[stride - 1::stride].tobytes()
        assert local.tobytes() == want_local[stride - 1::stride].tobytes()

    def test_strided_series_rejects_stride_below_one(self):
        run = sample(3, 0.5, 10, seed=0)
        for stride in (0, -3):
            with pytest.raises(ValueError):
                markov.strided_series(run, 0.5, stride)

    def test_bad_q_rejected(self):
        run = sample(3, 0.5, 10, seed=0)
        with pytest.raises(ValueError):
            markov.strided_series(run, 1.0, 1)
        with pytest.raises(ValueError):
            markov.final_local_dimension(run, 0.0)
