"""The gate's own predicates, and checks that are shown to fail."""
import dataclasses
import errno
import itertools
import os
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rllshift import dimension, markov, measure, univoque, verify, words


def unpack(run):
    """The run's symbols as uint8, one per symbol."""
    return np.unpackbits(run.packed_bits, count=run.n)


def groupby_run_bound_broken(s):
    """Reference: the run-list scan that the two substring tests replace."""
    runs = [len(list(run)) for _, run in itertools.groupby(s)]
    return any(r > runs[0] for r in runs[:-1])


class TestRunBound:
    def test_matches_run_lists_exhaustively(self):
        for n in range(1, 15):
            for bits in itertools.product("01", repeat=n):
                s = "".join(bits)
                assert verify._interior_run_above_first(s) == groupby_run_bound_broken(s)

    @settings(max_examples=200, deadline=None, database=None)
    @given(st.text(alphabet="01", min_size=1, max_size=24))
    def test_matches_run_lists(self, s):
        assert verify._interior_run_above_first(s) == groupby_run_bound_broken(s)

    def test_planted_window_fails(self, monkeypatch):
        monkeypatch.setattr(univoque, "clean_windows", lambda L: iter(["0110"]))
        result = verify.check_gamma_construction(quick=True)
        assert verify.format_report([("14", result)]).startswith("FAIL  14")
        assert "window 0110 has an interior run above 1" in result.detail

    @pytest.mark.parametrize("window", ["0100", "0111", "1101"])
    def test_long_last_run_passes(self, monkeypatch, window):
        # only the last run may be longer than the leading one
        monkeypatch.setattr(univoque, "clean_windows", lambda L: iter([window]))
        assert verify.check_gamma_construction(quick=True).passed


def assert_fails(num, result, *details):
    assert verify.format_report([(num, result)]).startswith(f"FAIL  {num:>2}")
    for detail in details:
        assert detail in result.detail


class TestPlantedFailures:
    """Each check's FAIL branch, reached by breaking the one call it reads."""

    def test_normalization(self, monkeypatch):
        numerators = words.WordTree.numerators

        def heavy_root(tree, *weights):
            nums = numerators(tree, *weights)
            nums[:, 0] += 1  # the empty word's mass is 2, not 1, for every p
            return nums

        monkeypatch.setattr(words.WordTree, "numerators", heavy_root)
        result = verify.check_normalization(quick=True)
        assert_fails("4", result, "9 (m,p) combos: 9 non-unit sums")

    def test_non_invariance(self, monkeypatch):
        # an invariant measure: the pullback is the cylinder itself
        invariant = lambda meas, w, k: measure.mu_recursive(meas, w)
        monkeypatch.setattr(measure, "pullback_cylinder", invariant)
        result = verify.check_non_invariance(quick=True)
        assert_fails("7", result, "p in (1/3,2/3): 6 failures")

    def test_lambda_stationary(self, monkeypatch):
        # the uniform law has digit mass 1/2, the closed form only at p = 1/2
        uniform = lambda chain: ([1] * len(chain), len(chain))
        monkeypatch.setattr(markov, "_visit_numerators", uniform)
        result = verify.check_lambda_triple(quick=True)
        assert_fails(
            "8", result, "stationary m=3 p=1/3; stationary m=3 p=2/5; stationary m=3 p=2/3"
        )
        assert result.detail.count("stationary m=") == 9 and "p=1/2" not in result.detail

    def test_lambda_cesaro(self, monkeypatch):
        monkeypatch.setattr(measure, "cesaro_lambda", lambda meas, w, n: 0.0)
        result = verify.check_lambda_triple(quick=True)
        assert_fails("8", result, "12 (m,p) combos, cesaro n=2000: cesaro m=3 p=1/3;")
        assert result.detail.count("cesaro m=") == 12

    def test_lambda_recurrence(self, monkeypatch):
        def broken(meas, kmax):
            raise measure.PullbackRecurrenceError("planted")

        monkeypatch.setattr(measure, "pullback_numerators", broken)
        result = verify.check_lambda_triple(quick=True)
        assert_fails("8", result, "recurrence m=3 p=1/3", "recurrence m=5 p=2/3")

    def test_root_quality(self, monkeypatch):
        # q = 1/2 misses every root: a residual everywhere, |q-p| > 1/m from
        # m = 6 at p = 0.3, and q(3, 0.4) = 0.5
        monkeypatch.setattr(dimension, "solve_qm", lambda m, p: 0.5)
        result = verify.check_root_quality(quick=True)
        assert_fails(
            "10", result, "residual m=5 p=0.3; residual m=6 p=0.3; |q-p| m=6 p=0.3;",
            "q(3, 0.4) != 0.2",
        )
        assert "|q-p| m=5 p=0.3" not in result.detail

    def test_gamma_samples(self, monkeypatch):
        verdict = univoque.GammaVerdict(univoque.VIOLATED, k=5, position=2)
        monkeypatch.setattr(univoque, "gamma_check_prefix", lambda win, depth: verdict)
        result = verify.check_gamma_construction(quick=True)
        assert_fails(
            "14", result,
            "runs bounded by the leading run; seed 0 violated at k=5; seed 1 violated at k=5; "
            "seed 2 violated at k=5",
        )
        assert "seed 3" not in result.detail  # the detail lists three problems


def counts_planted(monkeypatch, row, change):
    """Patch WordTree.arrays: count row `row` (0 for N0, 1 for N1) moves by
    `change` on every word longer than 5."""
    build = words.WordTree.arrays.func

    def planted(tree):
        a = build(tree)
        counts = a.counts.copy()
        counts[row] += change * (a.depth > 5)
        return words.TreeArrays(a.depth, counts, a.suffix)

    monkeypatch.setattr(words.WordTree, "arrays", property(planted))


def detail_count(result, what):
    return int(re.search(rf"(\d+) {what}", result.detail).group(1))


class TestLevelWalks:
    """Checks 1, 2 and 5 walk their trees one level (or slice) at a time."""

    # tracemalloc peaks at full size, each check alone from a fresh tree;
    # with whole-tree split points and build temporaries they were 3.77,
    # 2.30 and 1.01 MiB
    @pytest.mark.parametrize("num, mib", [("1", 1.5), ("2", 1.5), ("5", 1.01)])
    def test_full_check_peak(self, num, mib):
        check = dict(verify.CHECKS)[num]
        tracemalloc.start()
        try:
            assert check(False).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < mib * 2**20, f"check {num}: {peak / 2**20:.3f} MiB"

    @pytest.mark.parametrize("row, change", [(0, 1), (1, -1)])
    def test_subadditivity_counts_every_violation(self, monkeypatch, row, change):
        # the same count as a loop over the split points of every word
        counts_planted(monkeypatch, row, change)
        bad = 0
        for m in (3, 4):
            tree = words.word_tree(m, 8)
            index = {u: i for i, u in enumerate(tree.words)}
            counts = tree.arrays.counts[:2].T.tolist()
            for u in tree.words:
                for i in range(1, len(u)):
                    for joined, left, right in zip(*(counts[index[x]] for x in (u, u[:i], u[i:]))):
                        bad += not left + right - 1 <= joined <= left + right
        result = verify.check_subadditivity(quick=True)
        assert not result.passed and detail_count(result, "violations") == bad > 0

    @pytest.mark.parametrize("width", [1, 7, 1000, verify.COUNTING_SLICE])
    @pytest.mark.parametrize("row", [0, 1])
    def test_counting_bound_counts_every_violation(self, monkeypatch, row, width):
        # under a planted free 0 (or 1) too few, any slice width counts the
        # words and the violations of a loop over the words
        counts_planted(monkeypatch, row, -1)
        bad = words_total = 0
        for m in (3, 4, 5):
            tree = words.word_tree(m, 10)
            n0, n1, _ = tree.arrays.counts.tolist()
            for s, free0, free1 in zip(tree.words[1:], n0[1:], n1[1:]):
                words_total += 1
                bad += m * s.count("0") > (m - 1) * free0 + len(s)
                bad += m * s.count("1") > (m - 1) * free1 + len(s)
        monkeypatch.setattr(verify, "COUNTING_SLICE", width)
        result = verify.check_counting_bound(quick=True)
        assert detail_count(result, "words") == words_total
        assert not result.passed and detail_count(result, "violations") == bad > 0


class TestErgodicPath:
    @pytest.mark.parametrize(
        "check", [verify.check_ergodic_frequency, verify.check_gamma_construction]
    )
    def test_sampling_checks_build_no_chain(self, monkeypatch, check):
        # the sampler reads (m, p); only check 8 builds the run-state kernel
        def refuse(m, p):
            raise AssertionError("a sampling check built the oracle chain")

        monkeypatch.setattr(markov, "build_chain", refuse)
        assert check(True).passed

    def _count_draws(self, monkeypatch):
        seeds = []
        sample = markov.sample

        def counting(m, p, n, seed):
            seeds.append(seed)
            return sample(m, p, n, seed)

        monkeypatch.setattr(markov, "sample", counting)
        return seeds

    def test_suite_draws_the_path_twice_per_call(self, monkeypatch):
        seeds = self._count_draws(monkeypatch)
        for calls in (1, 2):  # nothing carries over from one call to the next
            verify.run_suite(quick=True)
            assert seeds.count(verify.ERGODIC_SEED) == 2 * calls

    def test_each_check_alone_reports_as_in_the_suite(self):
        suite = dict(verify.run_suite(quick=True))
        for num, fn in verify.CHECKS:
            if num in verify.ERGODIC_CHECKS:
                assert fn(True) == suite[num]

    def test_determinism_compares_a_fresh_draw(self):
        run = verify._ergodic_run(True)
        assert verify.check_determinism(True, [run]).passed
        # flip the last symbol, at bit n - 1 of the packed layout
        packed = run.packed_bits.copy()
        packed[(run.n - 1) // 8] ^= 0x80 >> (run.n - 1) % 8
        changed = dataclasses.replace(run, packed_bits=packed)
        assert unpack(changed)[-1] != unpack(run)[-1]
        assert not verify.check_determinism(True, [changed]).passed


@pytest.fixture(scope="module")
def serial_suite():
    with pytest.MonkeyPatch.context() as mp:
        mp.delattr(os, "fork")
        return verify.run_suite(False)


class TestForkedSuite:
    """The full suite runs FORKED_CHECKS in a child; the report is the same."""

    @pytest.fixture
    def forks(self, monkeypatch):
        """Two usable CPUs, and a list that grows by one per os.fork call."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        calls = []
        fork = os.fork

        def counting():
            calls.append(None)
            return fork()

        monkeypatch.setattr(os, "fork", counting)
        return calls

    @staticmethod
    def assert_no_child():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_equals_serial_in_order(self, forks, serial_suite):
        assert [num for num, _ in serial_suite] == [num for num, _ in verify.CHECKS]
        assert verify.run_suite(False) == serial_suite
        assert len(forks) == 1
        self.assert_no_child()

    def test_fork_with_threads_warning(self, monkeypatch, forks, serial_suite):
        """Python 3.12+ warns on os.fork while numpy's BLAS threads are alive;
        under pyproject's `filterwarnings = error` that warning would raise."""
        counting = os.fork

        def warning_fork():
            warnings.warn(
                "This process is multi-threaded, use of fork() may lead to "
                "deadlocks in the child.",
                DeprecationWarning,
                stacklevel=2,
            )
            return counting()

        monkeypatch.setattr(os, "fork", warning_fork)
        assert verify.run_suite(False) == serial_suite
        assert len(forks) == 1
        self.assert_no_child()

    def test_one_cpu_and_quick_stay_serial(self, monkeypatch, forks, serial_suite):
        verify.run_suite(True)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert verify.run_suite(False) == serial_suite
        assert not forks

    def test_failed_fork_runs_every_check_here(self, monkeypatch, serial_suite):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

        def no_fork():
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        assert verify.run_suite(False) == serial_suite

    def test_child_exception_is_raised_here(self, monkeypatch, forks):
        def planted(L):
            raise ValueError("planted")

        monkeypatch.setattr(univoque, "clean_windows", planted)
        with pytest.raises(ValueError, match="^planted$"):
            verify.run_suite(False)
        assert len(forks) == 1
        self.assert_no_child()

    def test_unpicklable_child_exception(self, monkeypatch, forks):
        class Local(Exception):  # a local class does not pickle
            pass

        def planted(L):
            raise Local("planted")

        monkeypatch.setattr(univoque, "clean_windows", planted)
        sent = f"checks {', '.join(verify.FORKED_CHECKS)} sent no result"
        with pytest.raises(RuntimeError, match=sent):
            verify.run_suite(False)
        self.assert_no_child()

    def test_caller_exception_reaps_the_child(self, monkeypatch, forks):
        def planted(m, p):
            raise ArithmeticError("planted")

        monkeypatch.setattr(dimension, "solve_qm", planted)
        with pytest.raises(ArithmeticError, match="^planted$"):
            verify.run_suite(False)
        assert len(forks) == 1
        self.assert_no_child()
