"""The gate's own predicates, and checks that are shown to fail."""
import dataclasses
import errno
import itertools
import os
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rllshift import dimension, markov, measure, univoque, verify, words


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
            nums[0] += 1  # the empty word's mass is 2, not 1
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
        uniform = lambda chain: dict.fromkeys(chain.states, Fraction(1, len(chain.states)))
        monkeypatch.setattr(markov, "stationary", uniform)
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


class TestErgodicPath:
    def _count_draws(self, monkeypatch):
        seeds = []
        sample = markov.sample

        def counting(chain, n, seed):
            seeds.append(seed)
            return sample(chain, n, seed)

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
        bits = run.bits.copy()
        bits[-1] ^= 1
        changed = dataclasses.replace(run, bits=bits)
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
        with pytest.raises(RuntimeError, match="checks 3, 8, 14 sent no result"):
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
