"""The gate's own predicates, and checks that are shown to fail."""
import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rllshift import markov, univoque, verify


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
