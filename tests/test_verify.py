"""The gate's own predicates, and checks that are shown to fail."""
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rllshift import univoque, verify


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
