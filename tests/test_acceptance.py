"""Acceptance gate: the fifteen verification checks, one test per check.

The full suite runs once per session; each test prints its own
PASS/FAIL line so the -v output reads as a criterion-by-criterion
report, then asserts the stored result.  The assembled report must
match the one committed under tests/data byte for byte, and so must the
quick one (`verify --quick`).
"""
from pathlib import Path

import pytest

from rllshift import verify


@pytest.fixture(scope="session")
def suite_results():
    return {num: result for num, result in verify.run_suite(quick=False)}


GOLDEN_REPORT = Path(__file__).parent / "data" / "verify_full.txt"
GOLDEN_QUICK_REPORT = Path(__file__).parent / "data" / "verify_quick.txt"


def test_report_matches_golden(suite_results):
    report = verify.format_report(list(suite_results.items()))
    # `verify --out` writes the report and a final newline
    assert report + "\n" == GOLDEN_REPORT.read_text()


def test_quick_report_matches_golden():
    report = verify.format_report(verify.run_suite(quick=True))
    assert report + "\n" == GOLDEN_QUICK_REPORT.read_text()


def _gate(suite_results, num):
    result = suite_results[num]
    status = "PASS" if result.passed else "FAIL"
    print(f"{status}  {num}  {result.name}: {result.detail}")
    assert result.passed, f"check {num} ({result.name}): {result.detail}"


def test_01_occurrence_subadditivity(suite_results):
    _gate(suite_results, "1")


def test_02_occurrence_counting_bound(suite_results):
    _gate(suite_results, "2")


def test_03_closed_form_vs_recursive_measure(suite_results):
    _gate(suite_results, "3")


def test_04_measure_normalization(suite_results):
    _gate(suite_results, "4")


def test_05_quasi_bernoulli_inequalities(suite_results):
    _gate(suite_results, "5")


def test_06_pullback_comparability_bounds(suite_results):
    _gate(suite_results, "6")


def test_07_non_invariance_witness(suite_results):
    _gate(suite_results, "7")


def test_08_invariant_mass_three_routes(suite_results):
    _gate(suite_results, "8")


def test_09_correction_term_bound(suite_results):
    _gate(suite_results, "9")


def test_10_frequency_root_quality(suite_results):
    _gate(suite_results, "10")


def test_11_bound_approaches_entropy(suite_results):
    _gate(suite_results, "11")


def test_12_sampled_digit_frequency(suite_results):
    _gate(suite_results, "12")


def test_13_empirical_local_dimension(suite_results):
    _gate(suite_results, "13")


def test_14_univoque_construction(suite_results):
    _gate(suite_results, "14")


def test_15_determinism(suite_results):
    _gate(suite_results, "15")
