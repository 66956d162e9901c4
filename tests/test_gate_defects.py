"""The planted-defect matrix: what the verification gate catches, and what not.

Each row plants one defect by patching one module (or class) attribute
that the gate reads, then runs the whole suite, quick and full.  The full suite's
forked child inherits the patch.  Rows in CAUGHT must fail exactly their
named checks.  Rows in MISSED leave all 15 checks passing today; each
names the ROADMAP open item that is to close it, and that change moves
the row into CAUGHT.  A row never leaves CAUGHT, and no defect is resized
to make a row pass.
"""
from fractions import Fraction

import pytest

from rllshift import dimension, markov, measure, univoque, verify, words


def scaled(factor):
    """The original function with its result multiplied by factor."""
    return lambda fn: lambda *args: fn(*args) * factor


def n0_plus_one_past_five(fn):
    """column_occurrence_counts with one free 0 too many on every word
    longer than 5 (the words are the columns, their length the rows)."""
    def planted(m, digits):
        counts = fn(m, digits)
        counts[0] += len(digits) > 5
        return counts
    return planted


def one_more_past_five(fn):
    """WordTree.numerators with one unit too many on every word longer than 5."""
    def planted(tree, *args, **kwargs):
        return fn(tree, *args, **kwargs) + (tree.arrays.depth > 5)
    return planted


def always_clean(fn):
    return lambda s, depth: univoque.GammaVerdict(univoque.CLEAN_TO_DEPTH)


def no_windows(fn):
    return lambda L: iter(())


# (id, module, attribute, defect applied to the original, checks that fail)
CAUGHT = [
    ("f_float-x(1+1e-9)", dimension, "_f_float", scaled(1 + 1e-9), {"10"}),
    ("digit_mass+1e-30", markov, "digit_mass",
     lambda fn: lambda *args: fn(*args) + Fraction(1, 10**30), {"8"}),
    ("column_occurrence_counts-n0+1", words, "column_occurrence_counts", n0_plus_one_past_five,
     {"3"}),
    ("numerators+1", words.WordTree, "numerators", one_more_past_five, {"3", "4", "5"}),
]

# (id, module, attribute, defect applied to the original, ROADMAP item to close it)
MISSED = [
    ("cesaro_lambda-x1.001", measure, "cesaro_lambda", scaled(1.001), 5),
    ("growth_root-x(1+1e-4)", dimension, "growth_root", scaled(1 + 1e-4), 17),
    ("final_local_dimension-x0.8", markov, "final_local_dimension", scaled(0.8), 4),
    ("final_local_dimension-x1.5", markov, "final_local_dimension", scaled(1.5), 4),
    ("entropy_binary-x1.02", dimension, "entropy_binary", scaled(1.02), 3),
    ("lower_bound-x0.97", dimension, "lower_bound", scaled(0.97), 3),
    ("gamma_check_prefix-always-clean", univoque, "gamma_check_prefix", always_clean, 10),
    ("clean_windows-empty", univoque, "clean_windows", no_windows, 10),
]


def failed_under(monkeypatch, module, attr, defect, quick):
    """The numbers of the checks that fail with the defect planted."""
    monkeypatch.setattr(module, attr, defect(getattr(module, attr)))
    results = verify.run_suite(quick)
    assert [num for num, _ in results] == [num for num, _ in verify.CHECKS]
    return {num for num, res in results if not res.passed}


@pytest.mark.parametrize("quick", [True, False], ids=["quick", "full"])
@pytest.mark.parametrize(
    "module, attr, defect, checks", [row[1:] for row in CAUGHT], ids=[row[0] for row in CAUGHT]
)
def test_caught_defect_fails_its_checks(monkeypatch, module, attr, defect, checks, quick):
    assert failed_under(monkeypatch, module, attr, defect, quick) == checks


@pytest.mark.parametrize("quick", [True, False], ids=["quick", "full"])
@pytest.mark.parametrize(
    "module, attr, defect, item", [row[1:] for row in MISSED], ids=[row[0] for row in MISSED]
)
def test_missed_defect_passes_every_check(monkeypatch, module, attr, defect, item, quick):
    # a gap of the gate, not a wish: ROADMAP item `item` is to close it
    assert failed_under(monkeypatch, module, attr, defect, quick) == set()


def test_rows_name_distinct_defects():
    ids = [row[0] for row in CAUGHT + MISSED]
    assert len(ids) == len(set(ids))
    assert all(checks for *_, checks in CAUGHT)
