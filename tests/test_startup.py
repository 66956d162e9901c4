"""Start-up of the package: numpy loads only in the calls that build arrays.

Each test runs a fresh interpreter on `src/`, so nothing imported by this
test process (numpy included) is loaded there before the code under test.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rllshift import cli, dimension

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"

# Runs each argv of the JSON list in sys.argv[1] through cli.main, in one
# process, and prints a JSON list with, per argv, the exit code, the
# stdout, and whether numpy was loaded before and after the call.
DRIVER = """
import contextlib, io, json, sys
import rllshift, rllshift.cli
rllshift.cli.build_parser()
rows = []
for argv in json.loads(sys.argv[1]):
    before = "numpy" in sys.modules
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = rllshift.cli.main(argv)
    rows.append([code, out.getvalue(), before, "numpy" in sys.modules])
print(json.dumps(rows))
"""


def fresh(code: str, *args: str) -> str:
    """stdout of a fresh interpreter running code on this checkout's src/."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return proc.stdout


def run_fresh(*argvs: list[str]) -> list[list]:
    return json.loads(fresh(DRIVER, json.dumps(argvs)))


def in_process(capsys, argv: list[str]) -> str:
    assert cli.main(argv) == 0
    return capsys.readouterr().out


NUMPY_FREE = [
    ["dims", "--m", "3:30", "--p", "0.3"],
    ["gamma-check", "--w", "1" * 6 + "110" * 30, "--depth", "50"],
    ["gamma-check", "--periodic", "1:10"],
    ["enumerate", "--m", "5", "--n", "2000", "--count-only"],
    ["measure", "--m", "5", "--p", "1/3", "--w", "0110"],
    ["measure", "--m", "5", "--p", "1/3", "--w", "0110", "--k", "40"],
]


def test_numpy_free_commands_leave_numpy_unloaded(capsys):
    rows = run_fresh(*NUMPY_FREE)
    for argv, (code, out, before, after) in zip(NUMPY_FREE, rows):
        assert code == 0, argv
        assert not before and not after, argv
        assert out == in_process(capsys, argv), argv


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["lambda", "--m", "35", "--p", "0.3", "--n", "1000"], "lambda_m35.json"),
        (["sample", "--m", "5", "--p", "0.3", "--n", "20000", "--seed", "7",
          "--stride", "1000"], "sample_m5.csv"),
        (["enumerate", "--m", "4", "--n", "9"], None),
        (["measure", "--m", "7", "--p", "0.3", "--w", "0110", "--k", "25"], None),
    ],
)
def test_numpy_commands_load_numpy_in_the_call(capsys, argv, golden):
    [(code, out, before, after)] = run_fresh(argv)
    assert code == 0
    assert not before and after  # numpy first loads inside the call
    want = (DATA / golden).read_text() if golden else in_process(capsys, argv)
    assert out == want


def test_f_m_on_scalars_leaves_numpy_unloaded():
    code = (
        "import sys\n"
        "from fractions import Fraction\n"
        "from rllshift.dimension import f_m\n"
        "print(repr(f_m(5, 0.3)), f_m(5, Fraction(1, 3)), 'numpy' in sys.modules)\n"
    )
    value, exact, loaded = fresh(code).split()
    assert value == repr(dimension.f_m(5, 0.3))
    assert exact == "8/21"  # (1/3 - 1/243) / (1 - 1/243 - 32/243)
    assert loaded == "False"
