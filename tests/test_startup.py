"""Start-up of the package: a module, numpy included, loads only when used.

`import rllshift` and building the CLI parser load no module of the
package beyond `rllshift.cli`; each command loads the modules it runs, and
numpy loads only in the calls that build arrays.  Each test runs a fresh
interpreter on `src/`, so nothing imported by this test process is loaded
there before the code under test.
"""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rllshift
from rllshift import cli, dimension

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"

# Runs each argv of the JSON list in sys.argv[1] through cli.main, in one
# process, and prints a JSON list with, per argv, the exit code, the
# stdout, whether numpy was loaded before and after the call, and the
# package's modules loaded after it.
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
    loaded = sorted(m for m in sys.modules if m.startswith("rllshift."))
    rows.append([code, out.getvalue(), before, "numpy" in sys.modules, loaded])
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
    for argv, (code, out, before, after, _) in zip(NUMPY_FREE, rows):
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
    [(code, out, before, after, _)] = run_fresh(argv)
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


def test_import_and_parser_load_only_init_and_cli():
    code = (
        "import json, sys\n"
        "import rllshift, rllshift.cli\n"
        "rllshift.cli.build_parser()\n"
        "print(json.dumps([sorted(m for m in sys.modules if m.startswith('rllshift')),\n"
        "                  'numpy' in sys.modules]))\n"
    )
    assert json.loads(fresh(code)) == [["rllshift", "rllshift.cli"], False]


ALL_MODULES = ["cli", "dimension", "markov", "measure", "univoque", "verify", "words"]


@pytest.mark.parametrize(
    "argv, modules",
    [
        (["dims", "--m", "3:30", "--p", "0.3"], ["cli", "dimension", "words"]),
        (["gamma-check", "--periodic", "1:10"], ["cli", "univoque", "words"]),
        (["enumerate", "--m", "5", "--n", "2000", "--count-only"], ["cli", "words"]),
        (["measure", "--m", "5", "--p", "1/3", "--w", "0110", "--k", "40"],
         ["cli", "measure", "words"]),
        (["verify", "--quick"], ALL_MODULES),
    ],
    ids=["dims", "gamma-check", "enumerate-count", "measure-exact", "verify-quick"],
)
def test_each_command_loads_only_its_modules(argv, modules):
    [(code, _, _, _, loaded)] = run_fresh(argv)
    assert code == 0
    assert loaded == [f"rllshift.{m}" for m in modules]


def test_listing_over_the_cap_exits_2_in_a_fresh_process():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "rllshift.cli", "enumerate", "--m", "3", "--n", "60"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: 5009461563922 words of length 60 exceed the cap 2097152; use count_words\n"
    )


# the package's exports, by the module that defines them; each module is
# exported under its own name too
EXPORTS = {
    "words": ["CapacityError", "InadmissibleWordError", "count_words",
              "enumerate_words", "is_admissible_symbols"],
    "measure": ["BernoulliTypeMeasure", "bernoulli", "cesaro_lambda", "mu_closed",
                "mu_recursive", "pullback_cylinder"],
    "markov": ["SampleRun", "final_local_dimension", "sample"],
    "dimension": ["DimensionProfile", "entropy_binary", "f_m", "g_m", "lower_bound",
                  "profiles", "solve_qm", "topo_dim"],
    "univoque": ["EventuallyPeriodicSequence", "GammaVerdict", "clean_windows",
                 "gamma_check_periodic", "gamma_check_prefix", "theta_embed"],
}

# In a fresh interpreter: the exports after a bare `import rllshift`, each
# name's object against the attribute of its defining module, an unknown
# name, and a star import.
SURFACE = """
import importlib, json, sys
import rllshift
loaded = sorted(m for m in sys.modules if m.startswith("rllshift"))
exports = json.loads(sys.argv[1])
same = {}
for module, names in exports.items():
    defining = importlib.import_module(f"rllshift.{module}")
    same[module] = getattr(rllshift, module) is defining
    for name in names:
        same[name] = getattr(rllshift, name) is getattr(defining, name)
try:
    rllshift.no_such_name
    unknown = None
except AttributeError as exc:
    unknown = str(exc)
star = {}
exec("from rllshift import *", star)
print(json.dumps({
    "all": rllshift.__all__,
    "loaded": loaded,
    "same": same,
    "unknown": unknown,
    "star": sorted(k for k in star if k != "__builtins__"),
    "dir": sorted(set(rllshift.__all__) - set(dir(rllshift))),
}))
"""


def test_package_surface():
    got = json.loads(fresh(SURFACE, json.dumps(EXPORTS)))
    names = sorted(n for module, names in EXPORTS.items() for n in (module, *names))
    assert len(names) == 33
    assert got["all"] == names
    assert got["loaded"] == ["rllshift"]
    assert got["same"] == dict.fromkeys(got["same"], True)
    assert got["unknown"] == "module 'rllshift' has no attribute 'no_such_name'"
    assert got["star"] == names
    assert got["dir"] == []


# exports no module of the package calls: the exact oracle that the tests
# hold other routes against
ORACLES = {"mu_closed"}


def test_every_export_has_a_caller():
    # a caller is a name or attribute read anywhere in a module of the
    # package other than `__init__.py`, which only re-exports
    used = set()
    for path in (ROOT / "src" / "rllshift").glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    names = set(rllshift.__all__) - EXPORTS.keys()
    assert names - used == ORACLES
