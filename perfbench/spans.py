"""In-memory spans around the public functions of rllshift's seven modules.

A span is installed on every public function of `words`, `measure`,
`markov`, `dimension`, `univoque`, `verify` and `cli`, in every namespace
that holds the function (module globals, the package namespace, and
`verify.CHECKS`).  `measure._mu_symbols` also gets one: `verify` calls it
directly, and without a span the measure work of checks 3-4 would count as
`verify` self time.

Per function the tracer keeps calls, inclusive time and self time, where
self time is the inclusive time minus the time covered by child spans.
The wrapper times its own bookkeeping and keeps it out of every self time.
Nothing is written anywhere; `metrics()` reads the totals at the end.
"""
from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter
from fractions import Fraction

LAYERS = ("words", "measure", "markov", "dimension", "univoque", "verify", "cli")
PRIVATE_SPANS = {"measure": ("_mu_symbols",)}
_NO_RESULT = object()


def dp_state_steps(m: int, steps: int) -> int:
    """(state, step) updates of the run-state DP over `steps` steps.

    The DP starts on the two run-length-1 states; after j steps the live
    states are the 2*min(j+1, m-1) states with run length <= j+1.
    """
    c = m - 1
    if steps <= c:
        return steps * (steps + 1)
    return c * (c + 1) + 2 * c * (steps - c)


def _arith(args) -> str:
    """'exact' or 'float': the arithmetic a measure function runs in."""
    for a in args[:2]:
        mode = getattr(a, "mode", None)
        if mode is not None:
            return mode
        if isinstance(a, float):
            return "float"
        if isinstance(a, Fraction):
            return "exact"
    return "exact"


def _float_only(args) -> str:
    return "float"


# work counters, computed from each traced call's inputs and result
def _count_enumerate(c, args, kwargs, result):
    c["words.words_enumerated"] += len(result)


def _count_admissible(c, args, kwargs, result):
    c["words.admissible_tested"] += 1
    c["words.admissible_accepted"] += bool(result)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_pullback(c, args, kwargs, result):
    k = _arg(args, kwargs, 2, "k")
    c["measure.dp_state_steps"] += dp_state_steps(args[0].m, max(k - 1, 0))


def _count_cesaro(c, args, kwargs, result):
    n = _arg(args, kwargs, 2, "n")
    c["measure.dp_state_steps"] += dp_state_steps(args[0].m, n - 1)


def _count_series(c, args, kwargs, result):
    kmax = _arg(args, kwargs, 1, "kmax")
    c["measure.dp_state_steps"] += dp_state_steps(args[0].m, kmax)


def _count_bounds(c, args, kwargs, result):
    kmax = _arg(args, kwargs, 2, "kmax")
    c["measure.dp_state_steps"] += dp_state_steps(args[0].m, kmax)


def _count_sample(c, args, kwargs, result):
    c["markov.symbols_sampled"] += result.n


def _count_stationary(c, args, kwargs, result):
    c["markov.stationary_states"] += len(result)


def _count_prefix(c, args, kwargs, result):
    depth = _arg(args, kwargs, 1, "depth")
    c["univoque.shifts_checked"] += result.k if result.k is not None else depth


def _count_periodic(c, args, kwargs, result):
    variant = args[1] if len(args) > 1 else kwargs.get("variant", "strict")
    seq = args[0].normalized()
    k_start = 1 if variant == "strict" else 0
    last = result.k if result.k is not None else len(seq.preperiod) + len(seq.period)
    c["univoque.shifts_checked"] += last - k_start + 1


COUNTERS = {
    ("words", "enumerate_words"): _count_enumerate,
    ("words", "is_admissible_symbols"): _count_admissible,
    ("measure", "pullback_cylinder"): _count_pullback,
    ("measure", "cesaro_lambda"): _count_cesaro,
    ("measure", "pullback_series"): _count_series,
    ("measure", "pullback_bounds_check"): _count_bounds,
    ("markov", "sample"): _count_sample,
    ("markov", "stationary"): _count_stationary,
    ("univoque", "gamma_check_prefix"): _count_prefix,
    ("univoque", "gamma_check_periodic"): _count_periodic,
}


class Tracer:
    """Installs spans with `install()`, removes them with `uninstall()`."""

    def __init__(self):
        self.stats: dict[tuple[str, str, str], list] = {}
        self.counters: Counter = Counter()
        self._stack = [[0.0]]
        self._bk = [0.0]
        self._patched: list[tuple[object, str, object]] = []
        self._table: dict = {}  # original function -> its span

    @property
    def bookkeeping_s(self) -> float:
        """Time the spans spent on their own bookkeeping."""
        return self._bk[0]

    def _wrap(self, layer, name, fn):
        clock = time.perf_counter
        stack = self._stack
        stats = self.stats
        bk = self._bk
        counters = self.counters
        count = COUNTERS.get((layer, name))
        if layer != "measure":
            keys = {"": [0, 0.0, 0.0]}
            classify = None
        else:
            keys = {"exact": [0, 0.0, 0.0], "float": [0, 0.0, 0.0]}
            classify = _float_only if name == "cesaro_lambda" else _arith
        for cls, cell in keys.items():
            stats[(layer, name, cls)] = cell
        only = keys.get("")

        def span(*args, **kwargs):
            t0 = clock()
            frame = [0.0]
            stack.append(frame)
            result = _NO_RESULT
            t1 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t2 = clock()
                stack.pop()
                cell = only if classify is None else keys[classify(args)]
                cell[0] += 1
                cell[1] += t2 - t1
                cell[2] += t2 - t1 - frame[0]
                if count is not None and result is not _NO_RESULT:
                    count(counters, args, kwargs, result)
                t3 = clock()
                stack[-1][0] += t3 - t0
                bk[0] += (t3 - t0) - (t2 - t1)

        span.__wrapped__ = fn
        return span

    def install(self) -> None:
        """Put the spans in place; statistics add up across installs."""
        table = self._table
        if not table:
            for layer in LAYERS:
                mod = importlib.import_module(f"rllshift.{layer}")
                for name, fn in vars(mod).items():
                    public = not name.startswith("_") or name in PRIVATE_SPANS.get(layer, ())
                    if public and inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                        table[fn] = self._wrap(layer, name, fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "rllshift" and not modname.startswith("rllshift."):
                continue
            for name, value in list(vars(mod).items()):
                swapped = _swap(value, table)
                if swapped is not value:
                    self._patched.append((mod, name, value))
                    setattr(mod, name, swapped)

    def uninstall(self) -> None:
        for mod, name, value in reversed(self._patched):
            setattr(mod, name, value)
        self._patched.clear()

    def inclusive_s(self, layer: str, name: str) -> float:
        return sum(v[1] for (l, n, _), v in self.stats.items() if (l, n) == (layer, name))

    def metrics(self) -> dict[str, tuple[float | int, str]]:
        """Per-layer metrics: name -> (value, unit)."""
        out: dict[str, tuple[float | int, str]] = {}
        for layer in LAYERS:
            cells = [v for (l, _, _), v in self.stats.items() if l == layer]
            out[f"{layer}.calls"] = (sum(c[0] for c in cells), "count")
            out[f"{layer}.self_s"] = (sum(c[2] for c in cells), "s")
        for cls in ("exact", "float"):
            self_s = sum(v[2] for (l, _, c), v in self.stats.items() if l == "measure" and c == cls)
            out[f"measure.{cls}_self_s"] = (self_s, "s")
        inc = self.inclusive_s
        out["measure.pair_checks_s"] = (
            inc("measure", "quasi_bernoulli_check") + inc("measure", "pullback_bounds_check"),
            "s",
        )
        out["measure.pullback_cylinder_s"] = (inc("measure", "pullback_cylinder"), "s")
        out["measure.cesaro_lambda_s"] = (inc("measure", "cesaro_lambda"), "s")
        out["markov.sample_s"] = (inc("markov", "sample"), "s")
        out["markov.log_increments_s"] = (inc("markov", "log_measure_increments"), "s")
        out["markov.stationary_s"] = (inc("markov", "stationary"), "s")
        out["univoque.gamma_prefix_s"] = (inc("univoque", "gamma_check_prefix"), "s")
        out["univoque.gamma_periodic_s"] = (inc("univoque", "gamma_check_periodic"), "s")
        out["words.enumerate_words_s"] = (inc("words", "enumerate_words"), "s")
        out["dimension.solve_qm_s"] = (inc("dimension", "solve_qm"), "s")
        for name in ("solve_qm", "g_m"):
            calls = sum(v[0] for (l, n, _), v in self.stats.items() if (l, n) == ("dimension", name))
            out[f"dimension.{name}_calls"] = (calls, "count")
        verify = sys.modules["rllshift.verify"]
        for num, fn in verify.CHECKS:
            name = getattr(fn, "__wrapped__", fn).__name__
            out[f"verify.check_{int(num):02d}_s"] = (inc("verify", name), "s")
        c = self.counters
        for key in (
            "measure.dp_state_steps",
            "markov.symbols_sampled",
            "markov.stationary_states",
            "univoque.shifts_checked",
            "words.words_enumerated",
        ):
            out[key] = (c[key], "count")
        tested = c["words.admissible_tested"]
        ratio = c["words.admissible_accepted"] / tested if tested else 0.0
        out["words.admissible_accept_ratio"] = (ratio, "ratio")
        return out


def _swap(value, table):
    """`value` with every traced function replaced by its span, else `value` itself."""
    if inspect.isfunction(value):
        return table.get(value, value)
    if isinstance(value, tuple):
        items = tuple(_swap(v, table) for v in value)
        if any(a is not b for a, b in zip(items, value)):
            return items
    return value
