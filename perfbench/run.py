"""Benchmark of rllshift: one workload, one closed-loop client, one process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {gate,horizon,exact-deep} \
        --seed N --seconds S --trace {0,1}

Every query is an `rllshift` command line passed to `rllshift.cli.main`
in this process, with stdout and stderr captured; nothing under `src/`
is changed.  Each output is checked by the oracles in `oracles.py`.

With `--trace 0` the workload runs as many whole query blocks as fit in
`--seconds` at a nominal pace (`workloads.block_count`), and the
end-to-end metrics are reported.  With `--trace 1` each query of a fixed,
seed-determined list runs untraced and then with spans (`spans.py`) on
every public function of the seven modules; the per-layer metrics come
from the traced runs and `trace_overhead_s` is the traced minus the
untraced time.

Standard output holds a provenance line and then, as its last line, the
result: {"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# set-up samples taken before the workload, and as many after it, so they
# span the run rather than one moment of a machine whose speed swings
# every few seconds
SETUP_REPEATS = 5
SETUP_CODE = "import rllshift, rllshift.cli; rllshift.cli.build_parser()"
# Each set-up sample is paired with a fresh interpreter importing numpy: the
# same kind of work (process start, unmarshalling, extension and BLAS
# start-up), none of it rllshift's.  setup_s is the median ratio of the two
# times the median numpy import time of the VM in README.md, so it moves
# with rllshift's own set-up cost but not with the machine's speed, which
# moved raw set-up times by a third between sets of runs.
BASELINE_CODE = "import numpy"
BASELINE_NOMINAL_S = 0.23
# one cheap query per command, untimed, so lazy first-call costs land
# outside the measured loop
WARMUP = (
    ("lambda", "--m", "3", "--p", "1/3", "--n", "10"),
    ("sample", "--m", "3", "--p", "0.4", "--n", "100", "--seed", "1", "--format", "json"),
    ("gamma-check", "--w", "110110", "--depth", "5"),
    ("gamma-check", "--periodic", "1:10"),
    ("dims", "--m", "3", "--p", "0.4"),
    ("measure", "--m", "3", "--p", "1/3", "--w", "01", "--k", "3"),
    ("enumerate", "--m", "3", "--n", "5", "--count-only"),
)
GATE_CHECKS = 15
# ends every traced list, so every span runs in every traced run: a layer a
# workload does not use reads small, never a constant 0
TOUCH = (
    workloads.Query("verify-quick", ("verify", "--quick")),
    workloads.Query("gamma-periodic", ("gamma-check", "--periodic", "1:10"), {"pre": "1", "period": "10", "pair": -1}),
)


@dataclass
class Outcome:
    query: workloads.Query
    rc: int | None
    stdout: str
    stderr: str
    seconds: float
    start: float  # perf_counter() when the call began


def execute(cli, query: workloads.Query, probe: Probe | None = None) -> Outcome:
    """Run one command line; only the `cli.main` call is timed, less any
    time the probe spent on the reference loop meanwhile."""
    out, err = io.StringIO(), io.StringIO()
    spent = probe.spent_s if probe else 0.0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(query.argv))
            t1 = time.perf_counter()
        except Exception:  # a traceback fails this query, not the run
            t1 = time.perf_counter()
            rc = None
            err.write(traceback.format_exc())
    if probe:
        t1 -= probe.spent_s - spent
    return Outcome(query, rc, out.getvalue(), err.getvalue(), t1 - t0, t0)


def reference_loop() -> None:
    """The unit of `ref`: 40,000 small-integer updates that allocate nothing.

    Over 150 s of interleaved samples on the VM in README.md, `horizon`
    and `exact-deep` work both slowed down and sped up with this loop
    (log-log slope 0.6-1.2), where a big-integer multiply-divide loop mostly
    moved only 1/1.4 to 1/2 as much as the work did.
    """
    x = 0
    for _ in itertools.repeat(None, 40_000):
        x = (x * 3 + 1) & 63


class Probe:
    """Times a reference loop every `interval` seconds, from a SIGALRM handler.

    The handler runs in the main thread between bytecodes, also in the
    middle of a query, so the samples follow the machine's speed over the
    whole run rather than only between queries.
    """

    def __init__(self, loop, interval: float = 0.1):
        self.loop = loop
        self.interval = interval
        self.times: list[float] = []  # when each sample was taken
        self.refs: list[float] = []  # how long the loop took
        self.spent_s = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.loop()
        dt = time.perf_counter() - t0
        self.times.append(t0)
        self.refs.append(dt)
        self.spent_s += dt

    def around(self, start: float, end: float, margin: float = 1.0) -> float:
        """Mean reference time from `margin` seconds before `start` to as
        long after `end`; the run's median when no sample falls there."""
        lo = bisect.bisect_left(self.times, start - margin)
        hi = bisect.bisect_right(self.times, end + margin)
        near = self.refs[lo:hi]
        return statistics.fmean(near) if near else statistics.median(self.refs)

    def __enter__(self) -> "Probe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.refs:
            self._sample(None, None)


@dataclass
class Loop:
    outcomes: list[Outcome]
    elapsed: float  # wall time, less the probe's
    probe: Probe


def closed_loop(cli, blocks) -> Loop:
    """Send each query after the previous one returns, while a probe
    samples the machine's speed with the reference loop."""
    outcomes: list[Outcome] = []
    with Probe(reference_loop) as probe:
        start = time.perf_counter()
        for block in blocks:
            for query in block:
                outcomes.append(execute(cli, query, probe))
        elapsed = time.perf_counter() - start
    return Loop(outcomes, elapsed - probe.spent_s, probe)


@dataclass
class Verdict:
    attempted: int
    failed: int
    wrong: list[str]
    known: Counter

    @property
    def correct(self) -> bool:
        return not self.wrong


def judge_gate(outcomes: list[Outcome]) -> Verdict:
    """Operations are checks: 15 per verify run; reports must repeat byte for byte."""
    v = Verdict(0, 0, [], Counter())
    reports: dict[tuple, set] = {}
    for o in outcomes:
        lines = o.stdout.rstrip("\n").split("\n")
        checks = [ln for ln in lines if ln.startswith(("PASS", "FAIL"))]
        if o.rc is None or len(checks) != GATE_CHECKS:
            v.attempted += GATE_CHECKS
            v.failed += GATE_CHECKS
            v.wrong.append(f"{' '.join(o.query.argv)}: no report (exit {o.rc})")
            continue
        v.attempted += len(checks)
        v.failed += sum(ln.startswith("FAIL") for ln in checks)
        if lines[-1] != f"{GATE_CHECKS}/{GATE_CHECKS} checks passed" or o.rc != 0:
            v.wrong.append(f"{' '.join(o.query.argv)}: {lines[-1]} (exit {o.rc})")
        reports.setdefault(o.query.argv, set()).add(o.stdout)
    for argv, texts in reports.items():
        if len(texts) != 1:
            v.wrong.append(f"{' '.join(argv)}: report differs between runs")
    return v


def judge_queries(outcomes: list[Outcome]) -> Verdict:
    """Operations are queries; a failure is known or makes the run incorrect."""
    v = Verdict(len(outcomes), 0, [], Counter())
    gamma: dict[int, dict] = {}
    for o in outcomes:
        q = o.query
        if o.rc != 0:
            v.failed += 1
            defect = oracles.known_failure(o.stderr)
            if defect:
                v.known[defect] += 1
            else:
                last = o.stderr.strip().split("\n")[-1] if o.stderr.strip() else ""
                v.wrong.append(f"{' '.join(q.argv)[:120]}: exit {o.rc}: {last}")
            continue
        reason = oracles.CHECKS[q.kind](q, o.stdout)
        if reason:
            v.wrong.append(f"{' '.join(q.argv)[:120]}: {reason}")
        if q.kind.startswith("gamma-"):
            gamma.setdefault(q.params["pair"], {})[q.kind] = (q, json.loads(o.stdout))
    for pair in gamma.values():
        if len(pair) == 2:
            (qw, window), (_, periodic) = pair["gamma-w"], pair["gamma-periodic"]
            reason = oracles.gamma_consistent(window, periodic, qw.params["depth"])
            if reason:
                v.wrong.append(f"gamma pair {qw.params['pre']}:{qw.params['period']}: {reason}")
    return v


def judge(outcomes: list[Outcome]) -> Verdict:
    gate = judge_gate([o for o in outcomes if o.query.kind.startswith("verify")])
    rest = judge_queries([o for o in outcomes if not o.query.kind.startswith("verify")])
    return Verdict(
        gate.attempted + rest.attempted, gate.failed + rest.failed, gate.wrong + rest.wrong, gate.known + rest.known
    )


def setup_samples(repeats: int) -> list[tuple[float, float]]:
    """Wall times of fresh interpreters, back to back: (importing rllshift
    and building the parser, importing numpy)."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    samples = []
    for _ in range(repeats):
        pair = []
        for code in (SETUP_CODE, BASELINE_CODE):
            t0 = time.perf_counter()
            # no timeout: with one, subprocess polls the child every 50 ms
            subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
            pair.append(time.perf_counter() - t0)
        samples.append(tuple(pair))
    return samples


def trace_length(workload: str, seconds: float, tiny: bool) -> int:
    """Queries in the traced list: fixed by workload and --seconds, so counts repeat."""
    if workload == "gate":
        # the gate round up to and including the full verify
        return 1 if tiny else 1 + [q.kind for q in workloads.GATE_ROUND].index("verify")
    return 20 * max(1, round(seconds / 15))


# below this many values a percentile is one of the values: on `gate` the
# median is then a quick verify and the 90th percentile the full one
HD_MIN_VALUES = 20


def quantile(values: list[float], p: float) -> float:
    """The `p`-quantile of `values`.

    From `HD_MIN_VALUES` values on, this is the Harrell-Davis estimator: a
    mean of all order statistics, weighted by a Beta(p(n+1), (1-p)(n+1))
    distribution over their ranks.  A single order statistic of 100 query
    latencies moves with the noise of the few queries next to it; over five
    `exact-deep` runs on the VM in README.md the plain median spread by
    0.17 of its median, the Harrell-Davis one by 0.045.  Below, it is the
    nearest rank: the value ceil(p n) in ascending order.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    if n < HD_MIN_VALUES:
        return float(x[math.ceil(p * n) - 1])
    a, b = p * (n + 1), (1 - p) * (n + 1)
    # the Beta CDF at the rank boundaries i/n, by the trapezoid rule
    grid = np.linspace(0.0, 1.0, 100 * n + 1)
    inner = grid[1:-1]
    pdf = np.zeros_like(grid)
    pdf[1:-1] = np.exp((a - 1) * np.log(inner) + (b - 1) * np.log1p(-inner))
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)))
    weights = np.diff(cdf[:: 100] / cdf[-1])
    return float(weights @ x)


def end_to_end(loop: Loop, verdict: Verdict, setup_s: float) -> tuple[dict, dict]:
    """The end-to-end metrics, and the same figures in raw seconds.

    Latency and throughput are given in units of the reference loop
    ("ref"): this machine's speed drifts by a third over minutes and
    swings by almost half within seconds.  Each latency is divided by the
    mean reference time from a second before the query to a second after
    it, and throughput is counted against the sum of those scaled times.
    """
    lat = [o.seconds for o in loop.outcomes]
    scaled = [o.seconds / loop.probe.around(o.start, o.start + o.seconds) for o in loop.outcomes]
    ref = statistics.median(loop.probe.refs)
    raw = {
        "ref_s": ref,
        "query_p50_s": quantile(lat, 0.5),
        "query_p90_s": quantile(lat, 0.9),
        "queries_per_s": len(lat) / loop.elapsed,
        "s_per_100_queries": 100 * sum(lat) / len(lat),
    }
    metrics = {
        "setup_s": (setup_s, "s"),
        "query_p50_ref": (quantile(scaled, 0.5), "ref"),
        "query_p90_ref": (quantile(scaled, 0.9), "ref"),
        "queries_per_kref": (1000 * len(scaled) / sum(scaled), "1/kref"),
        "ok_share": ((verdict.attempted - verdict.failed) / verdict.attempted, "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    return metrics, raw


def per_layer(traced: list[Outcome], untraced: list[Outcome], tracer: spans.Tracer) -> dict:
    metrics = tracer.metrics()
    wall_t = sum(o.seconds for o in traced)
    wall_u = sum(o.seconds for o in untraced)
    metrics["cli.output_bytes"] = (sum(len(o.stdout.encode()) for o in traced), "B")
    metrics["traced_wall_s"] = (wall_t, "s")
    metrics["untraced_wall_s"] = (wall_u, "s")
    metrics["trace_overhead_s"] = (wall_t - wall_u, "s")
    metrics["span_bookkeeping_s"] = (tracer.bookkeeping_s, "s")
    return metrics


def by_kind(outcomes: list[Outcome]) -> dict:
    kinds: dict[str, list[float]] = {}
    for o in outcomes:
        kinds.setdefault(o.query.kind, []).append(o.seconds)
    return {
        k: {"n": len(v), "p50_s": statistics.median(v), "max_s": max(v)}
        for k, v in sorted(kinds.items())
    }


def provenance(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "note": "CPU frequency and pinning are not controlled",
    }


def _git_commit() -> str | None:
    try:
        res = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = res.stdout.split()
    if res.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Run one workload; returns (verdict, metrics, detail)."""
    from rllshift import cli

    repeats = 2 if tiny else SETUP_REPEATS
    if not trace:
        setup_samples(1)  # fills the bytecode cache
        setups = setup_samples(repeats)
    for argv in WARMUP:
        execute(cli, workloads.Query("warmup", argv))
    blocks = workloads.stream(workload, seed, tiny)
    if not trace:
        count = workloads.block_count(workload, seconds)
        loop = closed_loop(cli, itertools.islice(blocks, count))
        setups += setup_samples(repeats)
        verdict = judge(loop.outcomes)
        setup_s = BASELINE_NOMINAL_S * statistics.median(s / b for s, b in setups)
        metrics, raw = end_to_end(loop, verdict, setup_s)
        detail = {
            **raw,
            "elapsed_s": loop.elapsed,
            "setup_times_s": [s for s, _ in setups],
            "numpy_import_times_s": [b for _, b in setups],
            "by_kind": by_kind(loop.outcomes),
        }
        return verdict, metrics, detail

    queries = itertools.chain.from_iterable(blocks)
    fixed = list(itertools.islice(queries, trace_length(workload, seconds, tiny))) + list(TOUCH)
    # each query runs untraced and then traced, back to back, so both
    # passes see the machine at the same speed
    untraced, traced = [], []
    tracer = spans.Tracer()
    for query in fixed:
        untraced.append(execute(cli, query))
        tracer.install()
        try:
            traced.append(execute(cli, query))
        finally:
            tracer.uninstall()
    verdict = judge(traced)
    verdict.wrong += judge(untraced).wrong
    for a, b in zip(untraced, traced):
        if (a.rc, a.stdout) != (b.rc, b.stdout):
            verdict.wrong.append(f"{' '.join(a.query.argv)[:120]}: output changes under tracing")
    detail = {"by_kind": by_kind(traced)}
    return verdict, per_layer(traced, untraced, tracer), detail


def main(argv: list[str] | None = None, tiny: bool = False) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "rllshift" / "__init__.py").is_file():
        print(f"error: no rllshift sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import rllshift

    if Path(rllshift.__file__).resolve().parent != SRC / "rllshift":
        print(f"error: imported rllshift from {rllshift.__file__}, not {SRC}", file=sys.stderr)
        return 2

    verdict, metrics, detail = run(args.workload, args.seed, args.seconds, bool(args.trace), tiny)
    detail.update(known_failures=dict(verdict.known), wrong=verdict.wrong[:10])
    info = {"provenance": provenance(args.workload, args.seed, args.seconds, args.trace), "detail": detail}
    print(json.dumps(info))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}", file=sys.stderr)
    result = {
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
