"""One-shot verification suite over every computable claim of the toolkit.

Each check returns a deterministic pass/fail record; the report contains
no timing or other run-to-run noise, so identical configurations produce
byte-identical output.

The full suite runs checks 1, 2, 6 and 14 (`FORKED_CHECKS`) in one
forked child process while the calling process runs the other eleven, where
`os.fork` exists and at least 2 CPUs are usable. The results come back in
`CHECKS` order, so the report is the same byte for byte as in one process,
where the quick suite and every other case run.
"""
from __future__ import annotations

import os
import pickle
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import NoReturn

from . import dimension, markov, measure, univoque, words

# frozen seed for the ergodic-frequency and local-dimension checks; the
# +/- 0.002 band was calibrated once against this seed and then fixed
ERGODIC_SEED = 20260824

P_GRID = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))
LAMBDA_P_GRID = (Fraction(1, 3), Fraction(2, 5), Fraction(1, 2), Fraction(2, 3))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def check_subadditivity(quick: bool = False) -> CheckResult:
    """N0(w)+N0(v)-1 <= N0(wv) <= N0(w)+N0(v), same for N1; exhaustive.

    One level of `WordTree.split_levels` at a time, its interior split
    points (w and v non-empty) read as views; N0 and N1 in one gather.
    """
    import numpy as np
    max_total = 8 if quick else 12
    bad = 0
    pairs = 0
    for m in (3, 4):
        tree = words.word_tree(m, max_total)
        counts = tree.arrays.counts[:2]  # N0, N1
        levels = zip(range(max_total + 1), tree.starts, tree.split_levels())
        for n, lo, (w, v) in islice(levels, 2, None):  # from length 2, with interior points
            w, v = w[1:n], v[1:n]
            pairs += w.size
            gap = counts.take(w, axis=1)
            gap += counts.take(v, axis=1)
            gap -= counts[:, None, lo:lo + w.shape[1]]  # N(w) + N(v) - N(wv)
            bad += int(np.count_nonzero((gap < 0) | (gap > 1)))
    return CheckResult(
        "occurrence-subadditivity",
        bad == 0,
        f"m in (3,4), |w|+|v| <= {max_total}: {pairs} pairs, {bad} violations",
    )


# check 2 compares the words of its trees in slices of at most this many,
# so that its temporaries stay below one level of its largest tree (11,072
# words of length 14 at m = 5) and the quick suite's trees take one slice
COUNTING_SLICE = 1 << 13


def _counting_violations(m: int, max_len: int) -> tuple[int, int]:
    """(words, violations) of check 2 at order m; the tree goes with the
    call, before the next order's is built."""
    import numpy as np
    a = words.word_tree(m, max_len).arrays
    bad = 0
    size = len(a.depth)
    for lo in range(1, size, COUNTING_SLICE):  # the non-empty words
        n, (n0, n1, zeros) = a.depth[lo:lo + COUNTING_SLICE], a.counts[:, lo:lo + COUNTING_SLICE]
        bad += int(np.count_nonzero(m * zeros > (m - 1) * n0 + n))
        bad += int(np.count_nonzero(m * (n - zeros) > (m - 1) * n1 + n))
    return size - 1, bad


def check_counting_bound(quick: bool = False) -> CheckResult:
    """m|w|_0 <= (m-1)N0(w) + |w| and the digit-1 symmetric bound."""
    max_len = 10 if quick else 14
    total, bad = map(sum, zip(*(_counting_violations(m, max_len) for m in (3, 4, 5))))
    return CheckResult(
        "occurrence-counting-bound",
        bad == 0,
        f"m in (3,4,5), |w| <= {max_len}: {total} words, {bad} violations",
    )


def check_closed_vs_recursive(quick: bool = False) -> CheckResult:
    """Closed form equals the branching recursion, as numerators over b**|w|.

    Two independent routes: the closed form from the substring counts of
    `occurrence_counts`, taken a level at a time from the words' symbols
    (`column_occurrence_counts` of `digit_levels`), the recursion from the
    word tree's products of its symbols' classes; one array comparison per
    m, a row per p, in `measure.numerator_dtype`'s dtype.
    """
    import numpy as np
    max_len = 8 if quick else 12
    bad = 0
    total = 0
    for m in (3, 4, 5):
        tree = words.word_tree(m, max_len)
        levels = islice(tree.digit_levels(), 1, None)  # the non-empty words
        n0, n1 = np.concatenate([words.column_occurrence_counts(m, d) for d in levels], axis=1)
        nf = np.repeat(np.arange(1, max_len + 1), np.diff(tree.starts[1:])) - n0 - n1
        weights = [measure.bernoulli(m, p).weights for p in P_GRID]
        dtype = measure.numerator_dtype(max(b for *_, b in weights), max_len)
        pow0, pow1, powb = np.array(  # (weight, p, exponent): powers of a, b-a and b
            [[[x**i for i in range(max_len + 1)] for x in col] for col in zip(*weights)], dtype)
        closed = pow0.take(n0, axis=1) * pow1.take(n1, axis=1) * powb.take(nf, axis=1)
        total += closed.size
        bad += int(np.count_nonzero(closed != tree.numerators(weights, dtype)[:, 1:]))
    return CheckResult(
        "closed-form-vs-recursion",
        bad == 0,
        f"|w| <= {max_len}, 9 (m,p) combos: {total} evaluations, {bad} mismatches",
    )


def check_normalization(quick: bool = False) -> CheckResult:
    """Cylinder masses of each length sum to exactly 1: numerators to b**n,
    every level of every p summed at once in `measure.numerator_dtype`'s dtype."""
    import numpy as np
    max_len = 8 if quick else 12
    bad = 0
    for m in (3, 4, 5):
        tree = words.word_tree(m, max_len)
        widest = tree.starts[-1] - tree.starts[-2]  # the words of length max_len
        weights = [measure.bernoulli(m, p).weights for p in P_GRID]
        dtype = measure.numerator_dtype(max(b for *_, b in weights), max_len, widest)
        sums = np.add.reduceat(tree.numerators(weights, dtype), tree.starts[:-1], axis=1)
        unit = np.array([[b**n for n in range(max_len + 1)] for *_, b in weights], dtype=dtype)
        bad += int(np.count_nonzero(sums != unit))
    return CheckResult(
        "normalization",
        bad == 0,
        f"n <= {max_len}, 9 (m,p) combos: {bad} non-unit sums",
    )


def check_quasi_bernoulli(quick: bool = False) -> CheckResult:
    L = 7 if quick else 10
    bad = 0
    for m in (3, 4, 5):
        tree = words.word_tree(m, L)  # one per order, one pass for the three p
        bad += sum(map(len, measure.quasi_bernoulli_check(tree, P_GRID)))
    return CheckResult(
        "quasi-bernoulli",
        bad == 0,
        f"pairs to total length {L}, 9 (m,p) combos: {bad} violations",
    )


def check_pullback_bounds(quick: bool = False) -> CheckResult:
    L = kmax = 5 if quick else 8
    bad = 0
    for m in (3, 4, 5):
        tree = words.word_tree(m, L)  # one per order, one pass for the three p
        bad += sum(map(len, measure.pullback_bounds_check(tree, P_GRID, kmax)))
    return CheckResult(
        "pullback-bounds",
        bad == 0,
        f"|w| <= {L}, k <= {kmax}, 9 (m,p) combos: {bad} violations",
    )


def check_non_invariance(quick: bool = False) -> CheckResult:
    """Pulling [0^{m-2}1] back one shift changes its exact measure."""
    bad = []
    for m in (3, 4, 5):
        for p in (Fraction(1, 3), Fraction(2, 3)):
            meas = measure.bernoulli(m, p)
            w = "0" * (m - 2) + "1"
            pulled = measure.pullback_cylinder(meas, w, 1)
            direct = measure.mu_recursive(meas, w)
            expected = p ** (m - 1) + p ** (m - 2) * (1 - p) ** 2
            if pulled != expected or pulled == direct:
                bad.append((m, p))
    return CheckResult(
        "non-invariance-witness",
        not bad,
        f"m in (3,4,5), p in (1/3,2/3): {len(bad)} failures",
    )


def check_lambda_triple(quick: bool = False) -> CheckResult:
    """Closed form, stationary chain and Cesaro averages all agree."""
    n_cesaro = 2000 if quick else 10_000
    problems = []
    for m in (3, 4, 5):
        for p in LAMBDA_P_GRID:
            closed = dimension.f_m(m, p)
            pi0 = markov.digit_mass(m, p, 0)
            if pi0 != closed:
                problems.append(f"stationary m={m} p={p}")
            ces = measure.cesaro_lambda(measure.bernoulli(m, p), "0", n_cesaro)
            if abs(ces - float(closed)) > 1e-3:
                problems.append(f"cesaro m={m} p={p}")
            try:
                measure.pullback_numerators(measure.bernoulli(m, p), 20)
            except measure.PullbackRecurrenceError:
                problems.append(f"recurrence m={m} p={p}")
    return CheckResult(
        "lambda0-triple-agreement",
        not problems,
        f"12 (m,p) combos, cesaro n={n_cesaro}: "
        + ("; ".join(problems) if problems else "exact + 1e-3 agreement"),
    )


def check_g_bound(quick: bool = False) -> CheckResult:
    import numpy as np
    points = 1000 if quick else 10_000
    worst = 0.0
    bad = 0
    grid = np.arange(1, points) / points  # i / points, 0 < i < points
    for m in range(3, 21):
        v = np.abs(dimension.g_m(m, grid)) * m
        worst = max(worst, float(v.max()))
        bad += int(np.count_nonzero(v > 1.0))
    return CheckResult(
        "g-bound",
        bad == 0,
        f"m in 3..20, {points}-point grid: max m*|g_m| = {worst:.6f}",
    )


def check_root_quality(quick: bool = False) -> CheckResult:
    m_max = 20 if quick else 50
    problems = []
    for p in (0.3, 0.4, 0.6):
        for m in range(3, m_max + 1):
            if not 1.0 / m < p < 1.0 - 1.0 / m:
                continue
            q = dimension.solve_qm(m, p)
            if abs(dimension.f_m(m, q) - p) > 1e-12:
                problems.append(f"residual m={m} p={p}")
            if abs(q - p) > 1.0 / m:
                problems.append(f"|q-p| m={m} p={p}")
    if abs(dimension.solve_qm(3, 0.4) - 0.2) > 1e-12:
        problems.append("q(3, 0.4) != 0.2")
    return CheckResult(
        "root-quality",
        not problems,
        f"m <= {m_max}, p in (0.3,0.4,0.6): "
        + ("; ".join(problems) if problems else "residual <= 1e-12, |q-p| <= 1/m"),
    )


def check_entropy_convergence(quick: bool = False) -> CheckResult:
    del quick
    p = 0.3
    ms = (10, 20, 50, 100)
    bounds = [dimension.lower_bound(m, p, dimension.solve_qm(m, p)) for m in ms]
    monotone = all(b2 >= b1 - 1e-12 for b1, b2 in zip(bounds, bounds[1:]))
    h = dimension.entropy_binary(p)
    close = abs(bounds[-1] - h) <= 0.05
    return CheckResult(
        "entropy-convergence",
        monotone and close,
        f"bounds {', '.join(f'{b:.6f}' for b in bounds)} vs h(0.3) = {h:.6f}",
    )


def _ergodic_run(quick: bool, path: list | None = None) -> markov.SampleRun:
    """The seeded path of checks 12, 13 and 15.

    `path` is a list that one `run_suite` call shares among those checks:
    the first draw is kept in it, and later calls return that draw.
    """
    if path:
        return path[0]
    n = 100_000 if quick else 1_000_000
    run = markov.sample(3, 0.2, n, ERGODIC_SEED)
    if path is not None:
        path.append(run)
    return run


def check_ergodic_frequency(
    quick: bool = False, path: list | None = None
) -> CheckResult:
    run = _ergodic_run(quick, path)
    band = 0.0064 if quick else 0.002
    freq = run.freq0()
    ok = abs(freq - 0.4) <= band
    return CheckResult(
        "ergodic-frequency",
        ok,
        f"m=3 q=0.2 n={run.n} seed={run.seed}: freq0 = {freq:.6f} "
        f"(target 0.4 +/- {band})",
    )


def check_local_dimension(quick: bool = False, path: list | None = None) -> CheckResult:
    run = _ergodic_run(quick, path)
    final = markov.final_local_dimension(run, 0.2)
    bound = dimension.lower_bound(3, 0.4, 0.2)
    ok = final >= bound - 0.01
    return CheckResult(
        "local-dimension",
        ok,
        f"final estimate {final:.6f} vs bound {bound:.6f} - 0.01",
    )


def _interior_run_above_first(s: str) -> bool:
    """True iff a run of s other than its last is longer than its leading run.

    With f the leading run's length, such a run holds f + 1 equal symbols
    in s.rstrip(s[-1]), the window without its last run.
    """
    longer = len(s) - len(s.lstrip(s[0])) + 1
    body = s.rstrip(s[-1])
    return "0" * longer in body or "1" * longer in body


def check_gamma_construction(quick: bool = False) -> CheckResult:
    """Embedded admissible samples stay clean; clean windows have bounded runs."""
    n_samples = 10 if quick else 100
    sample_len = 2000 if quick else 10_000
    depth = 200 if quick else 1000
    window_len = 12 if quick else 16
    problems = []

    for seed, run in enumerate(markov.samples(3, 0.5, sample_len, range(n_samples))):
        win = univoque.theta_embed(run.m, run.word)
        verdict = univoque.gamma_check_prefix(win, depth)
        if verdict.status != univoque.CLEAN_TO_DEPTH:
            problems.append(f"seed {seed} violated at k={verdict.k}")

    clean = 0
    for s in univoque.clean_windows(window_len):  # all 2**window_len, pruned
        clean += 1
        if _interior_run_above_first(s):
            first = len(s) - len(s.lstrip(s[0]))
            problems.append(f"window {s} has an interior run above {first}")
    return CheckResult(
        "gamma-construction",
        not problems,
        f"{n_samples} embedded samples clean to depth {depth}; "
        f"{clean}/{1 << window_len} length-{window_len} windows clean, "
        f"runs bounded by the leading run"
        + ("; " + "; ".join(problems[:3]) if problems else ""),
    )


def check_determinism(quick: bool = False, path: list | None = None) -> CheckResult:
    """Re-running the seeded pieces reproduces them bit for bit.

    One fresh draw of the seeded path is compared with the draw kept in
    `path`, or with a second fresh draw when there is none.
    """
    import numpy as np
    run1 = _ergodic_run(quick, path)
    run2 = _ergodic_run(quick)
    same_bits = bool(np.array_equal(run1.packed_bits, run2.packed_bits))
    ces1 = measure.cesaro_lambda(measure.bernoulli(3, Fraction(1, 3)), "0", 500)
    ces2 = measure.cesaro_lambda(measure.bernoulli(3, Fraction(1, 3)), "0", 500)
    ok = same_bits and ces1 == ces2
    return CheckResult(
        "determinism",
        ok,
        "repeated seeded sample and repeated Cesaro evaluation are identical"
        if ok
        else "re-run produced different output",
    )


CHECKS = (
    ("1", check_subadditivity),
    ("2", check_counting_bound),
    ("3", check_closed_vs_recursive),
    ("4", check_normalization),
    ("5", check_quasi_bernoulli),
    ("6", check_pullback_bounds),
    ("7", check_non_invariance),
    ("8", check_lambda_triple),
    ("9", check_g_bound),
    ("10", check_root_quality),
    ("11", check_entropy_convergence),
    ("12", check_ergodic_frequency),
    ("13", check_local_dimension),
    ("14", check_gamma_construction),
    ("15", check_determinism),
)


# the checks that read `_ergodic_run`'s path: within one `run_suite` call
# the first of them draws it and the others reuse that draw; check 15 draws
# it once more to compare
ERGODIC_CHECKS = ("12", "13", "15")


# the checks that the full suite runs in one forked child while the caller
# runs the other eleven.  On a 2-core x86-64 VM, in one process (medians of
# 21 rounds, check by check, two runs), check 14 takes 27.5-39.1 ms and
# checks 1, 2 and 6 8.5-11.0 ms together, of a 77.0-101.2 ms suite; the
# caller's 39.4-52.4 ms hold 22.0-30.1 ms of checks 12 and 15, each one
# 10**6-symbol draw.  The child also pays the fork (about 2 ms).  Over 41
# rounds alternating four splits (two runs), this one was the fastest in
# 21 and 18, against 4-11 each for (1, 2, 14), (2, 6, 14) and
# (1, 2, 5, 6, 14).  Checks 12, 13 and 15 stay in the caller and share the
# one draw in `path`.
FORKED_CHECKS = ("1", "2", "6", "14")


def _run_checks(nums, quick: bool, path: list) -> list[tuple[str, CheckResult]]:
    return [
        (num, fn(quick, path) if num in ERGODIC_CHECKS else fn(quick))
        for num, fn in CHECKS
        if num in nums
    ]


def _fork_pays(quick: bool) -> bool:
    """Fork for the full suite only, where os.fork exists and 2 CPUs are usable;
    a fork costs 4-15 ms, about what the quick suite's forked checks take."""
    if quick or not hasattr(os, "fork"):
        return False
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (cpus or 1) >= 2


def _send_and_exit(read_fd: int, write_fd: int, quick: bool) -> NoReturn:
    """The child's side: run FORKED_CHECKS, pickle (True, results) or
    (False, exception) down the pipe, and end without unwinding the caller."""
    try:
        os.close(read_fd)
        try:
            sent = pickle.dumps((True, _run_checks(FORKED_CHECKS, quick, [])))
        except BaseException as exc:  # the caller re-raises it
            sent = pickle.dumps((False, exc))
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(sent)
    finally:
        os._exit(0)


def run_suite(quick: bool = False) -> list[tuple[str, CheckResult]]:
    """Every check in CHECKS order; the full suite runs FORKED_CHECKS in a
    forked child when `_fork_pays`, with the same results."""
    path: list = []  # dropped on return, so no call sees another's draw
    every = [num for num, _ in CHECKS]
    if not _fork_pays(quick):
        return _run_checks(every, quick, path)
    read_fd, write_fd = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns on forking with threads alive (numpy's BLAS
            # pool, which OpenBLAS shuts down around a fork)
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:  # no process to spare: run every check here
        os.close(read_fd)
        os.close(write_fd)
        return _run_checks(every, quick, path)
    if pid == 0:
        _send_and_exit(read_fd, write_fd, quick)
    os.close(write_fd)
    try:
        results = _run_checks([n for n in every if n not in FORKED_CHECKS], quick, path)
    finally:  # reap the child also when a check here raised
        try:
            with os.fdopen(read_fd, "rb") as pipe:
                sent = pipe.read()
        finally:
            os.waitpid(pid, 0)
    if not sent:
        raise RuntimeError(f"checks {', '.join(FORKED_CHECKS)} sent no result")
    ok, payload = pickle.loads(sent)
    if not ok:
        raise payload
    return sorted(results + payload, key=lambda item: every.index(item[0]))


def format_report(results: list[tuple[str, CheckResult]]) -> str:
    lines = []
    for num, res in results:
        status = "PASS" if res.passed else "FAIL"
        lines.append(f"{status}  {num:>2}  {res.name}: {res.detail}")
    failed = sum(1 for _, r in results if not r.passed)
    lines.append(f"{len(results) - failed}/{len(results)} checks passed")
    return "\n".join(lines)
