"""One-shot verification suite over every computable claim of the toolkit.

Each check returns a deterministic pass/fail record; the report contains
no timing or other run-to-run noise, so identical configurations produce
byte-identical output.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

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
    """N0(w)+N0(v)-1 <= N0(wv) <= N0(w)+N0(v), same for N1; exhaustive."""
    max_total = 8 if quick else 12
    bad = 0
    pairs = 0
    for m in (3, 4):
        tree = words.word_tree(m, max_total)
        u, w, v = tree.splits
        inner = (w != 0) & (v != 0)  # the split points into non-empty w, v
        u, w, v = u[inner], w[inner], v[inner]
        pairs += len(u)
        for count in (tree.arrays.n0, tree.arrays.n1):
            joined, total = count[u], count[w] + count[v]
            bad += int(np.count_nonzero((total - 1 > joined) | (joined > total)))
    return CheckResult(
        "occurrence-subadditivity",
        bad == 0,
        f"m in (3,4), |w|+|v| <= {max_total}: {pairs} pairs, {bad} violations",
    )


def check_counting_bound(quick: bool = False) -> CheckResult:
    """m|w|_0 <= (m-1)N0(w) + |w| and the digit-1 symmetric bound."""
    max_len = 10 if quick else 14
    bad = 0
    total = 0
    for m in (3, 4, 5):
        a = words.word_tree(m, max_len).arrays
        n, zeros, n0, n1 = (x[1:] for x in (a.depth, a.zeros, a.n0, a.n1))  # non-empty words
        total += len(n)
        bad += int(np.count_nonzero(m * zeros > (m - 1) * n0 + n))
        bad += int(np.count_nonzero(m * (n - zeros) > (m - 1) * n1 + n))
    return CheckResult(
        "occurrence-counting-bound",
        bad == 0,
        f"m in (3,4,5), |w| <= {max_len}: {total} words, {bad} violations",
    )


def check_closed_vs_recursive(quick: bool = False) -> CheckResult:
    """Closed form equals the branching recursion, as numerators over b**|w|.

    Two independent routes: the closed form from the substring counts of
    `occurrence_counts`, the recursion from the word tree's products.
    """
    max_len = 8 if quick else 12
    bad = 0
    total = 0
    for m in (3, 4, 5):
        tree = words.word_tree(m, max_len)
        counts = [words.occurrence_counts(m, s) for s in tree.words]  # substring counts
        for p in P_GRID:
            weights = measure.bernoulli(m, p).weights
            pow0, pow1, powb = ([x**i for i in range(max_len + 1)] for x in weights)
            recursion = tree.numerators(*weights)
            for s, (n0, n1), num in zip(tree.words[1:], counts[1:], recursion[1:]):
                total += 1
                bad += num != pow0[n0] * pow1[n1] * powb[len(s) - n0 - n1]
    return CheckResult(
        "closed-form-vs-recursion",
        bad == 0,
        f"|w| <= {max_len}, 9 (m,p) combos: {total} evaluations, {bad} mismatches",
    )


def check_normalization(quick: bool = False) -> CheckResult:
    """Cylinder masses of each length sum to exactly 1: numerators to b**n."""
    max_len = 8 if quick else 12
    bad = []
    for m in (3, 4, 5):
        tree = words.word_tree(m, max_len)
        for p in P_GRID:
            w0, w1, b = measure.bernoulli(m, p).weights
            nums = tree.numerators(w0, w1, b)
            for n, (lo, hi) in enumerate(zip(tree.starts, tree.starts[1:])):
                if sum(nums[lo:hi]) != b**n:
                    bad.append((m, p, n))
    return CheckResult(
        "normalization",
        not bad,
        f"n <= {max_len}, 9 (m,p) combos: {len(bad)} non-unit sums",
    )


def check_quasi_bernoulli(quick: bool = False) -> CheckResult:
    L = 7 if quick else 10
    bad = 0
    for m in (3, 4, 5):
        tree = words.word_tree(m, L)  # one per order, shared by the three p
        for p in P_GRID:
            meas = measure.bernoulli(m, p)
            bad += len(measure.quasi_bernoulli_check(meas, L, tree=tree))
    return CheckResult(
        "quasi-bernoulli",
        bad == 0,
        f"pairs to total length {L}, 9 (m,p) combos: {bad} violations",
    )


def check_pullback_bounds(quick: bool = False) -> CheckResult:
    L = kmax = 5 if quick else 8
    bad = 0
    for m in (3, 4, 5):
        tree = words.word_tree(m, L)  # one per order, shared by the three p
        for p in P_GRID:
            meas = measure.bernoulli(m, p)
            bad += len(measure.pullback_bounds_check(meas, L, kmax, tree=tree))
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
            chain = markov.build_chain(m, p)
            pi0 = markov.digit_mass(markov.stationary(chain), 0)
            if pi0 != closed:
                problems.append(f"stationary m={m} p={p}")
            ces = measure.cesaro_lambda(measure.bernoulli(m, p), "0", n_cesaro)
            if abs(ces - float(closed)) > 1e-3:
                problems.append(f"cesaro m={m} p={p}")
            try:
                measure.pullback_series(measure.bernoulli(m, p), 20)
            except measure.PullbackRecurrenceError:
                problems.append(f"recurrence m={m} p={p}")
    return CheckResult(
        "lambda0-triple-agreement",
        not problems,
        f"12 (m,p) combos, cesaro n={n_cesaro}: "
        + ("; ".join(problems) if problems else "exact + 1e-3 agreement"),
    )


def check_g_bound(quick: bool = False) -> CheckResult:
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
    chain = markov.build_chain(3, 0.2)
    run = markov.sample(chain, n, ERGODIC_SEED)
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

    chain = markov.build_chain(3, 0.5)
    for seed in range(n_samples):
        run = markov.sample(chain, sample_len, seed)
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
    run1 = _ergodic_run(quick, path)
    run2 = _ergodic_run(quick)
    same_bits = bool(np.array_equal(run1.bits, run2.bits))
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


def run_suite(quick: bool = False) -> list[tuple[str, CheckResult]]:
    path: list = []  # dropped on return, so no call sees another's draw
    return [
        (num, fn(quick, path) if num in ERGODIC_CHECKS else fn(quick))
        for num, fn in CHECKS
    ]


def format_report(results: list[tuple[str, CheckResult]]) -> str:
    lines = []
    for num, res in results:
        status = "PASS" if res.passed else "FAIL"
        lines.append(f"{status}  {num:>2}  {res.name}: {res.detail}")
    failed = sum(1 for _, r in results if not r.passed)
    lines.append(f"{len(results) - failed}/{len(results)} checks passed")
    return "\n".join(lines)
