"""The run-state Markov chain whose path law is the cylinder measure.

States are (last digit, current run length).  The chain gives a second,
fully independent route to the invariant measure: its exact stationary
distribution must reproduce the closed form for lambda_p[0], and seeded
sample paths drive the Birkhoff-frequency and local-dimension estimators.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .words import Word, _check_order, is_admissible_symbols, symbols_of


class RunState(NamedTuple):
    digit: int
    run: int


@dataclass(frozen=True)
class ChainSpec:
    """Transition kernel over run states, plus the initial distribution."""

    m: int
    p: Fraction | float
    states: tuple[RunState, ...]
    # state -> ((emitted digit, next state, probability), ...)
    kernel: dict[RunState, tuple[tuple[int, RunState, object], ...]]
    init: tuple[tuple[RunState, object], ...]


def build_chain(m: int, p) -> ChainSpec:
    """Kernel: free states split p/(1-p); a maximal run forces the flip."""
    _check_order(m)
    if not 0 < p < 1:
        raise ValueError(f"p must lie in (0,1), got {p}")
    q = 1 - p
    states = tuple(RunState(d, r) for d in (0, 1) for r in range(1, m))
    kernel: dict[RunState, tuple] = {}
    for st in states:
        d, r = st
        if r == m - 1:
            kernel[st] = ((1 - d, RunState(1 - d, 1), p**0),)
        else:
            stay = p if d == 0 else q
            kernel[st] = (
                (d, RunState(d, r + 1), stay),
                (1 - d, RunState(1 - d, 1), 1 - stay),
            )
    init = ((RunState(0, 1), p), (RunState(1, 1), q))
    return ChainSpec(m, p, states, kernel, init)


def path_measure(chain: ChainSpec, w: Word | str):
    """Product of transition probabilities along w; equals the cylinder measure."""
    s = symbols_of(w)
    val = chain.p**0
    state = None
    for c in s:
        sym = int(c)
        if state is None:
            val = val * dict(chain.init)[RunState(sym, 1)]
            state = RunState(sym, 1)
            continue
        step = {digit: (nxt, prob) for digit, nxt, prob in chain.kernel[state]}
        if sym not in step:
            return val * 0
        nxt, prob = step[sym]
        val = val * prob
        state = nxt
    return val


# ---------------------------------------------------------------------------
# stationary distribution (exact for a Fraction p)


def _solve_linear(rows: list[list], rhs: list) -> list:
    """Gaussian elimination with partial (nonzero) pivoting, in the entries' type."""
    n = len(rows)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise RuntimeError("singular stationary system (chain bug)")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


def stationary(chain: ChainSpec) -> dict[RunState, Fraction | float]:
    """The unique probability vector fixed by the kernel, in the number type of p."""
    if not is_irreducible(chain):
        raise RuntimeError("chain is not irreducible")
    states = chain.states
    index = {st: i for i, st in enumerate(states)}
    n = len(states)
    zero, one = chain.p * 0, chain.p**0
    # pi (P - I) = 0 with the last equation replaced by sum(pi) = 1
    rows = [[zero] * n for _ in range(n)]
    for st in states:
        for _, nxt, prob in chain.kernel[st]:
            rows[index[nxt]][index[st]] += prob
    for i in range(n):
        rows[i][i] -= one
    rows[n - 1] = [one] * n
    rhs = [zero] * (n - 1) + [one]
    sol = _solve_linear(rows, rhs)
    return {st: sol[index[st]] for st in states}


def digit_mass(dist: dict[RunState, Fraction | float], digit: int):
    """Total stationary mass on states carrying the given last digit."""
    return sum(v for st, v in dist.items() if st.digit == digit)


def is_irreducible(chain: ChainSpec) -> bool:
    reach = {chain.states[0]}
    frontier = [chain.states[0]]
    while frontier:
        st = frontier.pop()
        for _, nxt, _prob in chain.kernel[st]:
            if nxt not in reach:
                reach.add(nxt)
                frontier.append(nxt)
    return reach == set(chain.states)


def chain_period(chain: ChainSpec) -> int:
    """gcd of closed-walk lengths, via BFS levels on the transition graph."""
    start = chain.states[0]
    level = {start: 0}
    frontier = [start]
    g = 0
    edges = []
    while frontier:
        nxt_frontier = []
        for st in frontier:
            for _, nxt, _prob in chain.kernel[st]:
                edges.append((st, nxt))
                if nxt not in level:
                    level[nxt] = level[st] + 1
                    nxt_frontier.append(nxt)
        frontier = nxt_frontier
    for u, v in edges:
        g = math.gcd(g, level[u] + 1 - level[v])
    return g


# ---------------------------------------------------------------------------
# sampling


@dataclass(frozen=True)
class SampleRun:
    """A seeded path of the chain with its running statistics.

    Regenerating with the same (seed, n) reproduces the word bit for bit:
    the generator is counter-based (Philox) keyed by the seed.
    """

    m: int
    p: float
    seed: int
    n: int
    bits: np.ndarray  # uint8, 0/1 symbols

    @property
    def word(self) -> str:
        return "".join("01"[b] for b in self.bits)

    def zeros_prefix(self) -> np.ndarray:
        """Cumulative count of 0's over prefixes (length n)."""
        return np.cumsum(self.bits == 0)

    def freq0(self) -> float:
        return float(np.count_nonzero(self.bits == 0)) / self.n

    def frequency_series(self) -> np.ndarray:
        return self.zeros_prefix() / np.arange(1, self.n + 1)


def sample(chain: ChainSpec, n: int, seed: int) -> SampleRun:
    """Draw a length-n admissible word from the path law, deterministically."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    m = chain.m
    p = float(chain.p)
    rng = np.random.Generator(np.random.Philox(key=seed))
    u = rng.random(n)
    bits = np.empty(n, dtype=np.uint8)
    digit = 0 if u[0] < p else 1
    run = 1
    bits[0] = digit
    for i in range(1, n):
        # a maximal run forces the flip; a free state stays with mass p or 1-p
        if run < m - 1 and u[i] < (p if digit == 0 else 1.0 - p):
            run += 1
        else:
            digit, run = 1 - digit, 1
        bits[i] = digit
    return SampleRun(m, p, seed, n, bits)


def log_measure_increments(run: SampleRun, q: float) -> np.ndarray:
    """-log of the per-symbol measure factor of the path, at parameter q.

    Forced positions (the preceding run is maximal) contribute 0.
    """
    if not 0 < q < 1:
        raise ValueError(f"q must lie in (0,1), got {q}")
    bits = run.bits
    out = np.where(bits == 0, -math.log(q), -math.log(1.0 - q))
    # run j covers edges[j] <= i < edges[j+1]; the symbol after its
    # (m-1)-th one is forced.  `out` comes before these temporaries: with
    # glibc malloc the other order left 8 MiB more peak resident memory
    # after a mix of 1e5- to 1e6-symbol runs.
    edges = np.flatnonzero(np.diff(bits, prepend=bits[0] ^ 1, append=bits[-1] ^ 1))
    forced = edges[:-1][np.diff(edges) >= run.m - 1] + (run.m - 1)
    out[forced[forced < run.n]] = 0.0
    return out


def empirical_local_dimension(run: SampleRun, q: float) -> np.ndarray:
    """Series n -> -log mu_q[w|_n] / (n log 2) along the sampled path."""
    inc = log_measure_increments(run, q)
    cum = np.cumsum(inc)
    return cum / (np.arange(1, run.n + 1) * math.log(2.0))


def sampled_word(run: SampleRun) -> Word:
    w = Word(run.word, run.m)
    assert is_admissible_symbols(run.m, w.symbols)
    return w
