"""The run-state Markov chain whose path law is the cylinder measure.

States are (last digit, current run length).  The chain gives a second,
fully independent route to the invariant measure: its exact stationary
distribution must reproduce the closed form for lambda_p[0], and seeded
sample paths drive the Birkhoff-frequency and local-dimension estimators.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .words import _check_order


class RunState(NamedTuple):
    digit: int
    run: int


@dataclass(frozen=True)
class ChainSpec:
    """Transition kernel over run states."""

    m: int
    p: Fraction | float
    states: tuple[RunState, ...]
    # state -> ((emitted digit, next state, probability), ...)
    kernel: dict[RunState, tuple[tuple[int, RunState, object], ...]]


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
    return ChainSpec(m, p, states, kernel)


# ---------------------------------------------------------------------------
# stationary distribution (exact for a Fraction p)


def stationary(chain: ChainSpec) -> dict[RunState, Fraction | float]:
    """The unique probability vector fixed by the kernel, in the number type of p.

    Regeneration (Kac 1947): every cycle of the chain passes through the
    first state r = (0, 1), so pi(x) = v(x) / sum(v), where v(x) is the
    expected number of visits to x in one excursion from r and v(r) = 1.
    In `build_chain`'s order the edges (d, k) -> (d, k+1) and
    (0, k) -> (1, 1) point forward and (1, k) -> (0, 1) points back into r;
    without the edges into r the order is topological, so one forward pass
    adding v(x) * prob along each edge x -> y, y != r, gives v.  Any other
    backward edge closes a cycle that avoids r and raises RuntimeError.
    """
    if not is_irreducible(chain):
        raise RuntimeError("chain is not irreducible")
    first = chain.states[0]
    index = {st: i for i, st in enumerate(chain.states)}
    visits = {st: chain.p * 0 for st in chain.states}
    visits[first] = chain.p**0
    for i, st in enumerate(chain.states):
        for _, nxt, prob in chain.kernel[st]:
            if nxt == first:
                continue
            if index[nxt] <= i:
                raise RuntimeError(f"edge {st} -> {nxt} makes a cycle avoiding {first}")
            visits[nxt] += visits[st] * prob
    total = sum(visits.values())
    return {st: v / total for st, v in visits.items()}


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
        return (self.bits + 48).tobytes().decode("ascii")

    def freq0(self) -> float:
        return float(np.count_nonzero(self.bits == 0)) / self.n

    def frequency_series(self) -> np.ndarray:
        return np.cumsum(self.bits == 0) / np.arange(1, self.n + 1)


BLOCK = 8  # symbols per table lookup in `sample`
_POW3 = 3 ** np.arange(BLOCK)
_SLICE = 4096 * BLOCK  # symbols per batch of block work, to bound the temporaries


@functools.lru_cache(maxsize=1)
def _block_table(m: int, favoured: int) -> tuple[tuple[int, ...], bytes, np.ndarray]:
    """One block of BLOCK steps of the chain, for every run state and block code.

    A state (digit, run) is the integer x = 2*run + digit.  Symbol j of a
    block has a class c_j in {0, 1, 2}, the number of the tests u < p and
    u < 1-p that hold, and the block the code sum c_j 3**j; a free state
    extends its run when c_j = 2, or when c_j = 1 and its digit is
    `favoured`, and otherwise flips.

    Only the runs >= m-1-BLOCK get a row, the lowest of them standing for
    every shorter run too: such a run cannot reach the cap inside a block,
    so it either extends BLOCK times, to x + 2*BLOCK, or flips, after which
    the block no longer depends on the run.  So there are at most
    2*(BLOCK+1) rows whatever m is.  A block that flips ends on a run of at
    most BLOCK, so the next state fits in a byte, with 0 for "x + 2*BLOCK".
    Returns (row offset of each x, next state, emitted bits as one byte),
    the last two indexed by row offset + code.
    """
    cap = m - 1
    low = max(1, cap - BLOCK)
    per_digit = cap - low + 1
    rows = 2 * per_digit
    d = np.repeat(np.array([0, 1], dtype=np.uint8), per_digit)[:, None]
    # extensions left before the cap, at most BLOCK since no more are taken
    left = np.tile(np.arange(cap - low, -1, -1, dtype=np.int8), 2)[:, None]
    # the run since the last flip in the block; above BLOCK while none
    run = np.full_like(d, BLOCK + 1)
    emitted = np.zeros_like(d)
    cls = np.arange(3, dtype=np.uint8)[:, None]
    left_after_flip = min(cap - 1, BLOCK)
    for _ in range(BLOCK):
        # the class of the next symbol is the leading base-3 digit of the code
        d, left, run, emitted = (a[:, None, :] for a in (d, left, run, emitted))
        stay = (left > 0) & (cls + (d == favoured) >= 2)
        # a flip toggles the digit and restarts the run at 1
        d = d ^ ~stay
        left = np.where(stay, left - 1, left_after_flip)
        run = run * stay + 1
        emitted = 2 * emitted + d
        d, left, run, emitted = (a.reshape(rows, -1) for a in (d, left, run, emitted))
    nxt = np.where(run > BLOCK, 0, 2 * run + d)
    x = np.arange(2 * m)
    row = ((x & 1) * per_digit + np.maximum(x >> 1, low) - low) * 3**BLOCK
    emitted = emitted.ravel()
    emitted.setflags(write=False)
    return tuple(row.tolist()), nxt.tobytes(), emitted


def sample(chain: ChainSpec, n: int, seed: int) -> SampleRun:
    """Draw a length-n admissible word from the path law, deterministically.

    With u = rng.random(n), drawn a slice at a time, symbol 0 is 0 exactly
    when u[0] < p.  Each later symbol i extends the current run when the run
    is below m-1 and u[i] < p (run of 0's) or u[i] < 1.0 - p (run of 1's);
    otherwise it flips the digit.  The walk applies this law BLOCK symbols
    per lookup in `_block_table` and yields the same bits as the per-symbol walk.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    m = chain.m
    p = float(chain.p)
    q = 1.0 - p
    rng = np.random.Generator(np.random.Philox(key=seed))
    bits = np.empty(n, dtype=np.uint8)
    bits[0] = 0 if rng.random() < p else 1
    # class 1 (u below exactly one of p, 1-p) extends only the more likely digit
    row, nxt, emitted = _block_table(m, 0 if p > 0.5 else 1)
    x = 2 + int(bits[0])
    jump = 2 * BLOCK
    for start in range(1, n, _SLICE):
        size = min(_SLICE, n - start)
        # whole blocks: the last one may draw past symbol n-1; those bits are cut off
        u = rng.random(-(-size // BLOCK) * BLOCK)
        cls = (u < p).astype(np.uint8) + (u < q)
        ks = []
        for code in (cls.reshape(-1, BLOCK) @ _POW3).tolist():
            k = row[x] + code
            ks.append(k)
            x = nxt[k] or x + jump
        bits[start : start + size] = np.unpackbits(emitted[ks])[:size]
    return SampleRun(m, p, seed, n, bits)


def _forced_positions(run: SampleRun) -> np.ndarray:
    """Indices of the symbols right after m-1 equal ones; the rest are free."""
    bits = run.bits
    # run j covers edges[j] <= i < edges[j+1]; the symbol after its (m-1)-th one is forced
    edges = np.flatnonzero(np.diff(bits, prepend=bits[0] ^ 1, append=bits[-1] ^ 1))
    forced = edges[:-1][np.diff(edges) >= run.m - 1] + (run.m - 1)
    return forced[forced < run.n]


def _local_dimension(n0, n1, n, q: float):
    """-log(q**n0 (1-q)**n1) / (n log 2), the same bits for scalars and arrays."""
    if not 0 < q < 1:
        raise ValueError(f"q must lie in (0,1), got {q}")
    return (n0 * -math.log(q) + n1 * -math.log(1.0 - q)) / (n * math.log(2.0))


def empirical_local_dimension(run: SampleRun, q: float) -> np.ndarray:
    """Series n -> -log mu_q[w|_n] / (n log 2) along the sampled path.

    mu_q[w] = q**N0 (1-q)**N1, N0 and N1 counting the 0's and 1's of w at free
    positions.  Error model: the counts are exact, so each value is within
    about four roundings (two products, a sum, a quotient), under 1e-15
    relative at any n, of the exactly rounded per-symbol sum over n log 2.
    """
    free = np.ones(run.n, dtype=bool)
    free[_forced_positions(run)] = False
    n1 = np.cumsum(free & (run.bits == 1))
    return _local_dimension(np.cumsum(free) - n1, n1, np.arange(1, run.n + 1), q)


def final_local_dimension(run: SampleRun, q: float) -> float:
    """The last value of `empirical_local_dimension`, bit for bit, from two counts."""
    forced = run.bits[_forced_positions(run)]
    n1 = np.count_nonzero(run.bits) - np.count_nonzero(forced)
    return _local_dimension(run.n - len(forced) - n1, n1, run.n, q)
