"""Seeded query streams for the three workloads.

The seed only generates inputs; the program receives nothing but argv.
Query streams are made of blocks.  Each block holds a fixed number of
queries of each kind, and their sizes (m, n, k, window length) take one
value in each of as many equal slices of each range as the block has
queries of that kind, on a sequence that is the same for every seed.  In
`exact-deep` p = a/b of the pullbacks and `lambda` queries is a size too:
b sets the size of exact values, and a moves the cost at a fixed b.  The
seed draws everything else: the other values of p, the words, the sampler
seeds, the periodic sequences, the dims ranges and the order of the
queries.  So every seed gives other inputs with the same mix of work, and
a run's percentiles do not hinge on which seed it got.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Iterator

NAMES = ("gate", "horizon", "exact-deep")


@dataclass(frozen=True)
class Query:
    """One `rllshift` invocation, with the inputs its oracle needs."""

    kind: str
    argv: tuple[str, ...]
    params: dict = field(default_factory=dict, compare=False)


GOLDEN = (5**0.5 - 1) / 2


def _grid(count: int, block: int) -> list[tuple[float, float]]:
    """`count` points in [0, 1)^2, one in each of `count` equal slices.

    The offset inside the slices steps by the golden ratio from block to
    block, the same for every seed, so a run's sizes fill the ranges evenly
    and its latency percentiles do not jump between a few grid values.
    The second axis is rotated by half a turn, so the largest sizes of the
    two never pair up.
    """
    offset = (0.5 + block * GOLDEN) % 1.0
    u = [(i + offset) / count for i in range(count)]
    shift = (count + 1) // 2
    return list(zip(u, u[shift:] + u[:shift]))


def _log_int(u: float, lo: int, hi: int) -> int:
    return int(round(lo * (hi / lo) ** u))


def _int(u: float, lo: int, hi: int) -> int:
    return lo + min(int(u * (hi - lo + 1)), hi - lo)


def _ratio(rng: random.Random) -> tuple[int, int]:
    """p = a/b in lowest terms with 2 <= b <= 10."""
    while True:
        b = rng.randint(2, 10)
        a = rng.randint(1, b - 1)
        if math.gcd(a, b) == 1:
            return a, b


def _numerator(b: int, slot: int) -> int:
    """The `slot`-th numerator a < b coprime to b, cyclically.

    An exact query's cost swings by up to 1.6x with a at a fixed b, m and
    size, so a is a size too, the same for every seed.
    """
    coprime = [a for a in range(1, b) if math.gcd(a, b) == 1]
    return coprime[slot % len(coprime)]


def _denominators(count: int, block: int) -> list[int]:
    """`count` denominators in 2..10, the same for every seed.

    The size of exact values grows with log b, so b is a size like m and
    k: it steps through 2..10 from query to query, and the start moves on
    by one more than `count` per block, so the pairing of b with the other
    sizes changes from block to block.
    """
    return [2 + (block * (count + 1) + i) % 9 for i in range(count)]


def _admissible_word(rng: random.Random, m: int, length: int) -> str:
    """Random word whose runs are 1..m-1 long, cut to `length`."""
    parts = []
    total = 0
    sym = rng.choice("01")
    while total < length:
        run = rng.randint(1, m - 1)
        parts.append(sym * run)
        total += run
        sym = "1" if sym == "0" else "0"
    return "".join(parts)[:length]


def _max_rotation(u: str) -> str:
    return max(u[i:] + u[:i] for i in range(len(u)))


def _lambda(m: int, a: int, b: int, n: int) -> Query:
    argv = ("lambda", "--m", str(m), "--p", f"{a}/{b}", "--n", str(n))
    return Query("lambda", argv, {"m": m, "a": a, "b": b, "n": n})


def horizon_block(rng: random.Random, block: int, tiny: bool = False) -> list[Query]:
    """20 queries: 3 lambda, 10 sample, 2 gamma window/periodic pairs, 3 dims.

    The counts are a choice: nothing records how the commands are used.
    They are set so the load matches the reference figures for this
    workload in README.md (24-31 s per 100 queries, p90 0.68-0.85 s).
    """
    scale = 100 if tiny else 1
    out: list[Query] = []
    for um, un in _grid(3, block):
        a, b = _ratio(rng)
        out.append(_lambda(_int(um, 3, 12), a, b, _log_int(un, 10_000, 100_000) // scale))
    for um, un in _grid(10, block):
        m = _int(um, 3, 12)
        n = _log_int(un, 100_000, 1_000_000) // scale
        p = f"{rng.uniform(0.15, 0.85):.2f}"
        seed = rng.randrange(2**32)
        argv = ("sample", "--m", str(m), "--p", p, "--n", str(n), "--seed", str(seed), "--format", "json")
        out.append(Query("sample", argv, {"m": m, "p": float(p), "n": n, "seed": seed}))
    for ulen, _ in _grid(2, block):
        # near-periodic: a prefix of pre + period^inf with the period at its
        # largest rotation, so most shifts stay clean and depth = length-1
        # is the quadratic case
        period = _max_rotation("".join(rng.choice("01") for _ in range(rng.randint(1, 8))))
        pre = "1" * rng.randint(0, 3)
        length = _int(ulen, 500, 3000) // (10 if tiny else 1)
        reps = length // len(period) + 1
        window = (pre + period * reps)[:length]
        pair = rng.randrange(2**63)
        seq = {"pre": pre, "period": period, "pair": pair}
        out.append(
            Query("gamma-w", ("gamma-check", "--w", window, "--depth", str(length - 1)),
                  {**seq, "window": window, "depth": length - 1})
        )
        out.append(Query("gamma-periodic", ("gamma-check", "--periodic", f"{pre}:{period}"), seq))
    for _ in range(3):
        lo = rng.randint(3, 10)
        hi = lo + rng.randint(5, 30) // (10 if tiny else 1)
        ps = sorted({f"{rng.uniform(0.05, 0.95):.3f}" for _ in range(3)})
        argv = ("dims", "--m", f"{lo}:{hi}", "--p", ",".join(ps))
        out.append(Query("dims", argv, {"ms": list(range(lo, hi + 1)), "ps": [float(p) for p in ps]}))
    _shuffle_keeping_pairs(rng, out)
    return out


def exact_deep_block(rng: random.Random, block: int, tiny: bool = False) -> list[Query]:
    """20 queries: 6 pullbacks, 9 lambda, 4 counts, 1 exact cylinder measure.

    The counts are a choice, set like those of `horizon_block` so the load
    matches the reference figures in README.md (20-25 s per 100 queries,
    p90 0.46-0.61 s).  With the sizes below, equal counts give only about
    13 s per 100 queries and p90 0.35 s.
    """
    out: list[Query] = []
    for i, ((uk, um), b) in enumerate(zip(_grid(6, block), _denominators(6, block))):
        m = _int(um, 3, 8)
        k = _log_int(uk, 100, 3000) // (30 if tiny else 1)
        a = _numerator(b, block * 7 + i)
        w = _admissible_word(rng, m, rng.randint(1, 8))
        argv = ("measure", "--m", str(m), "--p", f"{a}/{b}", "--w", w, "--k", str(k))
        out.append(Query("measure-k", argv, {"m": m, "a": a, "b": b, "w": w, "k": k}))
    for i, ((um, un), b) in enumerate(zip(_grid(9, block), _denominators(9, block))):
        a = _numerator(b, block * 11 + i)
        m = _int(um, 15, 35) if not tiny else _int(um, 5, 8)
        out.append(_lambda(m, a, b, _log_int(un, 100, 1000)))
    for un, um in _grid(4, block):
        m = _int(um, 3, 8)
        n = _log_int(un, 1000, 20_000) // (20 if tiny else 1)
        argv = ("enumerate", "--m", str(m), "--n", str(n), "--count-only")
        out.append(Query("enumerate", argv, {"m": m, "n": n}))
    for ul, _ in _grid(1, block):
        m = rng.randint(3, 8)
        a, b = _ratio(rng)
        w = _admissible_word(rng, m, _log_int(ul, 100, 4000) // (10 if tiny else 1))
        argv = ("measure", "--m", str(m), "--p", f"{a}/{b}", "--w", w)
        out.append(Query("measure-w", argv, {"m": m, "a": a, "b": b, "w": w}))
    rng.shuffle(out)
    return out


def _shuffle_keeping_pairs(rng: random.Random, queries: list[Query]) -> None:
    """Shuffle, keeping each gamma --periodic query right after its window."""
    units: list[list[Query]] = []
    for q in queries:
        if q.kind == "gamma-periodic":
            units[-1].append(q)
        else:
            units.append([q])
    rng.shuffle(units)
    queries[:] = [q for unit in units for q in unit]


_QUICK = Query("verify-quick", ("verify", "--quick"))
GATE_ROUND = (_QUICK, _QUICK, Query("verify", ("verify",)), _QUICK, _QUICK)


# blocks in every run at least: 100 queries, so a 90th percentile has 10
# samples beyond it; one gate round, whose full verify takes about 16 s
MIN_BLOCKS = {"gate": 1, "horizon": 5, "exact-deep": 5}
# seconds one block takes on the VM in README.md
NOMINAL_BLOCK_S = {"gate": 22.0, "horizon": 6.5, "exact-deep": 4.5}


def block_count(name: str, seconds: float) -> int:
    """Blocks in a run: as many as fit in `seconds` at the nominal pace,
    and at least the minimum.  It depends on the workload and `seconds`
    alone, never on how fast the machine happens to be, so every run of a
    seed performs the same operations."""
    return max(MIN_BLOCKS[name], int(seconds / NOMINAL_BLOCK_S[name]))


def stream(name: str, seed: int, tiny: bool = False) -> Iterator[list[Query]]:
    """The endless stream of query blocks of a workload.

    A run takes whole blocks, so every run holds the same mix.
    A `gate` block is two `verify --quick` runs, `verify`, then two more
    quick runs.  The ratio is a measuring device, not a claim about use:
    with four quick runs per full one, the median invocation is the
    middle quick run and the 90th percentile the full gate.  `gate` has no
    seeded input.  `tiny` shrinks every size for smoke tests, and the gate
    to one quick verify.
    """
    if name == "gate":
        return itertools.repeat(list(GATE_ROUND[:1] if tiny else GATE_ROUND))
    make = {"horizon": horizon_block, "exact-deep": exact_deep_block}[name]
    rng = random.Random(f"{name}:{seed}")
    return (make(rng, i, tiny) for i in itertools.count())
