"""The run-state Markov chain whose path law is the cylinder measure.

States are plain (last digit, current run length) pairs, and the chain
is its kernel dict.  The chain is the stationary route to the invariant
measure, kept apart from `measure`: `digit_mass(m, p, digit)` builds it
and returns lambda_p[digit], which must reproduce the closed form.
Seeded paths of `sample(m, p, n, seed)`, kept as packed bytes, drive the
frequency and dimension estimators.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .words import _check_open_unit, _check_order


def build_chain(m: int, p) -> dict:
    """The kernel over run states (digit, run), in the order (0, 1..m-1),
    (1, 1..m-1): state -> ((next state, probability), ...).  Free states
    split p/(1-p); a maximal run forces the flip.

    The next states are the dict's own key objects, not copies.
    """
    _check_order(m)
    _check_open_unit(p, "p")
    q = 1 - p
    one = p**0
    states = [(d, r) for d in (0, 1) for r in range(1, m)]
    kernel = {}
    for d, stay, flip in ((0, p, q), (1, q, p)):
        runs = states[d * (m - 1) : (d + 1) * (m - 1)]
        restart = states[(1 - d) * (m - 1)]  # (1-d, 1)
        for st, nxt in zip(runs, runs[1:]):
            kernel[st] = ((nxt, stay), (restart, flip))
        kernel[runs[-1]] = ((restart, one),)
    return kernel


# ---------------------------------------------------------------------------
# stationary distribution (exact for a Fraction p)


def _visit_numerators(kernel: dict) -> tuple[list, int | float]:
    """The stationary law of a kernel, state -> ((next state, probability),
    ...), as numerators over their total: pi(x) = visits[i] / total for the
    i-th key x of the kernel, with ints for rational probabilities and
    floats otherwise.

    Regeneration (Kac 1947): every cycle of the chain passes through the
    first state r, so pi(x) = v(x) / sum(v), where v(x) is the expected
    number of visits to x in one excursion from r and v(r) = 1.  If every
    edge x -> y other than those into r points forward in the state order,
    that order is topological without them, and one forward pass adding
    v(x) * prob along each edge x -> y, y != r, gives v.  In `build_chain`'s
    order, r = (0, 1), the edges (d, k) -> (d, k+1) and (0, k) -> (1, 1)
    point forward and (1, k) -> (0, 1) points back into r.  Any other
    backward edge closes a cycle that avoids r and raises RuntimeError.
    A state that no edge from a reached state enters keeps v = None: r
    does not reach it, and the chain is rejected as reducible.  (A reached
    v may underflow to 0.0 in floats, so the test is for None, not 0.)

    With rational probabilities and b the lcm of their denominators, the
    pass holds v of the i-th state as an integer numerator over b**i: an
    edge from the i-th to the j-th state with probability w/b adds the
    numerator times w * b**(j-i-1).  The numerators are put over
    b**(S-1), S states, and summed.  Float probabilities take the same
    pass with b = 1 and w = prob, where every factor b**k is an exact 1.
    """
    states = list(kernel)
    first = states[0]
    index = {st: i for i, st in enumerate(states)}
    # keyed by identity: hashing a Fraction costs about 1 us, an id 30 ns
    probs = {id(prob): prob for edges in kernel.values() for _, prob in edges}
    exact = all(isinstance(prob, (int, Fraction)) for prob in probs.values())
    b = math.lcm(*(prob.denominator for prob in probs.values())) if exact else 1
    weight = {key: prob.numerator * (b // prob.denominator) if exact else prob
              for key, prob in probs.items()}
    visits = [None] * len(states)
    visits[0] = 1 if exact else 1.0  # the total's type tells the callers which
    for i, st in enumerate(states):
        if visits[i] is None:
            continue
        for nxt, prob in kernel[st]:
            if nxt == first:
                continue
            j = index[nxt]
            if j <= i:
                raise RuntimeError(f"edge {st} -> {nxt} makes a cycle avoiding {first}")
            flow = visits[i] * weight[id(prob)] * b ** (j - i - 1)
            visits[j] = flow if visits[j] is None else visits[j] + flow
    if None in visits:
        raise RuntimeError("chain is not irreducible")
    top = len(states) - 1
    visits = [v * b ** (top - i) for i, v in enumerate(visits)]
    return visits, sum(visits)


def digit_mass(m: int, p, digit: int) -> Fraction | float:
    """lambda_p[digit]: the stationary mass of the run states (d, r) of the
    order-m chain with d = digit, in the number type of p.

    A digit other than 0 or 1 raises ValueError, and so do m < 3 and p
    outside (0, 1), with `build_chain`'s messages.  A rational p gives one
    Fraction of the states' summed visit numerators (`_visit_numerators`);
    a float p gives their quotients by the total, added in state order.
    """
    if digit not in (0, 1):
        raise ValueError(f"digit must be 0 or 1, got {digit!r}")
    kernel = build_chain(m, p)
    visits, total = _visit_numerators(kernel)
    mine = [v for (d, _), v in zip(kernel, visits) if d == digit]
    if isinstance(total, int):
        return Fraction(sum(mine), total)
    return sum(v / total for v in mine)


# ---------------------------------------------------------------------------
# sampling


@dataclass(frozen=True)
class SampleRun:
    """A seeded path of the chain with its running statistics.

    Regenerating with the same (seed, n) reproduces the word bit for bit:
    the generator is counter-based (Philox) keyed by the seed.  `forced`
    marks the symbols that end a maximal run of m-1, which the chain flips
    with probability 1; `sample` reads the marks off its block table.

    The path is kept only packed, in np.packbits's layout, one block of
    `sample` a byte: byte j holds symbols 8j, ..., 8j + 7, the first in
    its high bit, and every bit past symbol n-1 is 0.  Its readers unpack
    what they need per call (np.unpackbits with count=n).
    """

    m: int
    p: float
    seed: int
    n: int
    packed_bits: np.ndarray  # uint8, the 0/1 symbols
    packed_forced: np.ndarray  # uint8, bit 1 at the symbol right after m-1 equal ones

    @property
    def word(self) -> str:
        import numpy as np
        digits = np.unpackbits(self.packed_bits, count=self.n)
        digits |= 48  # the ASCII codes of '0' and '1'
        return digits.tobytes().decode("ascii")

    def freq0(self) -> float:
        return float(self.n - _popcount(self.packed_bits)) / self.n


def _popcount(packed: np.ndarray) -> int:
    """The number of 1 bits in a uint8 array."""
    import numpy as np
    return int(np.bitwise_count(packed).sum())


BLOCK = 8  # symbols per table lookup in `sample`
_SLICE = 4096 * BLOCK  # symbols per raw draw, to bound the temporaries
_BATCH = 4 * _SLICE  # symbols per batch of block work
_PAD = 4 * BLOCK  # the most runs below the block table that `sample` lists
_GROUP = 32  # blocks per group of `sample`'s group walk
_GROUP_FROM = 6000  # path symbols per state of the row list, plus one, from which groups pay


@functools.cache
def _block_table(
    k: int,
) -> tuple[tuple[int, ...], tuple[bytes, ...], np.ndarray, np.ndarray]:
    """One block of BLOCK steps of the order-k chain with favoured digit 0,
    for every row and block code; `sample` keys it by min(m, n + 2, BLOCK + 2).

    A state (digit, run) is the integer x = 2*run + digit; a path starts
    at x = 0, a free run of no 0's.  Symbol j of a block has a class c_j
    in {0, 1, 2}, the number of the tests u < p and u < 1-p that hold, and
    the block the code sum c_j 3**j; a free state extends its run when
    c_j = 2, or when c_j = 1 and its digit is 0, the favoured one, and
    otherwise flips.  A state with no extension left flips whatever c_j
    is: that symbol is forced.

    Only the runs >= max(0, k-1-BLOCK) get a row, the lowest of them
    standing for every shorter run too (run 0 at k = BLOCK + 2): such a
    run cannot reach the cap inside a block, so it either extends BLOCK
    times, to x + 2*BLOCK, or flips, after which the block no longer
    depends on the run.  So there are at most 2*(BLOCK+1) rows whatever k
    is.  A block ends on a run of at least 1 and, if it flips, of at most
    BLOCK, so the next state fits in a byte, with 0 for "x + 2*BLOCK".
    Returns (the row of each x < 2*k; per row, the next state of each code
    as bytes; emitted bits as one byte; forced marks as one byte), the last
    two indexed by row * 3**BLOCK + code; both bytes hold the block's first
    symbol in their high bit.  The arrays are read-only: every sample in
    the process shares them.

    Every order m >= BLOCK + 2 gives the tables of k = BLOCK + 2.  A row's
    block reads its run only through the extensions left before the cap,
    m-1 minus the run, and the rows' lefts go from BLOCK down to 0 for
    every such m; a flip leaves min(m-2, BLOCK) = BLOCK; and the next state
    after a flip, 2*run + digit with run <= BLOCK, does not refer to m.
    So the order class min(m, BLOCK + 2) keys the table; `sample` walks
    the runs below the lowest row on that row (see there).

    Favoured digit 1 needs no table of its own: the rule reads the digit d
    only through [d is favoured], so the chain that favours 1 is this one
    with both digits swapped.  Its walk runs on x ^ 1 and complements the
    emitted bits; a swap moves no forced mark.
    """
    import numpy as np
    cap = k - 1
    low = max(0, cap - BLOCK)
    per_digit = cap - low + 1
    rows = 2 * per_digit
    d = np.repeat(np.array([0, 1], dtype=np.uint8), per_digit)[:, None]
    # extensions left before the cap, at most BLOCK since no more are taken
    left = np.tile(np.arange(cap - low, -1, -1, dtype=np.int8), 2)[:, None]
    # the run since the last flip in the block; above BLOCK while none
    run = np.full_like(d, BLOCK + 1)
    emitted = np.zeros_like(d)
    forced = np.zeros_like(d)
    cls = np.arange(3, dtype=np.uint8)[:, None]
    left_after_flip = min(cap - 1, BLOCK)
    for _ in range(BLOCK):
        # the class of the next symbol is the leading base-3 digit of the code
        d, left, run, emitted, forced = (
            a[:, None, :] for a in (d, left, run, emitted, forced)
        )
        stay = (left > 0) & (cls + (d == 0) >= 2)
        # a flip with no extension left is forced
        forced = 2 * forced + (~stay & (left == 0))
        # a flip toggles the digit and restarts the run at 1
        d = d ^ ~stay
        left = np.where(stay, left - 1, left_after_flip)
        run = run * stay + 1
        emitted = 2 * emitted + d
        d, left, run, emitted, forced = (
            a.reshape(rows, -1) for a in (d, left, run, emitted, forced)
        )
    nxt = np.where(run > BLOCK, 0, 2 * run + d).astype(np.uint8)
    x = np.arange(2 * k)
    row = (x & 1) * per_digit + np.maximum(x >> 1, low) - low
    emitted, forced = emitted.ravel(), forced.ravel()
    emitted.setflags(write=False)
    forced.setflags(write=False)
    return tuple(row.tolist()), tuple(map(bytes, nxt)), emitted, forced


@functools.cache
def _byte_codes() -> np.ndarray:
    """The block code sum_j b_j 3**j of each byte b = sum_j b_j 2**j, as uint16."""
    import numpy as np
    bits = np.arange(256)[:, None] >> np.arange(BLOCK) & 1
    return (bits @ 3 ** np.arange(BLOCK)).astype(np.uint16)


def _class_bounds(p: float) -> tuple[np.uint64, np.uint64]:
    """(L, H): for u = (w >> 11) * 2**-53 from a 64-bit word w, u < lo
    exactly when w < L, and u < hi exactly when w <= H, where lo <= hi are
    p and 1.0 - p.

    u < x exactly when w >> 11 < K = ceil(x * 2**53), since x * 2**53 is
    exact and w >> 11 is an integer; that is when w < K << 11, or
    w <= (K << 11) - 1.  lo <= 0.5 <= hi, so the first form fits a uint64
    for lo and the second for hi, also at hi = 1.0 (K = 2**53).
    """
    import numpy as np
    lo, hi = (p, 1.0 - p) if p <= 0.5 else (1.0 - p, p)
    return (np.uint64(math.ceil(lo * 2**53) << 11),
            np.uint64((math.ceil(hi * 2**53) << 11) - 1))


def _plan(m: int, p, n: int) -> tuple:
    """`sample`'s set-up for a walk of n symbols at (m, float(p)), which
    `samples` shares: (float(p), `_class_bounds`' two bounds, swap (1 where
    the walk favours digit 1, on digit 0's table), the row of each state
    of the walk's list, then `_block_table`'s next states, bits and marks,
    pad (the low runs listed in front of the table's rows) and gap (the
    runs below the table's, each taking the lowest row)).  m < 3, float(p)
    outside (0, 1) and n < 1 raise ValueError."""
    _check_order(m)
    p = float(p)
    _check_open_unit(p, "p")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    # class 1 (u below exactly one of p, 1-p) extends only the more likely digit
    swap = 0 if p > 0.5 else 1
    # no run of an n-symbol path reaches n + 1 and the symbols past n-1 are
    # cleared, so every order from n + 2 on gives the same word and marks
    order = min(m, n + 2)
    k = min(order, BLOCK + 2)
    row, nxt, emitted, marks = _block_table(k)
    gap = order - k
    pad = min(gap, _PAD)
    if pad:  # with no wider gap, every state indexes itself
        row = row[:2] * pad + row
    return (p, *_class_bounds(p), swap, row, nxt, emitted, marks, pad, gap)


def _codes(draw, blocks: int, below_lo: np.uint64, upto_hi: np.uint64) -> np.ndarray:
    """The codes of a path's next `blocks` blocks, from one raw draw, as
    uint16, by the class bounds of `_class_bounds`."""
    import numpy as np
    w = draw(blocks * BLOCK)
    byte_codes = _byte_codes()
    codes = byte_codes[np.packbits(w < below_lo, bitorder="little")]
    codes += byte_codes[np.packbits(w <= upto_hi, bitorder="little")]
    return codes


def _bits_and_marks(rows: np.ndarray, codes: np.ndarray, emitted, marks, swap: int):
    """The emitted bits (complemented when swap) and the forced marks of
    blocks with these rows and codes, by `_block_table`'s emitted and
    marks, one byte per block, in the shape of rows and codes."""
    import numpy as np
    ks = rows * np.intp(3**BLOCK) + codes
    bits = emitted[ks]
    if swap:
        bits ^= 0xFF
    return bits, marks[ks]


def sample(m: int, p, n: int, seed: int) -> SampleRun:
    """Draw a length-n admissible word from the path law, deterministically.

    m < 3, float(p) outside (0, 1) and n < 1 raise ValueError.  With
    u = rng.random(n), rng = Generator(Philox(key=seed)), the walk starts
    at run 0 with digit 0, and each symbol i extends the current run when
    the run is below m-1 and u[i] < p (run of 0's) or u[i] < 1.0 - p (run
    of 1's); otherwise it flips the digit, and the flip out of a run of m-1
    is forced.  The walk applies this law BLOCK symbols per lookup in
    `_block_table`, symbol 0 included, and yields the same bits as the
    per-symbol walk; the same lookups give the forced marks.

    The words are drawn raw, a slice at a time: rng.random() is
    (w >> 11) * 2**-53 for the bit generator's next 64-bit word w, so the
    two tests of u are integer tests of w (`_class_bounds`).  A block's
    code sum_j c_j 3**j, c_j = [u_j < p] + [u_j < 1.0 - p], is linear in
    the two tests, so it is the sum of the codes (`_byte_codes`) of two
    bytes, each packing one test over the block's 8 symbols.  The walk
    keeps the state x and records one byte per block, the row of x; the
    rows and codes then look up every block's bits and marks at once, one
    byte per block, which is `SampleRun`'s packed layout.  A walk that
    favours digit 1 runs on digit 0's table with the digits swapped.

    At an order above the table's k, the gap = order - k runs below the
    table's runs all take the lowest row.  The walk indexes a list of rows
    with pad = min(gap, _PAD) of them put in front, so every run up to the
    pad, a flip's landing (a run of at most BLOCK) among them, indexes the
    list at its own state.  When the gap is wider, only a full extension
    reaches the runs past the pad; it goes through `climb`, which keeps
    such a run in `run`, outside the list, and parks the state on a lowest
    row above every run of the pad (`park`) until the run reaches another
    row of the table.  So the list holds at most 2 (k + _PAD) rows at any
    order, and the common path, a block that ends on a flip, is the same
    at every order.

    Long paths walk in groups of G = _GROUP blocks, on the coalescence of
    run states: a symbol of class 0 flips every state, each digit onto the
    run 1 of the other, so after it the states reached from all states
    number at most two, and stay at most two.  Such a symbol comes with
    probability min(p, 1-p), so a two-block head holds one in 93% of the
    groups at p = 0.85 and in all but 2**-16 at p = 0.5.  For each batch
    of _BATCH symbols, numpy takes every group's first two blocks, its
    head, from every state of the list at once (`_step_table`, `_heads`),
    and carries the least and the greatest of the states reached from the
    states a block can end on through the rest of the group as two lanes,
    one gather per block position.  The Python loop then takes one lookup
    per group: the lane that the true state after the head lands on gives
    the state at the group's end, and a group whose head leaves the state
    on neither lane is walked block by block.  The state before each block
    comes back by one select between the two lanes, so the rows, the bits
    and the marks are those of the per-block walk.  Groups need the whole
    gap listed (gap == pad, orders up to BLOCK + 2 + _PAD = 42), and paths
    of at least _GROUP_FROM (len(row) + 1) symbols; shorter ones take
    G = 1, the per-block walk.  That is 42 000 symbols at m = 3 and
    150 000 at m = 12; on a 2-core x86-64 VM the walk in groups first paid
    at about 35 000-40 000 and 45 000-85 000 symbols (medians of whole
    calls), and at 10**6 symbols it took 2.6 against 7.8 ms at m = 3.
    """
    import numpy as np
    p, below_lo, upto_hi, swap, row, nxt, emitted, marks, pad, gap = _plan(m, p, n)
    draw = np.random.Philox(key=seed).random_raw
    size = -(-n // BLOCK)
    packed_bits = np.empty(size, dtype=np.uint8)
    packed_forced = np.empty(size, dtype=np.uint8)
    jump = 2 * BLOCK
    # past a gap of _PAD, the table's run t sits at 2 (pad + t) + digit, its
    # lowest row, run 1, at park + digit, above every run of the pad; a full
    # extension from below edge stays within the pad
    park = 2 * (pad + 1)
    edge = len(row) if gap == pad else park - jump
    run = 0  # the run of a parked state

    def climb(x: int) -> int:
        """The state after BLOCK more of its digit, past the pad."""
        nonlocal run
        run = (x >> 1 if x < park else run) + BLOCK
        return 2 * (pad + max(run - gap, 1)) + (x & 1)

    def walk(x: int, codes, put, row=row, nxt=nxt, jump=jump, edge=edge) -> int:
        """Step x through the block codes, putting each block's row."""
        for code in codes:
            r = row[x]
            put(r)
            x = nxt[r][code] or (x + jump if x < edge else climb(x))
        return x

    width = len(row)  # columns of the step table
    group = _GROUP if gap == pad and n >= _GROUP_FROM * (width + 1) else 1
    if group > 1:
        step = _step_table(row, nxt)
        flat = step.ravel()
        row_of = np.array(row, dtype=np.uint8)
    x = swap  # digit 0 with a run of 0: state 1 on the swapped walk
    done = 0  # blocks walked
    slices = []  # the codes of a batch's slices
    for start in range(0, n, _SLICE):
        # whole blocks: the last one may draw past symbol n-1
        blocks = -(-min(_SLICE, n - start) // BLOCK)
        codes = _codes(draw, blocks, below_lo, upto_hi)
        if group > 1:
            # walk in batches of _BATCH symbols
            slices.append(codes)
            if len(slices) < _BATCH // _SLICE and start + _SLICE < n:
                continue
            codes = np.concatenate(slices) if len(slices) > 1 else codes
            blocks = len(codes)
            slices = []
        groups = blocks // group if group > 1 else 0
        body = groups * group
        trace = bytearray()
        if groups:
            by_group = codes[:body].reshape(groups, group)
            after1, after2, lanes = _heads(step, by_group[:, 0], by_group[:, 1], group)
            # the lanes through the rest of each group, one gather per block
            _carry(flat, by_group[:, 2:].T * np.intp(width), lanes)
            # each state's end of group after the head: a lane's exit, or
            # width where the head leaves it on neither lane
            exit0, exit1 = lanes[-1]
            on1 = after2 == lanes[0, 1][:, None]
            to = np.where(on1, exit1[:, None], np.where(
                after2 == lanes[0, 0][:, None], exit0[:, None], width)).tobytes()
            # the walk: one lookup per group, block by block where no lane holds
            put = trace.append
            walked = bytearray()
            walked_groups = []
            by_block = memoryview(codes)
            for base in range(0, groups * width, width):
                put(x)
                y = to[base + x]
                if y == width:
                    g = base // width
                    walked_groups.append(g)
                    y = walk(x, by_block[g * group : g * group + group], walked.append)
                x = y
            # the state before each block: the head's, then the lane taken
            entry = np.frombuffer(trace, dtype=np.uint8)
            at = np.arange(0, groups * width, width) + entry
            states = np.empty((groups, group), dtype=np.uint8)
            states[:, 0] = entry
            states[:, 1] = after1.ravel()[at]
            states[:, 2:] = np.where(on1.ravel()[at], lanes[:-1, 1], lanes[:-1, 0]).T
            rows = row_of[states]
            rows[walked_groups] = np.frombuffer(walked, dtype=np.uint8).reshape(-1, group)
            trace = bytearray(rows)
        x = walk(x, memoryview(codes)[body:], trace.append)
        packed_bits[done : done + blocks], packed_forced[done : done + blocks] = (
            _bits_and_marks(np.frombuffer(trace, dtype=np.uint8), codes, emitted, marks, swap))
        done += blocks
    # clear the bits that the last block drew past symbol n-1
    tail = 0xFF << -n % BLOCK & 0xFF
    packed_bits[-1] &= tail
    packed_forced[-1] &= tail
    return SampleRun(m, p, seed, n, packed_bits, packed_forced)


# the fewest paths that `samples` walks in lockstep, the block codes it
# holds at once over the paths it walks together, and blocks per lane walk
_LOCKSTEP_FROM = 20
_LOCKSTEP = 1 << 17
_CHUNK = 64


def samples(m: int, p, n: int, seeds) -> list[SampleRun]:
    """`sample(m, p, n, seed)` for each seed, the same runs byte for byte,
    the paths walked in lockstep.

    m, p, n and each seed raise `sample`'s errors, and no seeds give [].
    The paths share `sample`'s set-up (`_plan`) and its step table
    (`_step_table`), and each draws its own codes, a slice at a time.
    One state per path then steps through the block positions, all paths
    at once: one add and one gather per position (`_carry`, the lane step
    of `sample`'s group walk), where `sample` takes one Python step per
    block of each path.  The states before the blocks give their rows,
    and the rows and codes the bits and marks, as in `sample`.  The step
    table needs the whole gap listed, as `sample`'s groups do: at orders
    of 43 and more every path is drawn by `sample`.  The paths walk
    together in sets whose codes of one slice number at most _LOCKSTEP,
    and a set's slice in chunks of _CHUNK blocks, so the memory held does
    not grow with the number of paths past a set.

    A lockstep position costs a few numpy calls whatever the number of
    paths, and a block of `sample`'s per-block walk a Python step, so the
    lockstep pays from about 12 paths of 2000 symbols and 20 of 10**4 on
    a 2-core x86-64 VM (medians of 31 calls); fewer than _LOCKSTEP_FROM
    paths are each drawn by `sample`.  32 paths of 5 * 10**4 and 2 * 10**5
    symbols at (3, 0.3) took 32 and 100 ms in lockstep against 35 and
    104 ms by `sample`'s group walk (medians of 7).
    """
    import numpy as np
    p, below_lo, upto_hi, swap, row, nxt, emitted, marks, pad, gap = _plan(m, p, n)
    seeds = list(seeds)
    if gap > pad or len(seeds) < _LOCKSTEP_FROM:
        return [sample(m, p, n, seed) for seed in seeds]
    draws = [np.random.Philox(key=seed).random_raw for seed in seeds]
    width = len(row)
    flat = _step_table(row, nxt).ravel()
    row_of = np.array(row, dtype=np.uint8)
    size = -(-n // BLOCK)
    tail = 0xFF << -n % BLOCK & 0xFF  # the bits of the last block before symbol n
    together = max(1, _LOCKSTEP // min(size, _SLICE // BLOCK))
    runs = []
    for first in range(0, len(seeds), together):
        some = draws[first : first + together]
        bits = np.empty((len(some), size), dtype=np.uint8)
        forced = np.empty_like(bits)
        x = np.full(len(some), swap, dtype=np.uint8)
        done = 0  # blocks walked
        for start in range(0, n, _SLICE):
            blocks = -(-min(_SLICE, n - start) // BLOCK)
            codes = np.empty((len(some), blocks), dtype=np.uint16)
            for i, draw in enumerate(some):
                codes[i] = _codes(draw, blocks, below_lo, upto_hi)
            for lo in range(0, blocks, _CHUNK):
                chunk = codes[:, lo : lo + _CHUNK]
                lanes = np.empty((chunk.shape[1] + 1, len(some)), dtype=np.uint8)
                lanes[0] = x
                _carry(flat, chunk.T * np.intp(width), lanes)
                x = lanes[-1]
                at = slice(done + lo, done + lo + chunk.shape[1])
                bits[:, at], forced[:, at] = _bits_and_marks(
                    row_of[lanes[:-1].T], chunk, emitted, marks, swap)
            done += blocks
        del codes  # not held through the copies
        bits[:, -1] &= tail
        forced[:, -1] &= tail
        runs += [SampleRun(m, p, seed, n, b.copy(), f.copy())
                 for seed, b, f in zip(seeds[first:], bits, forced)]
    return runs


def _step_table(row: tuple[int, ...], nxt: tuple[bytes, ...]) -> np.ndarray:
    """The state after one block from each state x of `sample`'s row list,
    for every block code, as uint8 of shape (3**BLOCK, len(row)), code
    first, so that a lane's next state is one gather at code * len(row) + x.

    Column x holds nxt[row[x]], and x + 2 BLOCK where the block extends
    x's run BLOCK times.  The list must hold the whole gap (gap == pad),
    so that run is listed too.
    """
    import numpy as np
    table = np.frombuffer(b"".join(nxt), dtype=np.uint8).reshape(len(nxt), -1)
    step = np.ascontiguousarray(table[list(row)].T)
    for digit in (0, 1):
        # only the lowest row extends BLOCK times, on the codes where nxt is 0
        lowest = row[digit]
        codes = np.flatnonzero(table[lowest] == 0)
        states = [x for x in range(digit, len(row), 2) if row[x] == lowest]
        step[np.ix_(codes, states)] = [x + 2 * BLOCK for x in states]
    return step


def _heads(
    step: np.ndarray, first: np.ndarray, second: np.ndarray, group: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each group's state after its first and after its second block (the
    head), from every state, as (groups, width) arrays, and the lanes of
    `sample`'s group walk, (group - 1, 2, groups), with the two lane starts
    filled in: the least and the greatest state that the head reaches from
    the states a block can end on, every state from run 1 on."""
    import numpy as np
    width = step.shape[1]
    after1 = step[first]
    after2 = step.ravel()[(second * np.intp(width))[:, None] + after1]
    lanes = np.empty((group - 1, 2, len(first)), dtype=np.uint8)
    reach = after2[:, 2:]
    reach.min(axis=1, out=lanes[0, 0])
    reach.max(axis=1, out=lanes[0, 1])
    return after1, after2, lanes


def _carry(flat: np.ndarray, cols: np.ndarray, lanes: np.ndarray) -> None:
    """Fill lanes[i + 1] with the state after block i from each state of
    lanes[i], where cols[i] holds that block's code times the step table's
    width and flat is the table raveled: one add and one gather per block."""
    import numpy as np
    at = np.empty(lanes.shape[1:], dtype=np.intp)
    for i, col in enumerate(cols):
        np.add(col, lanes[i], out=at)
        lanes[i + 1] = flat[at]


def _local_dimension(n0, n1, n, q: float):
    """-log(q**n0 (1-q)**n1) / (n log 2), the same bits for scalars and arrays."""
    _check_open_unit(q, "q")
    return (n0 * -math.log(q) + n1 * -math.log(1.0 - q)) / (n * math.log(2.0))


def _running_counts(flags: np.ndarray, stride: int) -> np.ndarray:
    """The running count of True in flags after stride, 2 stride, ... symbols."""
    import numpy as np
    k = len(flags) // stride
    return np.count_nonzero(flags[: k * stride].reshape(k, stride), axis=1).cumsum()


def strided_series(
    run: SampleRun, q: float, stride: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(n, freq0, local dimension) along the sampled path at n = stride,
    2 stride, ... <= run.n; stride 1 gives the whole series.

    The local dimension is -log mu_q[w|_n] / (n log 2), mu_q[w] = q**N0
    (1-q)**N1, N0 and N1 counting the 0's and 1's of w at free positions.
    The running counts are exact and taken at those n before any float
    operation, so a value does not depend on the stride.  Error model: each
    value is within about four roundings (two products, a sum, a quotient),
    under 1e-15 relative at any n, of the exactly rounded per-symbol sum
    over n log 2.
    """
    import numpy as np
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    n = np.arange(stride, run.n + 1, stride)
    bits = np.unpackbits(run.packed_bits, count=run.n)
    free = ~np.unpackbits(run.packed_forced, count=run.n).view(bool)
    n1 = _running_counts(free & (bits == 1), stride)
    n0 = _running_counts(free, stride) - n1
    return n, _running_counts(bits == 0, stride) / n, _local_dimension(n0, n1, n, q)


def final_local_dimension(run: SampleRun, q: float) -> float:
    """The last value of the `strided_series` local dimension, bit for bit,
    from popcounts of the packed path."""
    # a free 1 is a 1 that is not forced; the padding is 0 in packed_bits
    n1 = _popcount(run.packed_bits & ~run.packed_forced)
    return _local_dimension(run.n - _popcount(run.packed_forced) - n1, n1, run.n, q)
