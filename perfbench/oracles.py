"""Output oracles, written apart from the program they check.

Each `check_*` takes a query and the stdout of a successful invocation and
returns None when the output is right, or a one-line reason when it is not.
The float oracles build the 2(m-1)-state run-state transfer matrix in
numpy and sum matrix powers by doubling; the exact ones use integer
recurrences and closed forms.
"""
from __future__ import annotations

import json
import math
from collections import deque
from fractions import Fraction

import numpy as np

REL_TOL = 1e-9
ROOT_TOL = 1e-12


def big_int(digits: str) -> int:
    """int(digits) in chunks, so values past Python's 4300-digit limit parse."""
    value = 0
    for i in range(0, len(digits), 4000):
        chunk = digits[i : i + 4000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def big_fraction(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(big_int(num), big_int(den or "1"))


def _load(stdout: str) -> dict:
    return json.loads(stdout, parse_int=str)


# --- run-state chain in float64 -------------------------------------------


class Chain:
    """Transition matrix over states (digit, run), run = 1..m-1."""

    def __init__(self, m: int, p: float):
        self.m = m
        self.size = 2 * (m - 1)
        P = np.zeros((self.size, self.size))
        for d in (0, 1):
            stay = p if d == 0 else 1.0 - p
            for r in range(1, m):
                i = self.index(d, r)
                if r == m - 1:
                    P[i, self.index(1 - d, 1)] = 1.0
                else:
                    P[i, self.index(d, r + 1)] = stay
                    P[i, self.index(1 - d, 1)] = 1.0 - stay
        self.P = P
        self.init = np.zeros(self.size)
        self.init[self.index(0, 1)] = p
        self.init[self.index(1, 1)] = 1.0 - p

    def index(self, d: int, r: int) -> int:
        return d * (self.m - 1) + r - 1

    def emit(self, w: str) -> np.ndarray:
        """Probability, from each state, that the next symbols read w."""
        out = np.zeros(self.size)
        for d in (0, 1):
            for r in range(1, self.m):
                state, prob = (d, r), 1.0
                for c in map(int, w):
                    sd, sr = state
                    nxt = (sd, sr + 1) if c == sd else (c, 1)
                    if nxt[1] >= self.m:
                        prob = 0.0
                        break
                    prob *= self.P[self.index(*state), self.index(*nxt)]
                    state = nxt
                out[self.index(d, r)] = prob
        return out

    def cylinder(self, w: str) -> float:
        first = (int(w[0]), 1)
        return self.init[self.index(*first)] * self.emit(w[1:])[self.index(*first)]

    def pullback(self, w: str, k: int) -> float:
        """mu(sigma^-k [w]) for k >= 1: init P^(k-1) emit(w)."""
        return float(self.init @ np.linalg.matrix_power(self.P, k - 1) @ self.emit(w))

    def cesaro(self, w: str, n: int) -> float:
        """(1/n) sum_{k<n} mu(sigma^-k [w])."""
        _, total = _power_and_sum(self.P, n - 1)
        return (self.cylinder(w) + float(self.init @ total @ self.emit(w))) / n


def _power_and_sum(P: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(P^n, sum_{j<n} P^j) by doubling."""
    if n == 0:
        return np.eye(len(P)), np.zeros_like(P)
    A, S = _power_and_sum(P, n // 2)
    S = S + A @ S
    A = A @ A
    if n % 2:
        S = S + A
        A = A @ P
    return A, S


def _close(got: float, want: float, tol: float = REL_TOL) -> bool:
    return abs(got - want) <= tol * abs(want)


# --- exact references ------------------------------------------------------


def lambda0(m: int, p: Fraction) -> Fraction:
    return (p - p**m) / (1 - p**m - (1 - p) ** m)


def words_count(m: int, n: int) -> int:
    """2 C(n), with C(n) = sum_{i=1}^{m-1} C(n-i), C(0) = 1, C(<0) = 0."""
    window = deque([1], maxlen=m - 1)  # C(k-m+2) .. C(k)
    for _ in range(n):
        window.append(sum(window))
    return 2 * window[-1]


def free_counts(m: int, w: str) -> tuple[int, int]:
    """Zeros and ones of w at free positions (the run before is < m-1 long)."""
    n0 = n1 = 0
    run = 0
    for i, c in enumerate(w):
        if not (i and run == m - 1):
            n0 += c == "0"
            n1 += c == "1"
        run = run + 1 if i and c == w[i - 1] else 1
    return n0, n1


# --- checks ------------------------------------------------------------------


def check_lambda(q, stdout: str) -> str | None:
    rec = _load(stdout)
    m, p, n = q.params["m"], Fraction(q.params["a"], q.params["b"]), q.params["n"]
    want = lambda0(m, p)
    if rec["closed_form"] != rec["stationary"]:
        return f"closed_form {rec['closed_form']} != stationary {rec['stationary']}"
    if big_fraction(rec["closed_form"]) != want:
        return f"closed_form {rec['closed_form']} != {want}"
    ces = Chain(m, float(p)).cesaro("0", n)
    if not _close(float(rec["cesaro"]), ces):
        return f"cesaro {rec['cesaro']} vs transfer matrix {ces!r}"
    return None


def check_measure_k(q, stdout: str) -> str | None:
    rec = _load(stdout)
    prm = q.params
    got = float(big_fraction(rec["mu"]))
    want = Chain(prm["m"], prm["a"] / prm["b"]).pullback(prm["w"], prm["k"])
    return None if _close(got, want) else f"mu {got!r} vs transfer matrix {want!r}"


def check_measure_w(q, stdout: str) -> str | None:
    rec = _load(stdout)
    prm = q.params
    a, b = prm["a"], prm["b"]
    n0, n1 = free_counts(prm["m"], prm["w"])
    num, den = a**n0 * (b - a) ** n1, b ** (n0 + n1)  # coprime: gcd(a, b) = 1
    got = big_fraction(rec["mu"])
    if (got.numerator, got.denominator) != (num, den):
        return "exact cylinder measure differs from p^N0 (1-p)^N1"
    return None


def check_enumerate(q, stdout: str) -> str | None:
    got = big_int(_load(stdout)["count"])
    want = words_count(q.params["m"], q.params["n"])
    return None if got == want else "count differs from 2 C(n)"


def check_sample(q, stdout: str) -> str | None:
    rec = json.loads(stdout)
    prm = q.params
    n, p = prm["n"], prm["p"]
    if (rec["n"], rec["seed"], rec["m"]) != (n, prm["seed"], prm["m"]):
        return "summary does not echo m, n and seed"
    zeros = rec["freq0_final"] * n
    if abs(zeros - round(zeros)) > 1e-6 * n:
        return f"freq0 {rec['freq0_final']!r} is not a count over n"
    # the frequency concentrates at lambda_p[0] with sd ~ 1/sqrt(n) times
    # the chain's mixing factor, well under 20 for m <= 12
    m = prm["m"]
    lam = (p - p**m) / (1 - p**m - (1 - p) ** m)
    if abs(rec["freq0_final"] - lam) > 20 / math.sqrt(n):
        return f"freq0 {rec['freq0_final']!r} far from lambda {lam!r}"
    top = max(-math.log2(p), -math.log2(1.0 - p))
    if not 0.0 < rec["local_dim_final"] <= top:
        return f"local dimension {rec['local_dim_final']!r} outside (0, {top}]"
    return None


def prefix_verdict(window: str, depth: int) -> dict:
    """Finite-window univoque check, by whole-array comparisons per shift."""
    a = np.frombuffer(window.encode(), dtype=np.uint8) - ord("0")
    n = len(a)
    flags: list[int] = []
    for k in range(1, depth + 1):
        equal = False
        for other, bad in ((a[: n - k], 1), (1 - a[: n - k], -1)):
            diff = np.flatnonzero(a[k:] != other)
            if len(diff) == 0:
                equal = True
                continue
            i = int(diff[0])
            if (int(a[k + i]) - int(other[i])) * bad > 0:
                return {"status": "violated", "k": k, "position": i + 1, "equality_flags": flags}
        if equal:
            flags.append(k)
    return {"status": "clean-to-depth", "k": None, "position": None, "equality_flags": flags}


def periodic_verdict(pre: str, period: str) -> dict:
    """Strict decision for pre + period^inf: complement(w) < sigma^k w < w, k >= 1."""
    span = len(pre) + len(period)
    length = 2 * span + len(period)
    seq = (pre + period * (length // len(period) + 1))[:length]
    a = np.frombuffer(seq.encode(), dtype=np.uint8) - ord("0")
    head = a[:span]
    for k in range(1, span + 1):
        shifted = a[k : k + span]
        for other, bad in ((head, 1), (1 - head, -1)):
            diff = np.flatnonzero(shifted != other)
            if len(diff) == 0 or (int(shifted[diff[0]]) - int(other[diff[0]])) * bad > 0:
                return {"status": "exact-nonmember", "k": k}
    return {"status": "exact-member", "k": None}


def check_gamma_w(q, stdout: str) -> str | None:
    rec = json.loads(stdout)
    want = prefix_verdict(q.params["window"], q.params["depth"])
    for key in ("status", "k", "position", "equality_flags"):
        if rec[key] != want[key]:
            return f"{key} {rec[key]!r} != {want[key]!r}"
    return None


def check_gamma_periodic(q, stdout: str) -> str | None:
    rec = json.loads(stdout)
    want = periodic_verdict(q.params["pre"], q.params["period"])
    if (rec["status"], rec["k"]) != (want["status"], want["k"]):
        return f"verdict {rec['status']} k={rec['k']} != {want['status']} k={want['k']}"
    return None


def gamma_consistent(window: dict, periodic: dict, depth: int) -> str | None:
    """A window verdict against the exact verdict on the sequence it prefixes."""
    if window["status"] == "violated":
        if periodic["status"] != "exact-nonmember" or periodic["k"] > window["k"]:
            return "window violated but the sequence is not refuted at or before that shift"
    elif periodic["status"] == "exact-member":
        return None
    elif periodic["k"] <= depth and periodic["k"] not in window["equality_flags"]:
        return "sequence refuted at a shift the window decided strictly"
    return None


def f_m(m: int, x: float) -> float:
    return (x - x**m) / (-math.expm1(m * math.log1p(-x)) - x**m)


def check_dims(q, stdout: str) -> str | None:
    lines = stdout.strip().split("\n")
    rows = [line.split(",") for line in lines[1:]]
    want = [(m, p) for m in q.params["ms"] for p in q.params["ps"]]
    if lines[0] != "m,p,q,bound,entropy,topo_dim" or len(rows) != len(want):
        return "table shape"
    for (m, p), row in zip(want, rows):
        if (int(row[0]), float(row[1])) != (m, p):
            return f"row order at m={m} p={p}"
        in_domain = 1.0 / m < p < 1.0 - 1.0 / m
        if in_domain != bool(row[2]):
            return f"q present={bool(row[2])} at m={m} p={p}"
        if in_domain and abs(f_m(m, float(row[2])) - p) > ROOT_TOL:
            return f"|f_m(q) - p| > {ROOT_TOL} at m={m} p={p}"
        h = (-p * math.log(p) - (1 - p) * math.log1p(-p)) / math.log(2)
        if abs(float(row[4]) - h) > ROOT_TOL:
            return f"entropy at p={p}"
        r = 2.0 ** float(row[5])
        if abs(r ** (m - 1) - sum(r**i for i in range(m - 1))) > 1e-9 * r ** (m - 1):
            return f"topological dimension at m={m}"
    return None


CHECKS = {
    "lambda": check_lambda,
    "measure-k": check_measure_k,
    "measure-w": check_measure_w,
    "enumerate": check_enumerate,
    "sample": check_sample,
    "gamma-w": check_gamma_w,
    "gamma-periodic": check_gamma_periodic,
    "dims": check_dims,
}


def known_failure(stderr: str) -> str | None:
    """Name of the known defect a failed query hit, if it is one.

    Python 3.11 refuses to turn an int of more than 4300 digits into a
    string, which `rllshift` does when it prints an exact value that
    large: the answer is computed and the command then exits 2.
    """
    if "Exceeds the limit (4300 digits)" in stderr:
        return "int-str-digit-limit"
    return None
