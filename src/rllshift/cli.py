"""Command-line surface: enumerate | measure | lambda | sample | dims | gamma-check | verify.

Exit codes: 0 success / all checks pass, 1 verification failure, 2 usage error
(including an --out file that cannot be written).
Rational p ("num/den") keeps computations exact; decimal p switches the
affected computations to float mode.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction

from . import dimension, markov, measure, univoque, verify, words

SCHEMA = 1


def _parse_p(text: str, flag: str = "--p"):
    """'num/den' -> Fraction (exact mode); decimal -> float (float mode).

    Any other text, nan and inf included, raises ValueError naming `flag`.
    """
    malformed = f"{flag} must be a rational 'a/b' or a finite decimal, got {text!r}"
    try:
        value = Fraction(text) if "/" in text else float(text)
    except ZeroDivisionError:
        raise ValueError(f"{flag}: zero denominator in {text!r}") from None
    except ValueError:
        raise ValueError(malformed) from None
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(malformed)
    return value


def _format_value(v) -> str:
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return repr(float(v))


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_enumerate(args) -> int:
    if args.count_only:
        record = {
            "schema": SCHEMA,
            "m": args.m,
            "n": args.n,
            "count": words.count_words(args.m, args.n),
        }
        _emit(args, json.dumps(record))
        return 0
    _emit(args, "\n".join(words.enumerate_words(args.m, args.n)))
    return 0


def cmd_measure(args) -> int:
    meas = measure.bernoulli(args.m, _parse_p(args.p))
    value = measure.pullback_cylinder(meas, args.w, args.k)
    record = {
        "schema": SCHEMA,
        "m": args.m,
        "p": _format_value(meas.p),
        "w": args.w,
        "k": args.k,
        "mu": _format_value(value),
        "mode": meas.mode,
    }
    _emit(args, json.dumps(record))
    return 0


def cmd_lambda(args) -> int:
    p = _parse_p(args.p)
    chain = markov.build_chain(args.m, p)
    closed = dimension.f_m(args.m, p)
    pi0 = markov.digit_mass(markov.stationary(chain), 0)
    meas = measure.bernoulli(args.m, p)
    ces = measure.cesaro_lambda(meas, "0", args.n)
    record = {
        "schema": SCHEMA,
        "m": args.m,
        "p": _format_value(p),
        "n": args.n,
        "closed_form": _format_value(closed),
        "stationary": _format_value(pi0),
        "cesaro": repr(ces),
    }
    _emit(args, json.dumps(record))
    return 0


def cmd_sample(args) -> int:
    if args.stride < 1:
        raise ValueError(f"--stride must be >= 1, got {args.stride}")
    if not 0 <= args.seed < 2**128:
        raise ValueError(f"--seed must lie in [0, 2**128), got {args.seed}")
    chain = markov.build_chain(args.m, float(_parse_p(args.p)))
    q = float(_parse_p(args.q, "--q")) if args.q else float(chain.p)
    run = markov.sample(chain, args.n, args.seed)
    summary = {
        "schema": SCHEMA,
        "m": args.m,
        "p": float(chain.p),
        "q": q,
        "seed": args.seed,
        "n": args.n,
        "freq0_final": run.freq0(),
        "local_dim_final": markov.final_local_dimension(run, q),
    }
    if args.format == "json":
        _emit(args, json.dumps(summary))
        return 0
    series = markov.strided_series(run, q, args.stride)
    lines = ["n,freq0,local_dim"]
    for n, freq, local in zip(*(x.tolist() for x in series)):
        lines.append(f"{n},{freq!r},{local!r}")
    _emit(args, "\n".join(lines) + "\n" + json.dumps(summary))
    return 0


def _parse_range(text: str) -> list[int]:
    """'m', 'm1,m2,...' or 'lo:hi' -> the orders; other text raises ValueError."""
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
            values = list(range(int(lo), int(hi) + 1))
        else:
            values = [int(x) for x in text.split(",")]
    except ValueError:
        raise ValueError(
            f"--m must be an integer, a comma list or lo:hi, got {text!r}"
        ) from None
    if not values:
        raise ValueError(f"empty range {text!r}")
    return values


def cmd_dims(args) -> int:
    ms = _parse_range(args.m)
    ps = [float(_parse_p(x)) for x in args.p.split(",")]
    lines = ["m,p,q,bound,entropy,topo_dim"]
    for m in ms:
        for prof in dimension.profiles(m, ps):
            q = "" if prof.q is None else repr(prof.q)
            bound = "" if prof.lower_bound is None else repr(prof.lower_bound)
            lines.append(
                f"{m},{prof.p!r},{q},{bound},{prof.entropy!r},{prof.topo_dim!r}"
            )
    _emit(args, "\n".join(lines))
    return 0


def cmd_gamma(args) -> int:
    if args.periodic is not None:
        if args.depth is not None:
            raise ValueError("--depth applies to --w, not to --periodic")
        pre, _, per = args.periodic.partition(":")
        try:
            seq = univoque.EventuallyPeriodicSequence(pre, per)
        except ValueError as exc:
            raise ValueError(f"--periodic takes preperiod:period: {exc}") from None
        verdict = univoque.gamma_check_periodic(seq, args.variant or univoque.STRICT)
    else:
        if args.variant is not None:
            raise ValueError("--variant applies to --periodic, not to --w")
        if args.depth is None and len(args.w) < 2:
            raise ValueError(f"--w needs at least two symbols, got {args.w!r}")
        depth = min(100, len(args.w) - 1) if args.depth is None else args.depth
        verdict = univoque.gamma_check_prefix(args.w, depth)
    record = {
        "schema": SCHEMA,
        "status": verdict.status,
        "k": verdict.k,
        "position": verdict.position,
        "equality_flags": list(verdict.equality_flags),
    }
    _emit(args, json.dumps(record))
    return 0


def cmd_verify(args) -> int:
    results = verify.run_suite(quick=args.quick)
    _emit(args, verify.format_report(results))
    return 0 if all(r.passed for _, r in results) else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use: callers must not add to it."""
    parser = argparse.ArgumentParser(prog="rllshift")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help):
        sp = sub.add_parser(name, help=help)
        sp.add_argument("--out", default=None, help="write output to a file")
        sp.set_defaults(fn=fn)
        return sp

    sp = command("enumerate", cmd_enumerate, "admissible words of a given length")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--count-only", action="store_true")

    sp = command("measure", cmd_measure, "cylinder measure or its shift pullback")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--p", required=True)
    sp.add_argument("--w", required=True)
    sp.add_argument("--k", type=int, default=0)

    sp = command("lambda", cmd_lambda, "invariant mass of [0], three ways")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--p", required=True)
    sp.add_argument("--n", type=int, default=10_000)

    sp = command("sample", cmd_sample, "seeded path with frequency/local-dim series")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--p", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--q", default=None, help="evaluate the measure at this parameter")
    sp.add_argument("--stride", type=int, default=1000)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")

    sp = command("dims", cmd_dims, "dimension profile table over an (m,p) grid")
    sp.add_argument("--m", required=True, help="single value, list, or lo:hi")
    sp.add_argument("--p", required=True, help="comma-separated values")

    sp = command("gamma-check", cmd_gamma, "univoque-condition verdicts")
    source = sp.add_mutually_exclusive_group(required=True)
    source.add_argument("--w", default=None, help="finite '0'/'1' window")
    source.add_argument("--periodic", default=None, help="preperiod:period")
    sp.add_argument("--depth", type=int, help="with --w only (default min(100, len(w) - 1))")
    sp.add_argument("--variant", choices=("strict", "weak"), help="with --periodic only")

    sp = command("verify", cmd_verify, "run the full verification suite")
    sp.add_argument("--quick", action="store_true")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # exact values print in full, however many digits they have
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return args.fn(args)
    except (ValueError, OSError, words.CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
