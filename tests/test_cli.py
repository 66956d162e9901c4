import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from rllshift import cli, markov, words


DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnumerate:
    def test_listing(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--m", "3", "--n", "3")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 6
        assert lines[0] == "001"
        assert "000" not in lines

    def test_count_only_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "--m", "3", "--n", "5", "--count-only"
        )
        assert code == 0
        record = json.loads(out)
        assert record["count"] == 16
        assert record["schema"] == 1

    def test_count_past_the_int_digit_limit(self, capsys):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
        before = limit()
        code, out, _ = run_cli(
            capsys, "enumerate", "--m", "8", "--n", "20000", "--count-only"
        )
        assert code == 0
        # a JSON number; read it in chunks, below the interpreter's limit
        digits = json.loads(out, parse_int=str)["count"]
        assert len(digits) > 4300
        count = 0
        for i in range(0, len(digits), 1000):
            chunk = digits[i : i + 1000]
            count = count * 10 ** len(chunk) + int(chunk)
        assert count == words.count_words(8, 20000)
        assert limit() == before  # the command restores the limit

    def test_count_matches_committed_run(self, capsys, tmp_path):
        # written by the 2(m-1)-state kernel route, before counts took the
        # run recurrence
        target = tmp_path / "count_m8.json"
        code, _, _ = run_cli(
            capsys, "enumerate", "--m", "8", "--n", "20000", "--count-only",
            "--out", str(target),
        )
        assert code == 0
        assert target.read_bytes() == (DATA / "count_m8.json").read_bytes()

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "words.txt"
        code, out, _ = run_cli(
            capsys, "enumerate", "--m", "3", "--n", "2", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert target.read_text().split() == ["00", "01", "10", "11"]

    def test_past_the_word_cap_exit_two(self, capsys):
        code, out, err = run_cli(capsys, "enumerate", "--m", "3", "--n", "40")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and f"exceed the cap {words.WORD_CAP};" in err


class TestMeasure:
    def test_exact_cylinder(self, capsys):
        code, out, _ = run_cli(
            capsys, "measure", "--m", "3", "--p", "1/3", "--w", "01"
        )
        assert code == 0
        record = json.loads(out)
        assert record["mu"] == "2/9"
        assert record["mode"] == "exact"

    def test_pullback(self, capsys):
        code, out, _ = run_cli(
            capsys, "measure", "--m", "3", "--p", "1/3", "--w", "01", "--k", "1"
        )
        record = json.loads(out)
        assert record["mu"] == "7/27"

    def test_float_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "measure", "--m", "3", "--p", "0.25", "--w", "01"
        )
        record = json.loads(out)
        assert record["mode"] == "float"
        assert float(record["mu"]) == pytest.approx(0.25 * 0.75)

    def test_forbidden_word_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "measure", "--m", "3", "--p", "1/2", "--w", "000"
        )
        assert code == 0
        assert json.loads(out)["mu"] == "0/1"


class TestLambda:
    def test_three_routes_agree(self, capsys):
        code, out, _ = run_cli(
            capsys, "lambda", "--m", "3", "--p", "1/3", "--n", "4000"
        )
        assert code == 0
        record = json.loads(out)
        assert record["closed_form"] == "4/9"
        assert record["stationary"] == "4/9"
        assert abs(float(record["cesaro"]) - 4 / 9) < 1e-3

    def test_decimal_p_stays_float(self, capsys):
        code, out, _ = run_cli(
            capsys, "lambda", "--m", "150", "--p", "0.3", "--n", "100"
        )
        assert code == 0
        record = json.loads(out)
        stationary = record["stationary"]
        assert "/" not in stationary
        assert abs(float(stationary) - float(record["closed_form"])) <= 1e-12

    def test_float_stationary_near_one_is_finite(self, capsys):
        code, out, _ = run_cli(
            capsys, "lambda", "--m", "30", "--p", "0.999999999999", "--n", "100"
        )
        assert code == 0
        record = json.loads(out)
        stationary, closed = float(record["stationary"]), float(record["closed_form"])
        assert abs(stationary - closed) <= 1e-14 * closed

    def test_horizon_of_a_trillion(self, capsys):
        code, out, _ = run_cli(
            capsys, "lambda", "--m", "12", "--p", "3/10", "--n", "1000000000000"
        )
        assert code == 0
        record = json.loads(out)
        closed = Fraction(record["closed_form"])
        assert abs(float(record["cesaro"]) - closed) <= 1e-9

    @pytest.mark.parametrize(
        "golden, argv",
        [
            ("lambda_m12.json", "--m 12 --p 3/10 --n 1000000000000"),
            ("lambda_m35.json", "--m 35 --p 0.3 --n 1000"),
            # the exact closed form and stationary law at exact-deep's largest m
            ("lambda_m35_exact.json", "--m 35 --p 2/7 --n 1000"),
            # a second denominator at an m and n that exact-deep draws
            ("lambda_m34.json", "--m 34 --p 3/4 --n 305"),
        ],
    )
    def test_output_matches_golden(self, capsys, golden, argv):
        # every digit of the Cesaro average, not only its error bound
        code, out, _ = run_cli(capsys, "lambda", *argv.split())
        assert code == 0
        assert out == (DATA / golden).read_text()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--m", "2", "--p", "1/3"), "constraint order must be >= 3, got 2"),
            (("--m", "3", "--p", "0"), "p must lie in (0,1), got 0.0"),
            (("--m", "3", "--p", "1"), "p must lie in (0,1), got 1.0"),
            (("--m", "3", "--p", "3/2"), "p must lie in (0,1), got 3/2"),
        ],
        ids=["m2", "p0", "p1", "p3/2"],
    )
    def test_bad_order_or_p_exit_two(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "lambda", *argv, "--n", "100")
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_largest_horizon(self, capsys):
        code, out, _ = run_cli(
            capsys, "lambda", "--m", "3", "--p", "1/3", "--n", str(2**1023)
        )
        assert code == 0
        assert abs(float(json.loads(out)["cesaro"]) - 4 / 9) <= 1e-12

    def test_horizon_past_binary64_exit_two(self, capsys):
        code, out, err = run_cli(
            capsys, "lambda", "--m", "3", "--p", "1/3", "--n", str(10**400)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: n must lie in [1, 2**1024)")


class TestSample:
    def test_json_summary(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sample",
            "--m", "3", "--p", "0.5", "--n", "5000",
            "--seed", "3", "--format", "json",
        )
        assert code == 0
        record = json.loads(out)
        assert abs(record["freq0_final"] - 0.5) < 0.05
        assert record["local_dim_final"] > 0

    def test_csv_series(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sample",
            "--m", "3", "--p", "0.5", "--n", "3000",
            "--seed", "3", "--stride", "1000",
        )
        lines = out.strip().split("\n")
        assert lines[0] == "n,freq0,local_dim"
        assert lines[1].startswith("1000,")
        assert lines[3].startswith("3000,")
        _, freq, local = (float(x) for x in lines[3].split(","))
        assert 0 < freq < 1 and local > 0

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("stride", ["0", "-3"])
    def test_bad_stride_exit_two(self, capsys, fmt, stride):
        code, out, err = run_cli(
            capsys,
            "sample",
            "--m", "3", "--p", "0.5", "--n", "100",
            "--seed", "3", "--stride", stride, "--format", fmt,
        )
        assert code == 2
        assert out == ""
        assert f"error: --stride must be >= 1, got {stride}" in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_out_of_range_exit_two(self, capsys, fmt, seed):
        code, out, err = run_cli(
            capsys,
            "sample",
            "--m", "3", "--p", "0.5", "--n", "100",
            "--seed", str(seed), "--format", fmt,
        )
        assert code == 2
        assert out == ""
        assert err == f"error: --seed must lie in [0, 2**128), got {seed}\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--m", "2", "--p", "0.3"), "constraint order must be >= 3, got 2"),
            (("--m", "3", "--p", "0"), "p must lie in (0,1), got 0.0"),
            # a rational p is sampled as float(p), here 0.0
            (("--m", "3", "--p", f"1/{10**400}"), "p must lie in (0,1), got 0.0"),
            # the order is checked before --q is parsed
            (("--m", "2", "--p", "0.3", "--q", "nan"), "constraint order must be >= 3, got 2"),
        ],
        ids=["m2", "p0", "p-rounds-to-0", "m2-q-nan"],
    )
    def test_bad_order_or_p_exit_two(self, capsys, fmt, argv, message):
        code, out, err = run_cli(
            capsys, "sample", *argv, "--n", "100", "--seed", "3", "--format", fmt
        )
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sample_too_large_to_allocate_exit_two(self, capsys, fmt):
        # 4 EiB exceeds the address space: the allocation fails at once
        code, out, err = run_cli(
            capsys,
            "sample",
            "--m", "3", "--p", "0.2", "--n", str(2**62),
            "--seed", "1", "--format", fmt,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: Unable to allocate ")
        assert err.count("\n") == 1

    def test_local_dim_final_from_counts(self, capsys):
        # at q = 1/2 every free symbol adds log 2, so the value is (N0+N1)/n
        code, out, _ = run_cli(
            capsys,
            "sample",
            "--m", "3", "--p", "0.5", "--n", "1000000",
            "--seed", "7", "--format", "json",
        )
        assert code == 0
        run = markov.sample(3, 0.5, 1_000_000, 7)
        exact = sum(words.occurrence_counts(3, run.word)) / run.n
        assert abs(json.loads(out)["local_dim_final"] - exact) <= 1e-15 * exact

    @pytest.mark.parametrize(
        "golden, argv",
        [
            ("sample_m3.json",
             "--m 3 --p 0.2 --n 1000000 --seed 20260824 --format json"),
            ("sample_m12.json",
             "--m 12 --p 0.85 --q 0.6 --n 1000000 --seed 1 --format json"),
            ("sample_m5.csv", "--m 5 --p 0.3 --n 20000 --seed 7 --stride 1000"),
            # a large order: 2m = 400 run-state codes x = 2*run + digit, past a byte
            ("sample_m200.json", "--m 200 --p 0.37 --n 300000 --seed 5 --format json"),
            # favoured digit 0 below the order BLOCK + 2 that every larger m shares
            ("sample_m7.json", "--m 7 --p 0.6 --n 300000 --seed 11 --format json"),
            # the largest order whose start state has a row of its own, on the
            # swapped walk (p < 1/2)
            ("sample_m9.json", "--m 9 --p 0.45 --n 300000 --seed 9 --format json"),
        ],
    )
    def test_output_matches_golden(self, capsys, golden, argv):
        code, out, _ = run_cli(capsys, "sample", *argv.split())
        assert code == 0
        assert out == (DATA / golden).read_text()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_builds_no_chain(self, capsys, monkeypatch, fmt):
        # the sampler reads (m, p); the run-state kernel serves only `lambda`
        def refuse(m, p):
            raise AssertionError("sample built the oracle chain")

        monkeypatch.setattr(markov, "build_chain", refuse)
        code, out, _ = run_cli(
            capsys, "sample", "--m", "5", "--p", "0.3", "--n", "20000",
            "--seed", "7", "--stride", "1000", "--format", fmt,
        )
        assert code == 0
        want = (DATA / "sample_m5.csv").read_text()
        assert out == (want if fmt == "csv" else want.splitlines()[-1] + "\n")

    def test_seed_reproducibility(self, capsys):
        args = ("sample", "--m", "3", "--p", "0.4", "--n", "2000",
                "--seed", "9", "--format", "json")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second


class TestDims:
    def test_table(self, capsys):
        code, out, _ = run_cli(capsys, "dims", "--m", "3:6", "--p", "0.5")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "m,p,q,bound,entropy,topo_dim"
        assert len(lines) == 5
        for line, m in zip(lines[1:], range(3, 7)):
            fields = line.split(",")
            assert fields[0] == str(m)
            # symmetric case: the bound is (m-2)/(m-1) exactly
            assert float(fields[3]) == pytest.approx((m - 2) / (m - 1), abs=1e-10)

    def test_boundary_p_leaves_blank_fields(self, capsys):
        _, out, _ = run_cli(capsys, "dims", "--m", "3", "--p", "0.0,0.5")
        lines = out.strip().split("\n")
        assert lines[1].split(",")[2] == ""  # q undefined at p = 0
        assert lines[2].split(",")[2] != ""

    def test_empty_range_exit_two(self, capsys):
        code, out, err = run_cli(capsys, "dims", "--m", "3:2", "--p", "0.3")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("text", ["a:b", "3,x", "3:", "", "3.5"])
    def test_malformed_m_exit_two(self, capsys, text):
        code, out, err = run_cli(capsys, "dims", "--m", text, "--p", "0.3")
        assert (code, out) == (2, "")
        assert err == (
            f"error: --m must be an integer, a comma list or lo:hi, got {text!r}\n"
        )

    @pytest.mark.parametrize("text, m", [("0", 0), ("0:4", 0), ("3,2", 2)])
    def test_order_below_three_exit_two(self, capsys, text, m):
        # 1 is kept for a failed verification
        code, out, err = run_cli(capsys, "dims", "--m", text, "--p", "0.5")
        assert (code, out) == (2, "")
        assert err == f"error: constraint order must be >= 3, got {m}\n"

    def test_grid_matches_golden(self, capsys):
        # every digit of q, the bound, the entropy and topo_dim, and the
        # empty q and bound outside 1/m < p < 1-1/m
        code, out, _ = run_cli(
            capsys, "dims", "--m", "3:60", "--p", "0.05,0.3,0.5,0.7,0.95"
        )
        assert code == 0
        assert out == (DATA / "dims_grid.csv").read_text()

    def test_wide_grid_matches_golden(self, capsys):
        # p just above 1/m (m = 8, 20), on either side of 1/2, and outside
        # the domain, through m = 80
        code, out, _ = run_cli(
            capsys,
            "dims",
            "--m",
            "3:80",
            "--p",
            "0.051,0.127,0.333,0.499,0.501,0.667,0.873,0.949",
        )
        assert code == 0
        assert out == (DATA / "dims_wide.csv").read_text()

    def test_orders_past_float_powers(self, capsys):
        # x**(m-1) near the growth root overflows binary64 from m = 1026 on
        code, out, _ = run_cli(capsys, "dims", "--m", "1026:1030", "--p", "0.5")
        assert code == 0
        for line in out.strip().split("\n")[1:]:
            assert 0.999 < float(line.split(",")[5]) < 1.0


class TestGammaCheck:
    def test_prefix_verdict(self, capsys):
        code, out, _ = run_cli(
            capsys, "gamma-check", "--w", "0110", "--depth", "2"
        )
        assert code == 0
        record = json.loads(out)
        assert record["status"] == "violated"
        assert record["k"] == 1

    def test_short_window_default_depth(self, capsys):
        # with no --depth a window of <= 100 symbols checks every shift
        code, out, _ = run_cli(capsys, "gamma-check", "--w", "0110")
        assert code == 0
        _, out3, _ = run_cli(capsys, "gamma-check", "--w", "0110", "--depth", "3")
        assert out == out3

    @pytest.mark.parametrize(
        "golden, w, depth",
        [
            # check 14's embedding shape: 1^{2m} u with every run of u short
            ("gamma_embedded.json", "1" * 6 + "110" * 3333, ["--depth", "1000"]),
            # periodic: ties at every multiple of the period and in the last run
            ("gamma_flags.json", "1110" * 25, []),
            # a run longer than the leading one, past shifts that are skipped
            ("gamma_violated.json", "111" + "01" * 10 + "01111" + "0110" * 5, []),
        ],
    )
    def test_output_matches_golden(self, capsys, golden, w, depth):
        code, out, _ = run_cli(capsys, "gamma-check", "--w", w, *depth)
        assert code == 0
        assert out == (DATA / golden).read_text()

    @pytest.mark.parametrize("w", ["0", "1", ""])
    def test_window_too_short_for_default_depth(self, capsys, w):
        code, out, err = run_cli(capsys, "gamma-check", "--w", w)
        assert (code, out) == (2, "")
        assert err == f"error: --w needs at least two symbols, got {w!r}\n"

    def test_periodic_verdicts(self, capsys):
        _, out, _ = run_cli(capsys, "gamma-check", "--periodic", ":10")
        assert json.loads(out)["status"] == "exact-nonmember"
        _, out, _ = run_cli(
            capsys, "gamma-check", "--periodic", ":10", "--variant", "weak"
        )
        assert json.loads(out)["status"] == "exact-member"
        _, out, _ = run_cli(capsys, "gamma-check", "--periodic", "111:10")
        assert json.loads(out)["status"] == "exact-member"

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("10", "period must be non-empty"),
            ("10:", "period must be non-empty"),
            ("", "period must be non-empty"),
            ("0:2", "word symbols must be '0'/'1', got '2'"),
        ],
    )
    def test_malformed_periodic_names_flag_and_form(self, capsys, text, reason):
        code, out, err = run_cli(capsys, "gamma-check", "--periodic", text)
        assert (code, out) == (2, "")
        assert err == f"error: --periodic takes preperiod:period: {reason}\n"

    def test_missing_input_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["gamma-check"])
        assert err.value.code == 2

    def test_variant_with_window_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "gamma-check", "--w", "0110", "--depth", "2", "--variant", "weak"
        )
        assert (code, out) == (2, "")
        assert "error: --variant applies to --periodic" in err

    def test_depth_with_periodic_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "gamma-check", "--periodic", ":10", "--depth", "5")
        assert (code, out) == (2, "")
        assert "error: --depth applies to --w" in err

    def test_window_and_periodic_together_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["gamma-check", "--w", "01", "--periodic", "0:1"])
        assert err.value.code == 2


class TestVerify:
    def test_quick_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--quick")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 16
        assert all(line.startswith("PASS") for line in lines[:15])
        assert lines[-1] == "15/15 checks passed"

    def test_quick_work_counts_pinned(self, capsys):
        _, out, _ = run_cli(capsys, "verify", "--quick")
        assert out.splitlines() == [
            "PASS   1  occurrence-subadditivity: m in (3,4), |w|+|v| <= 8: "
            "3036 pairs, 0 violations",
            "PASS   2  occurrence-counting-bound: m in (3,4,5), |w| <= 10: "
            "3324 words, 0 violations",
            "PASS   3  closed-form-vs-recursion: |w| <= 8, 9 (m,p) combos: "
            "2916 evaluations, 0 mismatches",
            "PASS   4  normalization: n <= 8, 9 (m,p) combos: 0 non-unit sums",
            "PASS   5  quasi-bernoulli: pairs to total length 7, 9 (m,p) combos: "
            "0 violations",
            "PASS   6  pullback-bounds: |w| <= 5, k <= 5, 9 (m,p) combos: "
            "0 violations",
            "PASS   7  non-invariance-witness: m in (3,4,5), p in (1/3,2/3): "
            "0 failures",
            "PASS   8  lambda0-triple-agreement: 12 (m,p) combos, cesaro n=2000: "
            "exact + 1e-3 agreement",
            "PASS   9  g-bound: m in 3..20, 1000-point grid: max m*|g_m| = 0.998000",
            "PASS  10  root-quality: m <= 20, p in (0.3,0.4,0.6): "
            "residual <= 1e-12, |q-p| <= 1/m",
            "PASS  11  entropy-convergence: bounds 0.726336, 0.809138, 0.853327, "
            "0.867450 vs h(0.3) = 0.881291",
            "PASS  12  ergodic-frequency: m=3 q=0.2 n=100000 seed=20260824: "
            "freq0 = 0.400610 (target 0.4 +/- 0.0064)",
            "PASS  13  local-dimension: final estimate 0.484064 vs bound "
            "0.360964 - 0.01",
            "PASS  14  gamma-construction: 10 embedded samples clean to depth 200; "
            "380/4096 length-12 windows clean, runs bounded by the leading run",
            "PASS  15  determinism: repeated seeded sample and repeated Cesaro "
            "evaluation are identical",
            "15/15 checks passed",
        ]

    def test_output_deterministic_across_workers(self, capsys):
        _, first, _ = run_cli(capsys, "verify", "--quick")
        _, second, _ = run_cli(capsys, "verify", "--quick")
        assert first == second


class TestErrors:
    def test_domain_error_exit_two(self, capsys):
        code, _, err = run_cli(
            capsys, "measure", "--m", "3", "--p", "2", "--w", "01"
        )
        assert code == 2
        # an integer p is a decimal like any other: float mode
        assert err == "error: p must lie in (0,1), got 2.0\n"

    def test_bad_word_symbols(self, capsys):
        code, _, err = run_cli(
            capsys, "gamma-check", "--w", "01a", "--depth", "1"
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("measure", "--m", "3", "--p", "1/0", "--w", "0"),
            ("lambda", "--m", "3", "--p", "1/0"),
            ("sample", "--m", "3", "--p", "1/3", "--n", "10", "--seed", "1", "--q", "1/0"),
            ("dims", "--m", "3", "--p", "1/0"),
        ],
    )
    def test_zero_denominator_exit_two(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "zero denominator" in err

    # empty text is malformed too, not a missing flag
    @pytest.mark.parametrize("text", ["nan", "inf", "abc", "1/2/3", ""])
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("measure", "--m", "3", "--w", "0", "--p"), "--p"),
            (("lambda", "--m", "3", "--p"), "--p"),
            (("sample", "--m", "3", "--n", "10", "--seed", "1", "--p"), "--p"),
            (("sample", "--m", "3", "--n", "10", "--seed", "1", "--p", "1/3", "--q"), "--q"),
            (("dims", "--m", "3", "--p"), "--p"),
        ],
    )
    def test_p_not_a_number_exit_two(self, capsys, argv, flag, text):
        code, out, err = run_cli(capsys, *argv, text)
        assert code == 2
        assert out == ""
        assert err == (
            f"error: {flag} must be a rational 'a/b' or a finite decimal, got {text!r}\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [("verify", "--quick"), ("enumerate", "--m", "3", "--n", "10")],
    )
    def test_out_into_missing_directory_exit_two(self, capsys, tmp_path, argv):
        target = tmp_path / "missing" / "out.txt"
        code, out, err = run_cli(capsys, *argv, "--out", str(target))
        assert code == 2  # 1 is kept for a failed verification
        assert out == ""
        assert err.startswith("error:")
        assert not target.parent.exists()


class TestSharedParser:
    """Every cli.main call in a process parses with the same parser."""

    SAMPLE = ("sample", "--m", "3", "--p", "0.4", "--n", "200", "--seed", "1",
              "--format", "json")

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_errors_leave_no_trace(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["sample", "--m", "5", "--p", "0.3", "--n", "20000"])
        assert err.value.code == 2
        code, out, _ = run_cli(
            capsys, "sample", "--m", "5", "--p", "0.3", "--n", "20000",
            "--seed", "7", "--stride", "0",
        )
        assert (code, out) == (2, "")
        code, out, _ = run_cli(
            capsys, "sample", "--m", "5", "--p", "0.3", "--n", "20000",
            "--seed", "7", "--stride", "1000",
        )
        assert code == 0
        assert out == (DATA / "sample_m5.csv").read_text()

    def test_q_does_not_carry_over(self, capsys):
        _, out, _ = run_cli(capsys, *self.SAMPLE, "--q", "0.6")
        assert json.loads(out)["q"] == 0.6
        _, out, _ = run_cli(capsys, *self.SAMPLE)
        record = json.loads(out)
        assert record["q"] == record["p"] == 0.4

    def test_out_does_not_carry_over(self, capsys, tmp_path):
        target = tmp_path / "words.txt"
        code, out, _ = run_cli(
            capsys, "enumerate", "--m", "3", "--n", "2", "--out", str(target)
        )
        assert (code, out) == (0, "")
        code, out, _ = run_cli(capsys, "enumerate", "--m", "3", "--n", "3")
        assert code == 0
        assert len(out.split()) == 6  # all but 000 and 111 at m = 3
        assert target.read_text().split() == ["00", "01", "10", "11"]
