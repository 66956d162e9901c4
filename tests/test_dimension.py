import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rllshift import cli, dimension, words
from rllshift.dimension import (
    entropy_binary,
    f_m,
    g_m,
    growth_root,
    lower_bound,
    profile,
    profiles,
    solve_qm,
    topo_dim,
)

# frozen against an independent 40-digit evaluation of the displayed formulas
BOUND_3_04_02 = 0.36096404744368117
H_03 = 0.88129089923069262
TOPO_3 = 0.69424191363061730
TOPO_4 = 0.87914642160663817


def bisect_f_m(m, p, tol=1e-12):
    """Reference: solve_qm as it was, one call of the public f_m per step."""
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if not 1.0 / m < p < 1.0 - 1.0 / m:
        raise ValueError(f"p must lie in (1/{m}, 1-1/{m}), got {p}")
    lo, hi = 0.0, 1.0
    flo, fhi = 1.0 / m - p, 1.0 - 1.0 / m - p
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fmid = f_m(m, mid) - p
        if fmid == 0.0:
            return mid
        if fmid > 0:
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid
    q, res = (hi, fhi) if lo == 0.0 or (hi < 1.0 and fhi < -flo) else (lo, flo)
    if abs(res) > tol:
        raise ValueError(f"no root within tol={tol} for m={m}, p={p}")
    return q


def outcome(solve, *args):
    """('q', the float's hex digits) or ('error', the ValueError's message)."""
    try:
        return "q", solve(*args).hex()
    except ValueError as exc:
        return "error", str(exc)


@st.composite
def targets(draw):
    """(m, p): m from 3 to past the float-power limit m = 1026, p anywhere
    in [1/m, 1-1/m], or a few ulps inside either end (the end itself too)."""
    m = draw(st.integers(3, 1100))
    lo, hi = 1.0 / m, 1.0 - 1.0 / m
    where = draw(st.sampled_from(["inside", "low", "high"]))
    if where == "inside":
        return m, draw(st.floats(lo, hi))
    p, toward = (lo, 1.0) if where == "low" else (hi, 0.0)
    for _ in range(draw(st.integers(0, 8))):
        p = math.nextafter(p, toward)
    return m, p


class TestFrequencyFunction:
    @pytest.mark.parametrize("m", [3, 5, 10, 40])
    def test_half_is_fixed_point(self, m):
        assert f_m(m, 0.5) == pytest.approx(0.5, abs=1e-14)

    def test_m3_closed_form(self):
        for i in range(1, 100):
            x = i / 100
            assert f_m(3, x) == pytest.approx((1 + x) / 3, abs=1e-13)

    def test_example_point(self):
        assert f_m(3, 0.2) == pytest.approx(0.4, abs=1e-13)

    @pytest.mark.parametrize("m", [3, 4, 7])
    def test_digit_swap_symmetry(self, m):
        for i in range(1, 50):
            x = i / 50
            if x == 1.0:
                continue
            assert f_m(m, x) + f_m(m, 1 - x) == pytest.approx(1.0, abs=1e-12)

    def test_boundary_limits(self):
        for m in (3, 8, 20):
            assert f_m(m, 1e-9) == pytest.approx(1 / m, rel=1e-6)
            assert f_m(m, 1 - 1e-9) == pytest.approx(1 - 1 / m, rel=1e-6)

    @pytest.mark.parametrize("m", [3, 10])
    @pytest.mark.parametrize("x", [0.999, 1 - 1e-12, 1e-3, 1e-12])
    def test_float_accurate_at_both_ends(self, m, x):
        # against f_m of the same binary x, evaluated exactly
        exact = f_m(m, Fraction(x))
        assert abs(Fraction(f_m(m, x)) - exact) <= 4e-16 * exact

    def test_exact_for_fraction(self):
        value = f_m(3, Fraction(1, 3))
        assert isinstance(value, Fraction)
        assert value == Fraction(4, 9)

    def test_domain_rejected(self):
        with pytest.raises(ValueError):
            f_m(3, 0.0)
        with pytest.raises(ValueError):
            f_m(3, 1.0)


class TestGFunction:
    def test_vanishes_at_half(self):
        assert g_m(5, 0.5) == pytest.approx(0.0, abs=1e-14)

    def test_equals_x_minus_f(self):
        for m in (3, 6, 12):
            for i in range(1, 40):
                x = i / 40
                if x == 1.0:
                    continue
                assert g_m(m, x) == pytest.approx(x - f_m(m, x), abs=1e-12)

    def test_example_point(self):
        assert g_m(3, 0.2) == pytest.approx(-0.2, abs=1e-13)

    @pytest.mark.parametrize("m", [3, 4, 7, 12, 20])
    def test_array_matches_scalar_and_exact(self, m):
        xs = np.concatenate(
            [np.arange(1, 1000) / 1000, [1e-300, 1e-9, 0.5 - 1e-12, 1 - 1e-9]]
        )
        values = g_m(m, xs)
        assert values.shape == xs.shape
        for x, v in zip(xs.tolist(), values.tolist()):
            # absolute error model: a few ulps of 1 at any x, also near 1
            bound = 4e-16
            assert abs(v - (Fraction(x) - f_m(m, Fraction(x)))) <= bound
            assert abs(v - g_m(m, x)) <= 2 * bound

    def test_fraction_is_exact(self):
        x = Fraction(2, 7)
        assert g_m(5, x) == x - f_m(5, x)

    @pytest.mark.parametrize(
        "bad", [0.0, 1.0, -0.25, 1.5, float("nan"), float("inf")]
    )
    def test_array_outside_unit_interval_rejected(self, bad):
        xs = np.array([0.25, bad, 0.75])
        with pytest.raises(ValueError, match=r"x must lie in \(0,1\)"):
            g_m(3, xs)

    @pytest.mark.parametrize("m", range(3, 21))
    def test_bounded_by_reciprocal(self, m):
        for i in range(1, 200):
            x = i / 200
            if x == 1.0:
                continue
            assert abs(g_m(m, x)) <= 1 / m + 1e-12


class TestRoot:
    def test_half_target(self):
        for m in (3, 10, 30):
            assert solve_qm(m, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_m3_inverse(self):
        assert solve_qm(3, 0.4) == pytest.approx(0.2, abs=1e-12)

    def test_large_m_tracks_target(self):
        q = solve_qm(50, 0.3)
        assert abs(q - 0.3) <= 1 / 50
        assert abs(f_m(50, q) - 0.3) <= 1e-12

    def test_domain_error(self):
        with pytest.raises(ValueError):
            solve_qm(3, 0.3)  # needs 1/3 < p
        with pytest.raises(ValueError):
            solve_qm(4, 0.9)

    @pytest.mark.parametrize("end", ["low", "high"])
    def test_one_ulp_inside_the_domain(self, end, capsys):
        # the CLI returns a root to 1e-12 or exits 2; never a traceback/exit 1
        for m in range(3, 51):
            if end == "low":
                p = math.nextafter(1.0 / m, 1.0)
            else:
                p = math.nextafter(1.0 - 1.0 / m, 0.0)
            code = cli.main(["dims", "--m", str(m), "--p", repr(p)])
            out = capsys.readouterr().out
            assert code in (0, 2)
            if code == 0:
                q = float(out.strip().split("\n")[1].split(",")[2])
                assert abs(f_m(m, q) - p) <= 1e-12

    def test_unreachable_tol_is_value_error(self):
        with pytest.raises(ValueError):
            solve_qm(7, 0.45, tol=1e-300)

    @settings(max_examples=300, deadline=None, database=None)
    @given(targets(), st.sampled_from([1e-12, 1e-15, 1e-17, 1e-300, 5e-324, 0.0]))
    @example((1026, math.nextafter(1.0 / 1026, 1.0)), 1e-12)
    @example((1100, math.nextafter(1.0 - 1.0 / 1100, 0.0)), 5e-324)
    @example((3, 0.5), 1e-300)
    def test_same_root_as_bisecting_f_m(self, target, tol):
        # the kernel changes the cost of a step, not a bit of its result
        m, p = target
        assert outcome(solve_qm, m, p, tol) == outcome(bisect_f_m, m, p, tol)

    @pytest.mark.parametrize("m", [0, 1, 2, -1])
    @pytest.mark.parametrize(
        "call",
        [
            lambda m: solve_qm(m, 0.5),
            lambda m: lower_bound(m, 0.5, 0.5),
            lambda m: profile(m, 0.5),
            lambda m: profiles(m, [0.5]),
        ],
        ids=["solve_qm", "lower_bound", "profile", "profiles"],
    )
    def test_order_checked_before_division(self, m, call):
        # the order is checked before any 1/m: m = 0 is no ZeroDivisionError
        with pytest.raises(ValueError, match=f"constraint order must be >= 3, got {m}"):
            call(m)

    def test_consistency_with_invariant_mass(self):
        # lambda_q[0] with q = q_m(p) recovers p: same formula as f_m
        from rllshift.dimension import f_m

        q = solve_qm(4, 0.45)
        assert float(f_m(4, q)) == pytest.approx(0.45, abs=1e-10)


class TestLowerBound:
    def test_symmetric_case(self):
        assert lower_bound(3, 0.5, 0.5) == pytest.approx(0.5, abs=1e-14)
        assert lower_bound(5, 0.5, 0.5) == pytest.approx(3 / 4, abs=1e-14)

    def test_frozen_value(self):
        assert lower_bound(3, 0.4, 0.2) == pytest.approx(BOUND_3_04_02, abs=1e-12)

    def test_dominated_by_entropy(self):
        for m in (5, 10, 25, 60):
            for p in (0.3, 0.4, 0.55):
                q = solve_qm(m, p)
                assert lower_bound(m, p, q) <= entropy_binary(p) + 1e-12

    def test_approaches_entropy(self):
        q = solve_qm(100, 0.3)
        assert abs(lower_bound(100, 0.3, q) - H_03) < 0.05


class TestEntropy:
    def test_anchors(self):
        assert entropy_binary(0.5) == 1.0
        assert entropy_binary(0.0) == 0.0
        assert entropy_binary(1.0) == 0.0

    def test_frozen_value_and_cross_formula(self):
        assert entropy_binary(0.3) == pytest.approx(H_03, abs=1e-13)
        alt = -0.3 * math.log2(0.3) - 0.7 * math.log2(0.7)
        assert entropy_binary(0.3) == pytest.approx(alt, abs=1e-13)

    def test_symmetry(self):
        for i in range(1, 50):
            p = i / 50
            assert entropy_binary(p) == pytest.approx(entropy_binary(1 - p), abs=1e-13)


class TestTopologicalDimension:
    def test_golden_ratio_case(self):
        assert growth_root(3) == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-12)
        assert topo_dim(3) == pytest.approx(TOPO_3, abs=1e-12)

    def test_m4(self):
        assert topo_dim(4) == pytest.approx(TOPO_4, abs=1e-12)

    def test_monotone_below_one(self):
        values = [topo_dim(m) for m in (3, 4, 5, 6, 12, 30)]
        assert all(v < 1 for v in values)
        assert values == sorted(values)

    def test_matches_power_sum_root(self):
        # the root of x^{m-1} = x^{m-2} + ... + 1 bisected directly, as it
        # was before the log form; x**(m-1) overflows from m = 1026 on
        def power_sum_root(m):
            lo, hi = 1.0, 2.0
            while hi - lo > 1e-14:
                mid = 0.5 * (lo + hi)
                if mid ** (m - 1) > sum(mid**i for i in range(m - 1)):
                    hi = mid
                else:
                    lo = mid
            return 0.5 * (lo + hi)

        for m in range(3, 61):
            assert abs(topo_dim(m) - math.log2(power_sum_root(m))) <= 1e-13

    def test_against_count_growth(self):
        for m in (3, 4, 5):
            ratio = words.count_words(m, 31) / words.count_words(m, 30)
            assert math.log2(ratio) == pytest.approx(topo_dim(m), abs=1e-4)


class TestProfile:
    def test_interior_point(self):
        prof = profile(3, 0.5)
        assert prof.q == pytest.approx(0.5, abs=1e-12)
        assert prof.lower_bound == pytest.approx(0.5, abs=1e-12)
        assert prof.entropy == 1.0
        assert prof.topo_dim == pytest.approx(TOPO_3, abs=1e-12)

    def test_boundary_point(self):
        prof = profile(3, 0.0)
        assert prof.q is None
        assert prof.lower_bound is None
        assert prof.entropy == 0.0

    def test_large_m(self):
        prof = profile(100, 0.3)
        assert abs(prof.lower_bound - H_03) < 0.05

    @pytest.mark.parametrize("m", [3, 7, 40, 1026])
    def test_profiles_are_the_profiles_at_each_p(self, m):
        ps = [0.0, 1 / m, 0.3, 0.5, 0.7, 1 - 1 / m, 1.0]
        assert profiles(m, ps) == [profile(m, p) for p in ps]

    def test_profiles_reject_the_first_bad_p(self):
        with pytest.raises(ValueError, match=r"p must lie in \[0,1\], got 1.5"):
            profiles(3, [0.5, 1.5, -1.0])
