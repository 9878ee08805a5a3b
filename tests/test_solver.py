import json
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from needle_iso import (
    CrossSpace,
    NotApplicable,
    OutOfDomain,
    SolveRequest,
    catalog,
    check_main_inequality,
    check_realization,
    enlarged_volume,
    isoperimetric_profile_curve,
    polar_of,
    profile_cdf,
    profile_curve_csv,
    profile_quantile,
    solve_isoperimetric,
    solve_with_complement_reduction,
)

HALF_PI = math.pi / 2
S2 = CrossSpace.sphere(2)
RP3 = CrossSpace.real_projective(3)
CP2 = CrossSpace.complex_projective(2)

# frozen from the first build; regression-checked at the curve tolerance
RP3_CROSSOVER_V0 = 0.3952163696289063


class TestSolve:
    def test_sphere_winner_is_always_the_ball(self):
        for v in (0.1, 0.3, 0.5):
            for eps in (0.05, 0.4):
                res = solve_isoperimetric(SolveRequest(S2, v, eps))
                assert res.winner.label == "ball"

    def test_sphere_cap_value(self):
        res = solve_isoperimetric(SolveRequest(S2, 0.5, 0.2))
        assert res.enlarged == pytest.approx((1 + math.sin(0.2)) / 2, abs=1e-10)

    def test_rp3_has_three_candidates_and_small_v_ball(self):
        res = solve_isoperimetric(SolveRequest(RP3, 0.5, 0.1))
        assert len(res.per_candidate) == 3
        res_small = solve_isoperimetric(SolveRequest(RP3, 0.01, 0.1))
        assert res_small.winner.label == "ball"

    def test_rp3_half_volume_winner_is_geodesic_tube(self):
        res = solve_isoperimetric(SolveRequest(RP3, 0.5, 0.1))
        assert res.winner.label == "tube around RP^1"
        assert res.enlarged == pytest.approx(
            math.sin(math.pi / 4 + 0.1) ** 2, abs=1e-10
        )

    def test_winner_attains_the_minimum(self):
        res = solve_isoperimetric(SolveRequest(CP2, 0.3, 0.1))
        assert res.enlarged == min(e for _, e in res.per_candidate)
        assert res.winner.label in {c.label for c in catalog(CP2)}

    def test_needle_check_reports_epsilon_for_realizing_winner(self):
        res = solve_isoperimetric(SolveRequest(RP3, 0.5, 0.1))
        assert res.needle_bound_check["residual"] < 1e-9

    def test_sphere_needle_check_always_matches_epsilon(self):
        for n in (2, 3, 7):
            space = CrossSpace.sphere(n)
            for v in (0.1, 0.35, 0.5):
                res = solve_isoperimetric(SolveRequest(space, v, 0.15))
                assert res.needle_bound_check["residual"] < 1e-6

    def test_rejects_volumes_above_half(self):
        with pytest.raises(OutOfDomain):
            solve_isoperimetric(SolveRequest(RP3, 0.6, 0.1))

    def test_request_validation(self):
        with pytest.raises(OutOfDomain):
            SolveRequest(RP3, 0.0, 0.1)
        with pytest.raises(OutOfDomain):
            SolveRequest(RP3, 0.3, -1.0)

    def test_saturated_complement_is_flagged(self):
        res = solve_isoperimetric(SolveRequest(S2, 0.5, 3.0))
        assert res.enlarged == pytest.approx(1.0)
        assert res.needle_bound_check["bound"] is None
        assert res.needle_bound_check["note"] == "saturated"

    def test_result_serializes(self):
        res = solve_isoperimetric(SolveRequest(RP3, 0.4, 0.05))
        rec = json.loads(json.dumps(res.to_dict()))
        assert rec["space"] == "rp3" and len(rec["candidates"]) == 3


class TestComplementReduction:
    def test_small_volumes_pass_through(self):
        assert solve_with_complement_reduction(RP3, 0.3, 0.1).complement_reduction is None

    def test_matches_direct_formula_above_half(self):
        # "direct" goes through each polar candidate's own profile:
        # mu(A_eps) = 1 - F_polar(Q_polar(1 - v) - eps)
        def polar_enlarged(c, v, eps):
            p = polar_of(c, RP3)
            return 1.0 - profile_cdf(p, RP3, max(profile_quantile(p, RP3, 1.0 - v) - eps, 0.0))

        for v in (0.55, 0.7, 0.9):
            res = solve_with_complement_reduction(RP3, v, 0.05)
            direct = min(polar_enlarged(c, v, 0.05) for c in catalog(RP3))
            assert res.enlarged == pytest.approx(direct, abs=1e-12)
            assert res.complement_reduction["applied"]
            assert res.complement_reduction["w"] == pytest.approx(
                1 - res.enlarged, abs=1e-12
            )

    def test_dual_problem_selects_polar_winner(self):
        res = solve_with_complement_reduction(CP2, 0.65, 0.05)
        w = 1.0 - res.enlarged
        dual = solve_isoperimetric(SolveRequest(CP2, w, 0.05))
        polar_labels = {polar_of(c, CP2).label for c in res.co_winners}
        assert polar_labels & {c.label for c in dual.co_winners}

    def test_sphere_complement_matches_cap_formula(self):
        # complement of a cap is a cap: the v > 1/2 route must reproduce the
        # direct closed form (1 - cos(r + eps))/2 at r with (1 - cos r)/2 = v
        v, eps = 0.7, 0.1
        res = solve_with_complement_reduction(S2, v, eps)
        r = math.acos(1 - 2 * v)
        assert res.enlarged == pytest.approx((1 - math.cos(r + eps)) / 2, abs=1e-10)
        assert res.winner.label == "ball"


class TestProfileCurve:
    def test_sphere_curve_is_all_ball(self):
        out = isoperimetric_profile_curve(S2, 0.1, np.linspace(0.05, 0.5, 20))
        assert {r["winner"] for r in out["rows"]} == {"ball"}
        assert out["crossovers"] == []

    def test_single_point_grid(self):
        out = isoperimetric_profile_curve(RP3, 0.05, [0.3])
        assert len(out["rows"]) == 1

    def test_rp3_crossover_detected_and_stable(self):
        grid = np.linspace(0.005, 0.5, 100)
        out = isoperimetric_profile_curve(RP3, 0.05, grid)
        assert len(out["crossovers"]) == 1
        v0 = out["crossovers"][0]["v0"]
        assert out["crossovers"][0]["from"] == "ball"
        assert out["crossovers"][0]["to"] == "tube around RP^1"
        assert abs(v0 - RP3_CROSSOVER_V0) < 1e-6
        doubled = isoperimetric_profile_curve(RP3, 0.05, np.linspace(0.0025, 0.5, 200))
        assert abs(doubled["crossovers"][0]["v0"] - v0) < 1e-6

    def test_grid_validation(self):
        with pytest.raises(OutOfDomain):
            isoperimetric_profile_curve(RP3, 0.05, [0.2, 0.7])

    def test_csv_emission(self):
        out = isoperimetric_profile_curve(S2, 0.1, [0.2, 0.4])
        text = profile_curve_csv(out)
        lines = text.splitlines()
        assert lines[0] == "v,winner,enlarged"
        assert len(lines) == 3


class TestMainInequality:
    def test_median_caps_touch(self):
        rep = check_main_inequality(S2, (0.5, 0.5), mc_samples=10000, seed=1)
        assert rep["sep_estimate"] == 0.0
        assert rep["bound"] == 0.0
        assert rep["ok"]

    def test_quarter_half_caps_realize_the_bound(self):
        rep = check_main_inequality(S2, (0.25, 0.5), mc_samples=10000, seed=1)
        assert rep["sep_estimate"] == pytest.approx(math.pi / 6, abs=1e-9)
        assert abs(rep["sep_estimate"] - rep["bound"]) < 1e-9
        assert rep["ok"]

    def test_s3_monte_carlo_oracle(self):
        rep = check_main_inequality(
            CrossSpace.sphere(3), (0.3, 0.5), mc_samples=100000, seed=7
        )
        assert rep["ok"] and rep["mc_within_3_sigma"]
        for tag in ("cap1", "cap2"):
            est = rep["mc"][tag]
            assert abs(est["estimate"] - est["closed_form"]) <= 3.5 * est["stderr"]

    def test_only_low_dimensional_spheres(self):
        with pytest.raises(NotApplicable):
            check_main_inequality(CrossSpace.sphere(5), (0.3, 0.5))
        with pytest.raises(NotApplicable):
            check_main_inequality(RP3, (0.3, 0.5))


class TestRealization:
    def test_rp3_self_dual_tube_realizes(self):
        tube = catalog(RP3)[1]
        rep = check_realization(RP3, tube, (0.25, 0.25))
        # distance pi/2 - 2 asin(1/2) = pi/6 by the sin^2 profile
        assert rep["distance"] == pytest.approx(math.pi / 6, abs=1e-9)
        assert rep["realizes"]

    def test_cp2_ball_against_polar_tube(self):
        ball = catalog(CP2)[0]
        rep = check_realization(CP2, ball, (0.25, 0.5))
        # closed form: diameter - asin((1/4)^(1/4)) - acos((1/2)^(1/4))
        expect = HALF_PI - math.asin(0.25**0.25) - math.acos(0.5**0.25)
        assert rep["distance"] == pytest.approx(expect, abs=1e-9)
        assert rep["realizes"] is False  # reported per case, no global claim

    def test_saturating_masses_give_zero_distance(self):
        cap2 = CrossSpace.cayley_plane()
        ball = catalog(cap2)[0]
        q = 0.5
        # choose k2 so the polar tube exactly meets the ball boundary
        k2 = 1.0 - q
        rep = check_realization(cap2, ball, (q, k2))
        assert rep["distance"] == pytest.approx(0.0, abs=1e-9)

    def test_spheres_not_applicable(self):
        with pytest.raises(NotApplicable):
            check_realization(S2, catalog(S2)[0], (0.3, 0.5))


class TestDeterminism:
    def test_identical_requests_identical_results(self):
        a = solve_isoperimetric(SolveRequest(RP3, 0.37, 0.08)).to_dict()
        b = solve_isoperimetric(SolveRequest(RP3, 0.37, 0.08)).to_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def _cap_cdf(n):
    if n == 2:
        return lambda t: (1 - math.cos(t)) / 2
    if n == 3:
        return lambda t: (t - math.sin(t) * math.cos(t)) / math.pi
    raise AssertionError


@pytest.mark.parametrize("n", [2, 3])
def test_enlargement_matches_independent_cap_quadrature(n):
    # independent oracle: cap radius by brentq on the closed-form fraction,
    # enlargement evaluated by the same closed form
    space = CrossSpace.sphere(n)
    ball = catalog(space)[0]
    F = _cap_cdf(n)
    for v in (0.12, 0.37):
        for eps in (0.07, 0.33):
            r = brentq(lambda t: F(t) - v, 1e-12, math.pi - 1e-12, xtol=1e-14)
            expect = F(min(r + eps, math.pi))
            got = enlarged_volume(ball, space, v, eps)
            assert got == pytest.approx(expect, abs=1e-10)
