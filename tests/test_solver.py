import collections
import json
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from needle_iso import (
    CrossSpace,
    NotApplicable,
    OutOfDomain,
    RngSpec,
    SolveRequest,
    catalog,
    check_main_inequality,
    check_realization,
    cross_needle_bound,
    enlarged_volume,
    isoperimetric_profile_curve,
    mc_cap_mass,
    polar_of,
    profile_cdf,
    profile_curve_csv,
    profile_quantile,
    solve_isoperimetric,
    solve_with_complement_reduction,
    space_by_name,
    sphere_needle_bound,
)
from needle_iso import cross_spaces, needle_bound, oracles, solver
from needle_iso.cli import main
from needle_iso.cross_spaces import SPHERE, _catalog_table, _enlarged_difference
from needle_iso.oracles import _CHECKS, _Ctx, report_to_json, run_property_suite
from mp_reference import _mp_crossover

HALF_PI = math.pi / 2
S2 = CrossSpace.sphere(2)
S3 = CrossSpace.sphere(3)
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
        # at rp3's crossover the ball and the RP^1 tube lie within 1e-10: the
        # winner is the profile's, argmin, and the enlarged volume its own
        v = 0.39521623879933754
        res = solve_isoperimetric(SolveRequest(RP3, v, 0.05))
        assert dict(res.per_candidate)[res.winner] == res.enlarged
        assert len(res.co_winners) == 2
        (row,) = isoperimetric_profile_curve(RP3, 0.05, [v])["rows"]
        assert res.winner.label == row["winner"] == "tube around RP^1"

    def test_needle_check_reports_epsilon_for_realizing_winner(self):
        res = solve_isoperimetric(SolveRequest(RP3, 0.5, 0.1))
        assert res.needle_bound_check["residual"] < 1e-9

    def test_needle_check_over_the_grid_limit_raises(self, monkeypatch):
        # rp30000's default grid folds more needles than the limit allows
        monkeypatch.setattr(needle_bound, "_exponent_grid", None)  # never built
        with pytest.raises(OutOfDomain, match="grid limit"):
            solver._needle_check(space_by_name("rp30000"), 0.3, 0.6, 0.1)

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

    def test_numpy_scalars_are_stored_as_floats(self):
        req = SolveRequest(RP3, np.float32(0.3), np.int64(1))
        assert type(req.v) is float and type(req.epsilon) is float
        assert req.v == float(np.float32(0.3)) and req.epsilon == 1.0
        rec = json.loads(report_to_json(solve_isoperimetric(req).to_dict()))
        assert rec["v"] == req.v and rec["epsilon"] == 1.0

    def test_saturated_complement_is_flagged(self):
        res = solve_isoperimetric(SolveRequest(S2, 0.5, 3.0))
        assert res.enlarged == pytest.approx(1.0)
        assert res.needle_bound_check["bound"] is None
        assert res.needle_bound_check["note"] == "saturated"

    def test_result_serializes(self):
        res = solve_isoperimetric(SolveRequest(RP3, 0.4, 0.05))
        rec = json.loads(json.dumps(res.to_dict()))
        assert rec["space"] == "rp3" and len(rec["candidates"]) == 3


RP3_BALL = catalog(RP3)[0]


@pytest.mark.parametrize(
    "call",
    [
        lambda: SolveRequest(RP3, True, 0.1),
        lambda: SolveRequest(RP3, 0.3, True),
        lambda: SolveRequest(RP3, np.array([0.3, 0.4]), 0.1),
        lambda: SolveRequest(RP3, "0.3", 0.1),
        lambda: SolveRequest(RP3, None, 0.1),
        lambda: SolveRequest(RP3, 0.3, np.array([0.1, 0.2])),
        lambda: SolveRequest(RP3, 0.3, "0.1"),
        lambda: SolveRequest(RP3, 0.3, None),
        lambda: solve_with_complement_reduction(RP3, 0.7, True),
        lambda: enlarged_volume(RP3_BALL, RP3, 0.3, np.array([0.1, 0.2])),
        lambda: enlarged_volume(RP3_BALL, RP3, 0.3, True),
        lambda: isoperimetric_profile_curve(RP3, np.array([0.1, 0.2]), [0.1, 0.3]),
        lambda: isoperimetric_profile_curve(RP3, 0.1, 0.3),
        lambda: isoperimetric_profile_curve(RP3, 0.1, [[0.1, 0.2]]),
        lambda: space_by_name(3),
    ],
    ids=[
        "v-bool", "eps-bool", "v-array", "v-str", "v-none", "eps-array", "eps-str",
        "eps-none", "complement-eps-bool", "enlarged-eps-array", "enlarged-eps-bool",
        "profile-eps-array", "profile-scalar-grid", "profile-2d-grid", "space-int",
    ],
)
def test_untyped_inputs_are_out_of_domain(call):
    with pytest.raises(OutOfDomain):
        call()


def _record_fills(monkeypatch):
    """Every Gaussian fill the generators of ``RngSpec`` make, as
    ``(spawn key, count)`` in call order."""
    fills = []
    generator = RngSpec.generator

    class Recording:
        def __init__(self, gen, key):
            self.gen, self.key = gen, key

        def standard_normal(self, size):
            fills.append((self.key, size))
            return self.gen.standard_normal(size)

        def __getattr__(self, name):  # every other draw passes through
            return getattr(self.gen, name)

    monkeypatch.setattr(RngSpec, "generator", lambda self, *key: Recording(generator(self, *key), key))
    return fills


def _count_needle_checks(monkeypatch):
    calls = []
    inner = solver._needle_check

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(solver, "_needle_check", counted)
    return calls


class TestNeedleCheckOnFirstRead:
    def test_solver_group_evaluates_only_the_checks_it_reads(self, monkeypatch):
        # needle_bound_consistency reads 13 and request_determinism 4; the
        # 38 solves of winner_in_catalog and complement_reduction_duality none
        calls = _count_needle_checks(monkeypatch)
        run_property_suite("solver", 42)
        assert len(calls) == 17

    @pytest.mark.parametrize("v", ["0.3", "0.7"])
    @pytest.mark.parametrize("fmt, count", [("json", 1), ("human", 1), ("csv", 0)])
    def test_cli_solve_evaluates_what_it_prints(self, monkeypatch, capsys, v, fmt, count):
        calls = _count_needle_checks(monkeypatch)
        assert main(["solve", "--space", "cp2", "--v", v, "--eps", "0.05", "--format", fmt]) == 0
        capsys.readouterr()
        assert len(calls) == count

    def test_second_read_is_the_first_dict(self, monkeypatch):
        calls = _count_needle_checks(monkeypatch)
        res = solve_isoperimetric(SolveRequest(RP3, 0.3, 0.05))
        assert not calls
        first = res.needle_bound_check
        assert res.needle_bound_check is first and res.to_dict()["check"] == first
        assert len(calls) == 1

    @pytest.mark.parametrize("name", ["s2", "rp3", "cp2", "hp2", "cap2"])
    def test_value_is_the_check_at_the_complement_mass(self, name):
        space = space_by_name(name)
        for v in (0.1, 0.3, 0.5):
            res = solve_isoperimetric(SolveRequest(space, v, 0.05))
            expect = solver._needle_check(space, v, 1.0 - res.enlarged, 0.05)
            assert res.needle_bound_check == expect


def _public_bound(space, masses):
    """The public needle bound of ``space`` at ``masses``, forced."""
    if space.family == SPHERE:
        return sphere_needle_bound(space.dim, masses, force=True)
    return cross_needle_bound(space, masses, force=True)


class TestCheckOnce:
    # the closing check and check_realization call the bounds' cores on the
    # checked space and mass pair: the public entries' bits, no re-check
    @pytest.mark.parametrize("name", ["s2", "s3", "s7", "rp3", "rp5", "cp2", "cp3", "hp2", "cap2"])
    def test_closing_check_has_the_public_bound_bits(self, name):
        space = space_by_name(name)
        rng = np.random.default_rng(sum(map(ord, name)))
        volumes = np.concatenate([rng.uniform(0.03, 0.49, 4), rng.uniform(0.51, 0.97, 4)])
        for v, eps in zip(volumes, rng.uniform(0.02, 0.4, 8)):
            res = solve_with_complement_reduction(space, v, eps)
            check, w = res.needle_bound_check, 1.0 - res.enlarged
            assert check["w"] == w > 1e-12
            public = _public_bound(space, (res.v, w))
            assert float.hex(check["bound"]) == float.hex(public.bound)
            assert float.hex(check["residual"]) == float.hex(abs(public.bound - res.epsilon))
            assert check["hypothesis_satisfied"] is public.hypothesis_satisfied
            for candidate in [] if space.family == SPHERE else catalog(space):
                realization = check_realization(space, candidate, (res.v, w))
                assert float.hex(realization["bound"]) == float.hex(public.bound)

    def test_cp2_complement_witness(self):
        res = solve_with_complement_reduction(CP2, 0.7, 0.1)
        assert res.complement_reduction == {
            "applied": True,
            "w": 0.20060555185966966,
            "construction": "complement of the 0.1-enlargement of 'ball' at volume 0.20060555186",
        }
        assert res.needle_bound_check["w"] == 0.20060555185966966
        assert res.needle_bound_check["bound"] == 0.11666088939308106

    @pytest.mark.parametrize("name", ["cp2", "s3"])
    @pytest.mark.parametrize("v", [0.3, 0.7])
    def test_a_warm_solve_checks_its_inputs_once(self, monkeypatch, name, v):
        # SolveRequest checks the inputs; neither the candidate table nor
        # the closing check runs a public entry's checks again
        space = space_by_name(name)
        solve_with_complement_reduction(space, v, 0.1).to_dict()  # builds the cached records
        kinds = []
        for module in (needle_bound, cross_spaces):
            monkeypatch.setattr(
                module, "_check", lambda kind, *a, check=module._check, **k: kinds.append(kind) or check(kind, *a, **k)
            )
        solve_with_complement_reduction(space, v, 0.1).to_dict()
        assert kinds == []
        _public_bound(space, (v, 0.5))  # the public entries keep their checks
        assert {"dimension", "space"} & set(kinds)


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

    def test_record_edits_leave_the_result_alone(self):
        # to_dict once put the kept check and the complement record into its
        # record as they were, so editing the record edited the result
        res = solve_with_complement_reduction(RP3, 0.7, 0.05)
        rec = res.to_dict()
        rec["check"]["bound"] = -1.0
        rec["complement_reduction"]["w"] = 9
        assert res.needle_bound_check["bound"] > 0.0
        assert res.complement_reduction["w"] == pytest.approx(1 - res.enlarged, abs=1e-12)
        assert res.to_dict() == solve_with_complement_reduction(RP3, 0.7, 0.05).to_dict()

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

    def test_rejects_a_negative_epsilon(self):
        with pytest.raises(OutOfDomain):
            isoperimetric_profile_curve(RP3, -1.0, [0.1, 0.3])

    def test_rejects_a_nan_volume(self):
        with pytest.raises(OutOfDomain):
            isoperimetric_profile_curve(RP3, 0.05, [0.1, math.nan, 0.3])

    def test_rejects_a_nan_epsilon(self):
        with pytest.raises(OutOfDomain):
            isoperimetric_profile_curve(RP3, math.nan, [0.1, 0.3])

    def test_csv_emission(self):
        out = isoperimetric_profile_curve(S2, 0.1, [0.2, 0.4])
        text = profile_curve_csv(out)
        lines = text.splitlines()
        assert lines[0] == "v,winner,enlarged"
        assert len(lines) == 3


def _humps(space, eps, grid):
    """The ``(cell, winner, rival)`` of ``grid`` where winner minus rival
    rises at the cell's left end and falls at its right (the slopes of
    :func:`_enlarged_difference`), the shape two crossings inside a cell
    take; each with whether the cell's ends share their winner, and the
    largest difference on a 257-point scan of the cell, > 0 where the
    rival goes below."""
    cands, table = _catalog_table(space, grid, eps)
    best = np.argmin(table, axis=0)
    humps = []
    for j, i in enumerate(best[:-1]):
        for r in (r for r in range(len(cands)) if r != i):
            slope = _enlarged_difference(space, i, r, eps)
            if slope(grid[j])[1] > 0.0 > slope(grid[j + 1])[1]:
                _, fine = _catalog_table(space, np.linspace(grid[j], grid[j + 1], 257), eps)
                humps.append((j, i, r, best[j + 1] == i, float(np.max(fine[i] - fine[r]))))
    return humps


class TestHiddenCrossings:
    # the profile refines only where the winner changes between grid points
    @pytest.mark.parametrize("name", ["s2", "s3", "s7", "rp3", "cp2", "hp2", "cap2"])
    def test_no_same_winner_cell_hides_a_crossing(self, name):
        space = space_by_name(name)
        for eps in (0.03, 0.1, 0.3):
            for n in (24, 32, 40):
                humps = _humps(space, eps, np.linspace(0.5 / n, 0.5, n))  # the CLI's default grid
                assert [h for h in humps if h[3] and h[4] > 0.0] == []

    def test_a_hump_is_flagged(self):
        # at eps 0.9 on an 8-point grid the rp3 ball's first cell holds its
        # crossing with the tube around RP^1 inside a hump
        (j, i, r, same, top), *_ = _humps(RP3, 0.9, np.linspace(0.5 / 8, 0.5, 8))
        assert (j, i, r, same) == (0, 0, 1, False) and top > 0.0


@pytest.fixture
def passes(monkeypatch):
    """Counts the crossover passes of each refined crossover, in order."""
    counts = []

    def counted(*args):
        diff = _enlarged_difference(*args)
        counts.append(0)

        def step(v):
            counts[-1] += 1
            return diff(v)

        return step

    monkeypatch.setattr(solver, "_enlarged_difference", counted)
    return counts


class TestCrossoverRefinement:
    @pytest.mark.parametrize(
        "name,eps,count",
        [
            ("rp3", 0.05, 1), ("rp3", 0.1, 1), ("rp3", 0.3, 2),
            ("cp2", 0.2, 1), ("hp2", 0.2, 1), ("cap2", 0.036293, 1),
        ],
    )
    def test_v0_matches_40_digit_reference(self, passes, name, eps, count):
        space = space_by_name(name)
        cands = {c.label: c for c in catalog(space)}
        out = isoperimetric_profile_curve(space, eps, np.linspace(0.02, 0.5, 25))
        assert len(out["crossovers"]) == count
        # bisection to 1e-6 made about 15 steps of two enlarged_volume calls
        assert len(passes) == count and max(passes) <= 10
        for c in out["crossovers"]:
            ref = _mp_crossover(cands[c["from"]], cands[c["to"]], eps, c["v_low"], c["v_high"])
            assert c["v_low"] < c["v0"] < c["v_high"]
            assert abs(c["v0"] - float(ref)) < 1e-12

    def test_bracket_with_a_saturated_side(self, passes):
        # at eps 1.2 the RP^3 ball saturates near v = 0.021, past its crossing
        # with the tube around RP^1: the grid cell [0.0125, 0.025] ends saturated
        ball, tube = catalog(RP3)[:2]
        out = isoperimetric_profile_curve(RP3, 1.2, np.linspace(0.0125, 0.5, 40))
        first = out["crossovers"][0]
        assert (first["from"], first["to"]) == ("ball", "tube around RP^1")
        assert enlarged_volume(ball, RP3, first["v_high"], 1.2) == 1.0
        assert first["v_low"] < first["v0"] < first["v_high"]
        ref = float(_mp_crossover(ball, tube, 1.2, first["v_low"], first["v_high"]))
        assert abs(first["v0"] - ref) < 1e-12
        assert max(passes) <= 10
        # from a midpoint inside the saturated part, whose slope leaves the bracket
        v0 = solver._newton(_enlarged_difference(RP3, 0, 1, 1.2), 0.0125, 0.05)
        assert enlarged_volume(ball, RP3, 0.03125, 1.2) == 1.0
        assert abs(v0 - ref) < 1e-12

    @pytest.mark.parametrize("eps", [1.2, 1.4])
    def test_saturated_ties_are_no_crossover(self, eps):
        # all three candidates saturate in turn; past that every value is 1
        # and the first candidate (the ball) names the tie
        cands = {c.label: c for c in catalog(RP3)}
        out = isoperimetric_profile_curve(RP3, eps, np.linspace(0.025, 0.5, 20))
        want = {1.2: [("tube around RP^1", "tube around RP^2")], 1.4: []}[eps]
        assert [(c["from"], c["to"]) for c in out["crossovers"]] == want
        for c in out["crossovers"]:
            e_from = enlarged_volume(cands[c["from"]], RP3, c["v0"], eps)
            e_to = enlarged_volume(cands[c["to"]], RP3, c["v0"], eps)
            assert max(e_from, e_to) < 1.0 and abs(e_from - e_to) < 1e-15
        assert out["rows"][-1] == {"v": 0.5, "winner": "ball", "enlarged": 1.0}

    def test_slope_is_the_enlargement_derivative(self):
        # central differences of the enlarged volumes; a saturated
        # enlargement is flat, so only the other candidate's slope is left
        ball, tube = catalog(RP3)[:2]
        h = 1e-6
        for eps, v in ((0.1, 0.3), (1.2, 0.01), (1.2, 0.03)):
            _, slope = _enlarged_difference(RP3, 0, 1, eps)(v)
            fd = [(enlarged_volume(c, RP3, v + h, eps) - enlarged_volume(c, RP3, v - h, eps)) / (2 * h)
                  for c in (ball, tube)]
            assert slope == pytest.approx(fd[0] - fd[1], abs=1e-6)
        assert enlarged_volume(ball, RP3, 0.03 - h, 1.2) == 1.0


class TestNewton:
    def test_overshooting_slopes_fall_back_to_bisection(self):
        # Newton on atan diverges from far starts
        def fg(x):
            return math.atan(x - 0.3), 1.0 / (1.0 + (x - 0.3) ** 2)

        assert solver._newton(fg, -10.0, 20.0) == pytest.approx(0.3, abs=1e-15)

    def test_flat_side_falls_back_to_bisection(self):
        # slope 0 past 0.5, as for a saturated enlargement
        def fg(x):
            return min(x, 0.5) - 0.2, (1.0 if x < 0.5 else 0.0)

        assert solver._newton(fg, 0.0, 1.0) == pytest.approx(0.2, abs=1e-15)

    def test_stops_at_the_rounding_level(self):
        calls = []

        def fg(x):
            calls.append(x)
            return x * x - 2.0, 2.0 * x

        root = solver._newton(fg, 1.0, 2.0, ftol=4 * np.finfo(float).eps)
        assert abs(root - math.sqrt(2.0)) <= 2 * np.spacing(math.sqrt(2.0))
        assert len(calls) <= 6

    def test_stops_after_a_step_within_4_ulps(self):
        # no float squares to exactly 2, so an ftol of 0 is never met and
        # the search ends on its step rule: the point after the first step
        # within 4 ulps of the bracket's scale, without evaluating it
        values = []

        def fg(x):
            values.append(x * x - 2.0)
            return values[-1], 2.0 * x

        root = solver._newton(fg, 1.0, 2.0)
        assert 0.0 not in values
        assert abs(root - math.sqrt(2.0)) <= 2 * np.spacing(math.sqrt(2.0))
        assert len(values) <= 8


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

    @pytest.mark.parametrize("spaces", [[S2], [S3], [S2, S3]])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_many_pairs_share_draws_and_match_one_call_per_pair(self, spaces, threads):
        pairs = [(0.3, 0.5), (0.25, 0.5), (0.5, 0.5), (0.1, 0.8), (0.6, 0.2)]
        many = solver._check_main_inequalities(spaces, pairs, 20000, 11, threads)
        assert len(many) == len(spaces)
        for space, reps in zip(spaces, many):
            assert len(reps) == len(pairs)
            for pair, rep in zip(pairs, reps):
                one = check_main_inequality(space, pair, mc_samples=20000, seed=11, threads=threads)
                assert json.dumps(rep, sort_keys=True) == json.dumps(one, sort_keys=True)

    def test_many_pairs_draw_once(self, monkeypatch):
        # one fill per chunk of stream 0 serves both caps of every pair, at
        # the sphere's own width
        fills = _record_fills(monkeypatch)
        solver._check_main_inequalities([S2], [(0.3, 0.5), (0.25, 0.5), (0.2, 0.6)], 5000, 3, 1)
        assert fills == [((0, 0), 5000 * 3)]

    def test_two_spheres_draw_once_at_the_wider_width(self, monkeypatch):
        fills = _record_fills(monkeypatch)
        solver._check_main_inequalities([S2, S3], [(0.3, 0.5), (0.25, 0.5)], 40000, 3, 1)
        rows = [16384, 16384, 40000 - 2 * 16384]
        assert fills == [((0, c), r * 4) for c, r in enumerate(rows)]

    @pytest.mark.parametrize("suite", ["solver", "all"])
    def test_seed_42_makes_14_fills(self, monkeypatch, suite):
        # the S^2 + S^3 batch draws each of the 7 chunks of stream 0 once at
        # width 4, and request_determinism's one-pair S^2 call once at width
        # 3; no other check of the suite draws Gaussians
        fills = _record_fills(monkeypatch)
        run_property_suite(suite, 42)
        assert len(fills) == 14
        assert collections.Counter(key for key, _ in fills) == {(0, c): 2 for c in range(7)}
        assert sum(size for _, size in fills) == 100000 * 4 + 100000 * 3

    @pytest.mark.parametrize("spaces", [[S2], [S3], [S2, S3]])
    def test_both_caps_are_stream_0_estimates_at_their_own_radius(self, spaces):
        pairs = [(0.3, 0.5), (0.25, 0.5), (0.1, 0.8)]
        for space, reps in zip(spaces, solver._check_main_inequalities(spaces, pairs, 30000, 5, 1)):
            for rep in reps:
                for cap in rep["mc"].values():
                    own = mc_cap_mass(space.dim, cap["radius"], 30000, RngSpec(5), stream=0)
                    assert (cap["estimate"], cap["stderr"]) == (own["estimate"], own["stderr"])

    def test_seed_42_cap1_estimates_keep_their_bits(self):
        # frozen before both caps shared stream 0, when the k1 caps already
        # read it: sharing moved only the k2 caps
        frozen = {
            (2, 0.3): (1.1592794807274087, 0.2958, 0.0014432683742118095),
            (2, 0.25): (1.0471975511965976, 0.2465, 0.001362856375411584),
            (3, 0.3): (1.245392433274154, 0.29902, 0.0014477811975571447),
            (3, 0.25): (1.1549407300050283, 0.24863, 0.0013667959727040463),
        }
        pairs = [(0.3, 0.5), (0.25, 0.5)]
        for space, reps in zip([S2, S3], solver._check_main_inequalities([S2, S3], pairs, 100000, 42, 1)):
            for (k1, _), rep in zip(pairs, reps):
                cap = rep["mc"]["cap1"]
                assert (cap["radius"], cap["estimate"], cap["stderr"]) == frozen[space.dim, k1]

    @pytest.mark.parametrize("perturb", ["substream", "ulp"])
    def test_request_determinism_compares_two_routes(self, monkeypatch, perturb):
        # the one-pair route drawing from other substreams, or one ulp off
        # in one estimate, fails the check: it is not a call compared with itself
        check = _CHECKS["solver.request_determinism"]
        assert check(_Ctx(RngSpec(42), 1, 20000))["passed"]
        if perturb == "substream":
            kernel = solver._mc_cap_masses

            def one_sphere_elsewhere(dims, radii, samples, rng, stream, threads):
                return kernel(dims, radii, samples, rng, stream + 2 * (len(dims) == 1), threads)

            monkeypatch.setattr(solver, "_mc_cap_masses", one_sphere_elsewhere)
        else:
            route = oracles.check_main_inequality

            def nudged(*args, **kwargs):
                rep = route(*args, **kwargs)
                rep["mc"]["cap1"]["estimate"] = math.nextafter(rep["mc"]["cap1"]["estimate"], 1.0)
                return rep

            monkeypatch.setattr(oracles, "check_main_inequality", nudged)
        assert not check(_Ctx(RngSpec(42), 1, 20000))["passed"]

    @pytest.mark.parametrize("threads, other", [(1, 2), (2, 1), (4, 1)])
    def test_request_determinism_sides_run_on_different_thread_counts(self, monkeypatch, threads, other):
        # at threads=1 both sides once ran on one thread, so the check never
        # compared a serial estimate with a pooled one
        seen = []
        route = oracles.check_main_inequality

        def recorded(*args, **kwargs):
            seen.append(kwargs["threads"])
            return route(*args, **kwargs)

        monkeypatch.setattr(oracles, "check_main_inequality", recorded)
        assert _CHECKS["solver.request_determinism"](_Ctx(RngSpec(42), threads, 20000))["passed"]
        assert seen == [other]


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
