import math

import numpy as np
import pytest

from needle_iso import (
    Candidate,
    CrossSpace,
    Interval,
    NotApplicable,
    OutOfDomain,
    SolveRequest,
    TrigDensity,
    catalog,
    catalog_to_dict,
    check_main_inequality,
    check_realization,
    cross_needle_bound,
    cross_needle_bounds,
    enlarged_volume,
    isoperimetric_profile_curve,
    normalize,
    polar_of,
    profile_cdf,
    profile_quantile,
    radial_density,
    solve_isoperimetric,
    solve_with_complement_reduction,
    space_by_name,
)
import needle_iso.cross_spaces as cross_spaces
import needle_iso.solver as solver
from needle_iso.cross_spaces import _catalog_table, _enlarge, _record, _row

HALF_PI = math.pi / 2


def _labels_and_exponents(space):
    return [(c.label, (c.a, c.b)) for c in catalog(space)]


class TestCatalog:
    def test_sphere_has_only_the_ball(self):
        assert _labels_and_exponents(CrossSpace.sphere(2)) == [("ball", (1.0, 0.0))]

    def test_rp3_chain(self):
        assert _labels_and_exponents(CrossSpace.real_projective(3)) == [
            ("ball", (2.0, 0.0)),
            ("tube around RP^1", (1.0, 1.0)),
            ("tube around RP^2", (0.0, 2.0)),
        ]

    def test_cayley_plane_pair(self):
        assert _labels_and_exponents(CrossSpace.cayley_plane()) == [
            ("ball", (15.0, 7.0)),
            ("tube around CaP^1", (7.0, 15.0)),
        ]

    def test_cp3_chain(self):
        assert _labels_and_exponents(CrossSpace.complex_projective(3)) == [
            ("ball", (5.0, 1.0)),
            ("tube around CP^1", (3.0, 3.0)),
            ("tube around CP^2", (1.0, 5.0)),
        ]

    def test_exponent_admissibility(self):
        spaces = (
            [CrossSpace.sphere(n) for n in (2, 3, 7)]
            + [CrossSpace.real_projective(n) for n in range(2, 9)]
            + [CrossSpace.complex_projective(n) for n in range(1, 4)]
            + [CrossSpace.quaternionic_projective(n) for n in range(1, 4)]
            + [CrossSpace.cayley_plane()]
        )
        for space in spaces:
            for cand in catalog(space):
                assert cand.a + cand.b >= space.dim - 1

    @pytest.mark.parametrize(
        "build, n",
        [
            (CrossSpace.sphere, 2.5),
            (CrossSpace.sphere, math.nan),
            (CrossSpace.real_projective, 3.5),
            (CrossSpace.complex_projective, 1.5),
            (CrossSpace.quaternionic_projective, math.inf),
        ],
    )
    def test_index_must_be_a_finite_integer(self, build, n):
        # sphere(2.5) used to build a space with ball exponents (1.5, 0)
        with pytest.raises(OutOfDomain):
            build(n)

    @pytest.mark.parametrize("build, n", [(CrossSpace.sphere, 1), (CrossSpace.complex_projective, 0)])
    def test_index_below_the_family_floor_raises(self, build, n):
        with pytest.raises(OutOfDomain, match="require n >="):
            build(n)

    def test_integer_valued_float_index_accepted(self):
        s = CrossSpace.sphere(3.0)
        assert s == CrossSpace.sphere(3) and s.name == "s3" and type(s.index) is int

    def test_descriptor_table(self):
        s = CrossSpace.sphere(4)
        assert (s.dim, s.diameter, catalog(s)[0].exponents) == (4, math.pi, (3, 0))
        rp = CrossSpace.real_projective(5)
        assert (rp.dim, rp.diameter, catalog(rp)[0].exponents) == (5, HALF_PI, (4, 0))
        cp = CrossSpace.complex_projective(3)
        assert (cp.dim, cp.diameter, catalog(cp)[0].exponents) == (6, HALF_PI, (5, 1))
        hp = CrossSpace.quaternionic_projective(2)
        assert (hp.dim, hp.diameter, catalog(hp)[0].exponents) == (8, HALF_PI, (7, 3))
        cap = CrossSpace.cayley_plane()
        assert (cap.dim, cap.diameter, catalog(cap)[0].exponents) == (16, HALF_PI, (15, 7))


class TestProfiles:
    def test_hemisphere(self):
        s2 = CrossSpace.sphere(2)
        ball = catalog(s2)[0]
        assert profile_cdf(ball, s2, HALF_PI) == pytest.approx(0.5, abs=1e-12)
        assert profile_quantile(ball, s2, 0.5) == pytest.approx(HALF_PI, abs=1e-9)

    def test_cp2_ball_quartic_sine(self):
        # oracle: F(r) = sin^4(r)
        cp2 = CrossSpace.complex_projective(2)
        ball = catalog(cp2)[0]
        assert profile_cdf(ball, cp2, math.pi / 4) == pytest.approx(0.25, abs=1e-12)
        assert profile_quantile(ball, cp2, 0.25) == pytest.approx(math.pi / 4, abs=1e-9)

    def test_full_radius_reaches_one(self):
        hp2 = CrossSpace.quaternionic_projective(2)
        for cand in catalog(hp2):
            assert profile_cdf(cand, hp2, hp2.diameter) == pytest.approx(1.0, abs=1e-12)
            assert profile_quantile(cand, hp2, 1.0) == hp2.diameter

    def test_out_of_domain_radius(self):
        s2 = CrossSpace.sphere(2)
        with pytest.raises(OutOfDomain):
            profile_cdf(catalog(s2)[0], s2, 4.0)

    def test_nan_radius_and_volume_raise(self):
        # a NaN fails every range comparison, so it must not pass as in range
        rp3 = CrossSpace.real_projective(3)
        ball = catalog(rp3)[0]
        for r in (math.nan, [0.1, math.nan]):
            with pytest.raises(OutOfDomain):
                profile_cdf(ball, rp3, r)
        with pytest.raises(OutOfDomain):
            profile_quantile(ball, rp3, math.nan)

    def test_strictly_increasing(self):
        # strictness is asserted where the increments are representable;
        # sin^15 cos^7 has sub-epsilon mass near the endpoints
        cap2 = CrossSpace.cayley_plane()
        r = np.linspace(0.0, HALF_PI, 101)
        for cand in catalog(cap2):
            f = profile_cdf(cand, cap2, r)
            assert np.all(np.diff(f) >= 0)
            interior = (f[:-1] > 1e-9) & (f[1:] < 1 - 1e-9)
            assert np.all(np.diff(f)[interior] > 0)


class TestEnlargedVolume:
    def test_sphere_cap_closed_form(self):
        # oracle: cap fraction (1 - cos(r + eps))/2 at r = pi/2 equals
        # (1 + sin eps)/2
        s2 = CrossSpace.sphere(2)
        got = enlarged_volume(catalog(s2)[0], s2, 0.5, 0.2)
        assert got == pytest.approx((1 + math.sin(0.2)) / 2, abs=1e-10)

    def test_saturates_at_one(self):
        rp2 = CrossSpace.real_projective(2)
        assert enlarged_volume(catalog(rp2)[0], rp2, 0.5, 2.0) == pytest.approx(1.0)

    def test_rp2_ball_closed_form(self):
        # oracle: F = 1 - cos on [0, pi/2]; Q(0.25) = acos(3/4)
        rp2 = CrossSpace.real_projective(2)
        got = enlarged_volume(catalog(rp2)[0], rp2, 0.25, 0.1)
        assert got == pytest.approx(1 - math.cos(math.acos(0.75) + 0.1), abs=1e-10)

    def test_epsilon_must_be_positive(self):
        s2 = CrossSpace.sphere(2)
        with pytest.raises(OutOfDomain):
            enlarged_volume(catalog(s2)[0], s2, 0.3, 0.0)

    @pytest.mark.parametrize("name", ["s2", "rp3"])
    @pytest.mark.parametrize("eps", [0.05, 3.5])
    def test_array_of_volumes_matches_scalar_calls(self, name, eps):
        # eps = 3.5 exceeds both diameters, so every enlargement saturates
        space = space_by_name(name)
        v = np.array([1e-12, 1e-6, 0.1, 0.5, 0.9, 1 - 1e-9, 1.0])
        for cand in catalog(space):
            got = enlarged_volume(cand, space, v, eps)
            assert got.shape == v.shape
            assert got.tolist() == [enlarged_volume(cand, space, float(x), eps) for x in v]
            assert isinstance(enlarged_volume(cand, space, 0.1, eps), float)

    @pytest.mark.parametrize("name", ["rp3", "cp2", "hp2", "cap2"])
    def test_epsilon_sweep_in_one_pass_matches_scalar_calls_bitwise(self, name):
        # the sweep solver.enlargement_monotonicity takes at v = 0.3
        space = space_by_name(name)
        eps = np.linspace(0.02, 0.3, 8)
        for cand in catalog(space):
            swept = _enlarge(_row(cand, space), 0.3, eps)[0]
            assert swept.tolist() == [enlarged_volume(cand, space, 0.3, e) for e in eps]


BATCH_SPACES = ["s2", "s3", "s7", "rp3", "rp4", "cp2", "hp2", "cap2"]
# on both sides of 1/2, with the ends of the unit interval
VOLUMES = [0.0, 1e-9, 0.03, 0.25, 0.4999, 0.5, 0.5001, 0.75, 0.97, 1.0]


def _as_list(x):
    return np.asarray(x).tolist()


class TestCatalogPass:
    @pytest.mark.parametrize("name", BATCH_SPACES)
    def test_batched_pass_equals_per_candidate_calls_bitwise(self, name):
        # eps = diameter saturates every enlargement of positive volume
        space = space_by_name(name)
        for eps in (0.05, 0.3, space.diameter):
            for v in [*VOLUMES, np.array(VOLUMES)]:
                cands, table = _catalog_table(space, np.array(v), eps)
                assert cands == tuple(catalog(space))
                assert table.shape == (len(cands),) + np.shape(v)
                for cand, row in zip(cands, table):
                    assert _as_list(row) == _as_list(enlarged_volume(cand, space, v, eps))
            if eps == space.diameter:
                assert np.all(table[:, 1:] == 1.0)

    @pytest.mark.parametrize("name", BATCH_SPACES)
    def test_only_saturated_values_leave_the_density_route(self, name):
        # the route of a fresh normalized density: its quantile, then its CDF
        space = space_by_name(name)
        v = np.array(VOLUMES)
        for cand in catalog(space):
            d = normalize(TrigDensity(m=cand.b, k=cand.a, interval=Interval(0.0, space.diameter)))
            for eps in (0.05, 0.3, space.diameter):
                r = np.minimum(d.quantile(v) + eps, space.diameter)
                want = np.where(r >= space.diameter, 1.0, d.cdf(r))
                assert _as_list(enlarged_volume(cand, space, v, eps)) == want.tolist()

    def test_record_is_cached_shared_and_read_only(self):
        cp2 = space_by_name("cp2")
        rec = _record(cp2)
        assert _record(CrossSpace.complex_projective(2)) is rec
        arrays = list(rec.needle)
        assert arrays and not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError):
            rec.needle.total[0, 0] = 1.0
        assert rec.cosine.tolist() == [[c.b] for c in rec.candidates]
        assert rec.sine.tolist() == [[c.a] for c in rec.candidates]
        for column in (rec.cosine, rec.sine):
            with pytest.raises(ValueError):
                column[0, 0] = 1.0
        v = np.array(VOLUMES)
        first = _catalog_table(cp2, v, 0.2)[1]
        assert _catalog_table(cp2, v, 0.2)[1].tolist() == first.tolist()
        ball = catalog(cp2)[0]
        assert enlarged_volume(ball, cp2, v, 0.2).tolist() == enlarged_volume(ball, cp2, v, 0.2).tolist()

    def test_rows_are_sliced_once_from_the_catalog_fold(self):
        cp2 = space_by_name("cp2")
        rec = _record(cp2)
        for i, cand in enumerate(catalog(cp2)):
            row = rec.rows[cand]
            assert _record(cp2).rows[cand] is row
            assert [float(f) for f in row] == [float(f[i, 0]) for f in rec.needle]

    def test_catalog_is_a_fresh_list_of_the_record_candidates(self):
        cp2 = space_by_name("cp2")
        cands = catalog(cp2)
        assert len(cands) == len(_record(cp2).candidates) == 2
        assert all(c is r for c, r in zip(cands, _record(cp2).candidates))
        cands.reverse()
        cands.append(cands[0])
        assert catalog(cp2) == list(_record(cp2).candidates)
        assert [c.label for c in catalog(cp2)] == ["ball", "tube around CP^1"]

    def test_candidate_outside_the_catalog_gets_a_fresh_density(self):
        rp3 = space_by_name("rp3")
        odd = Candidate("custom", 3.0, 1.0, "custom")
        assert radial_density(odd, rp3) is not radial_density(odd, rp3)
        d = normalize(TrigDensity(m=1.0, k=3.0, interval=Interval(0.0, HALF_PI)))
        assert enlarged_volume(odd, rp3, 0.3, 0.1) == d.cdf(d.quantile(0.3) + 0.1)

    def test_candidate_outside_the_catalog_takes_the_needle_domain(self):
        # sin cos on [0, pi] is negative past pi/2: no profile of s2
        s2 = space_by_name("s2")
        odd = Candidate("x", 1.0, 1.0, "x")
        for read in (
            lambda: profile_cdf(odd, s2, 0.5),
            lambda: profile_quantile(odd, s2, 0.5),
            lambda: enlarged_volume(odd, s2, 0.3, 0.1),
            lambda: radial_density(odd, s2),
        ):
            with pytest.raises(OutOfDomain):
                read()

    def test_volumes_outside_the_unit_interval_raise(self):
        rp3 = space_by_name("rp3")
        for v in (-0.1, 1.1, math.nan):
            with pytest.raises(OutOfDomain):
                enlarged_volume(catalog(rp3)[0], rp3, v, 0.1)
            with pytest.raises(OutOfDomain):
                profile_quantile(catalog(rp3)[0], rp3, v)


class TestOneRadialPath:
    """Every profile read of a catalog candidate equals, bit for bit, the
    CDF and quantile of a fresh normalized density of its profile."""

    @pytest.mark.parametrize("name", BATCH_SPACES)
    def test_profile_reads_equal_the_fresh_density_route(self, name):
        space = space_by_name(name)
        v = np.array(VOLUMES)
        r = np.linspace(0.0, space.diameter, 13)  # both ends exactly
        for cand in catalog(space):
            d = radial_density(cand, space)
            assert radial_density(cand, space) is not d
            assert _as_list(profile_cdf(cand, space, r)) == _as_list(d.cdf(r))
            assert [profile_cdf(cand, space, x) for x in r] == [d.cdf(x) for x in r]
            assert _as_list(profile_quantile(cand, space, v)) == _as_list(d.quantile(v))
            assert [profile_quantile(cand, space, x) for x in VOLUMES] == [d.quantile(x) for x in VOLUMES]
            for eps in (0.05, 0.3, space.diameter):
                want = d.cdf(np.minimum(d.quantile(v) + eps, space.diameter))
                assert _as_list(enlarged_volume(cand, space, v, eps)) == _as_list(want)

    def test_high_dimensional_catalog_needs_no_raw_mass(self):
        # sin^89 on [0, pi/2] has raw mass below the density floor, which
        # the catalog fold, in quarter masses, never reads; mpmath reference
        rp90 = space_by_name("rp90")
        got = enlarged_volume(catalog(rp90)[0], rp90, 0.3, 0.05)
        assert got == pytest.approx(0.57375189607945198279, abs=1e-13)


class TestSaturation:
    def test_profile_ends_are_exact(self):
        # the mirrored pure-sine fold of the RP^3 ball read 1 - 2^-53 at pi/2
        for name in BATCH_SPACES:
            space = space_by_name(name)
            for cand in catalog(space):
                assert profile_cdf(cand, space, 0.0) == 0.0
                assert profile_cdf(cand, space, space.diameter) == 1.0
                assert profile_quantile(cand, space, [0.0, 1.0]).tolist() == [0.0, space.diameter]

    def test_saturated_rp3_ball_reads_one(self):
        rp3 = space_by_name("rp3")
        ball = catalog(rp3)[0]
        assert profile_cdf(ball, rp3, HALF_PI) == 1.0
        assert enlarged_volume(ball, rp3, 0.959361, 0.129673) == 1.0
        assert enlarged_volume(ball, rp3, np.array([0.2, 0.5]), 1.4).tolist() == [1.0, 1.0]


class TestPolar:
    def test_cayley_ball_and_tube_swap(self):
        cap2 = CrossSpace.cayley_plane()
        ball, tube = catalog(cap2)
        assert polar_of(ball, cap2) == tube
        assert polar_of(tube, cap2) == ball

    def test_rp3_middle_tube_self_dual(self):
        rp3 = CrossSpace.real_projective(3)
        tube = catalog(rp3)[1]
        assert polar_of(tube, rp3) == tube

    def test_involution(self):
        cp3 = CrossSpace.complex_projective(3)
        for cand in catalog(cp3):
            assert polar_of(polar_of(cand, cp3), cp3) == cand

    def test_not_applicable_for_spheres(self):
        s2 = CrossSpace.sphere(2)
        with pytest.raises(NotApplicable):
            polar_of(catalog(s2)[0], s2)

    def test_off_catalog_candidate_has_no_polar(self):
        with pytest.raises(NotApplicable, match="no catalog polar"):
            polar_of(Candidate("cap", 5.0, 0.0, "cap"), CrossSpace.real_projective(3))

    @pytest.mark.parametrize("name", ["rp3", "rp5", "cp3", "hp2", "cap2"])
    def test_polar_label_names_the_polar_candidate(self, name):
        space = space_by_name(name)
        for cand in catalog(space):
            assert cand.polar_label == polar_of(cand, space).label

    def test_sphere_ball_is_its_own_polar_label(self):
        assert catalog(CrossSpace.sphere(2))[0].polar_label == "ball"


class TestDualityAndCoincidence:
    def test_duality_identity_over_catalogs(self):
        spaces = (
            [CrossSpace.real_projective(n) for n in range(2, 9)]
            + [CrossSpace.complex_projective(n) for n in range(1, 4)]
            + [CrossSpace.quaternionic_projective(n) for n in range(1, 4)]
            + [CrossSpace.cayley_plane()]
        )
        r = np.linspace(0.0, HALF_PI, 301)
        for space in spaces:
            for cand in catalog(space):
                polar = polar_of(cand, space)
                total = profile_cdf(cand, space, r) + profile_cdf(
                    polar, space, HALF_PI - r
                )
                assert float(np.max(np.abs(total - 1.0))) < 1e-10

    def test_cp1_matches_small_two_sphere(self):
        # CP^1 is the radius-1/2 sphere: ball fraction at r equals the cap
        # fraction at angle 2r, i.e. (1 - cos 2r)/2
        cp1 = CrossSpace.complex_projective(1)
        r = np.linspace(0.0, HALF_PI, 1000)
        got = profile_cdf(catalog(cp1)[0], cp1, r)
        assert float(np.max(np.abs(got - (1 - np.cos(2 * r)) / 2))) < 1e-9

    def test_hp1_matches_small_four_sphere(self):
        # S^4 cap fraction at angle u: (2 - 3 cos u + cos^3 u)/4
        hp1 = CrossSpace.quaternionic_projective(1)
        r = np.linspace(0.0, HALF_PI, 1000)
        c = np.cos(2 * r)
        got = profile_cdf(catalog(hp1)[0], hp1, r)
        assert float(np.max(np.abs(got - (2 - 3 * c + c**3) / 4))) < 1e-9


class TestNamesAndSerialization:
    @pytest.mark.parametrize(
        "name,family,dim",
        [
            ("s2", "sphere", 2),
            ("s7", "sphere", 7),
            ("rp3", "real-projective", 3),
            ("cp2", "complex-projective", 4),
            ("hp1", "quaternionic-projective", 4),
            ("cap2", "cayley-plane", 16),
        ],
    )
    def test_space_by_name(self, name, family, dim):
        space = space_by_name(name)
        assert space.family == family and space.dim == dim
        assert space.name == name

    def test_unknown_name(self):
        with pytest.raises(OutOfDomain):
            space_by_name("k3-surface")

    def test_catalog_dump_shape(self):
        rec = catalog_to_dict(CrossSpace.real_projective(3))
        assert rec["space"] == "rp3"
        assert [c["label"] for c in rec["candidates"]] == [
            "ball",
            "tube around RP^1",
            "tube around RP^2",
        ]
        assert all({"label", "a", "b", "polar"} <= set(c) for c in rec["candidates"])
        # further chains, with their exponents and polar labels
        chains = {
            "rp4": [
                ("ball", 3.0, 0.0, "tube around RP^3"),
                ("tube around RP^1", 2.0, 1.0, "tube around RP^2"),
                ("tube around RP^2", 1.0, 2.0, "tube around RP^1"),
                ("tube around RP^3", 0.0, 3.0, "ball"),
            ],
            "hp3": [
                ("ball", 11.0, 3.0, "tube around HP^2"),
                ("tube around HP^1", 7.0, 7.0, "tube around HP^1"),
                ("tube around HP^2", 3.0, 11.0, "ball"),
            ],
        }
        for name, chain in chains.items():
            rec = catalog_to_dict(space_by_name(name))
            assert rec["space"] == name
            assert [(c["label"], c["a"], c["b"], c["polar"]) for c in rec["candidates"]] == chain


_CP2 = CrossSpace.complex_projective(2)
_BALL = catalog(_CP2)[0]
# every public entry that takes a space, with valid other arguments
_SPACE_ENTRIES = {
    "SolveRequest": lambda s: SolveRequest(s, 0.3, 0.1),
    "solve_isoperimetric": lambda s: solve_isoperimetric(SolveRequest(s, 0.3, 0.1)),
    "solve_with_complement_reduction": lambda s: solve_with_complement_reduction(s, 0.7, 0.1),
    "isoperimetric_profile_curve": lambda s: isoperimetric_profile_curve(s, 0.1, [0.1, 0.3]),
    "cross_needle_bound": lambda s: cross_needle_bound(s, (0.3, 0.6)),
    "cross_needle_bounds": lambda s: cross_needle_bounds(s, [(0.3, 0.6)]),
    "check_main_inequality": lambda s: check_main_inequality(s, (0.3, 0.5), mc_samples=10),
    "check_realization": lambda s: check_realization(s, _BALL, (0.3, 0.6)),
    "catalog": catalog,
    "catalog_to_dict": catalog_to_dict,
    "enlarged_volume": lambda s: enlarged_volume(_BALL, s, 0.3, 0.1),
    "polar_of": lambda s: polar_of(_BALL, s),
    "profile_cdf": lambda s: profile_cdf(_BALL, s, 0.3),
    "profile_quantile": lambda s: profile_quantile(_BALL, s, 0.3),
    "radial_density": lambda s: radial_density(_BALL, s),
}


class TestNotASpace:
    @pytest.mark.parametrize(
        "space", ["cp2", None, 3, ["cp2"], {"space": "cp2"}], ids=["name", "none", "int", "list", "dict"]
    )
    @pytest.mark.parametrize("entry", sorted(_SPACE_ENTRIES))
    def test_raises_out_of_domain(self, entry, space):
        # a name string once raised AttributeError from deep inside the call,
        # and a list or a dict the catalog cache's bare TypeError (unhashable)
        with pytest.raises(OutOfDomain, match="space_by_name"):
            _SPACE_ENTRIES[entry](space)

    def test_cached_record_reads_skip_the_check(self, monkeypatch):
        # the check runs when a space's catalog record is built, not on
        # each read of a cached one
        enlarged_volume(_BALL, _CP2, 0.3, 0.1)
        kinds = _recorded_checks(monkeypatch, cross_spaces)
        enlarged_volume(_BALL, _CP2, 0.3, 0.1)
        profile_quantile(_BALL, _CP2, 0.3)
        profile_cdf(_BALL, _CP2, 0.3)
        _catalog_table(_CP2, np.array([0.1, 0.3]), 0.1)
        assert kinds["cross_spaces"] and "space" not in kinds["cross_spaces"]

    def test_a_warm_profile_checks_its_epsilon_and_grid_once(self, monkeypatch):
        # the table and the crossover refinement read the record unchecked
        rp3, grid = space_by_name("rp3"), np.linspace(0.5 / 40, 0.5, 40)
        isoperimetric_profile_curve(rp3, 0.1, grid)
        kinds = _recorded_checks(monkeypatch, cross_spaces, solver)
        assert isoperimetric_profile_curve(rp3, 0.1, grid)["crossovers"]
        assert kinds == {"cross_spaces": [], "solver": ["epsilon", "volume grid"]}

    def test_a_warm_polar_of_checks_only_its_candidate(self, monkeypatch):
        # the polar is found among the record's candidates, not a fresh catalog
        tube = polar_of(_BALL, _CP2)
        kinds = _recorded_checks(monkeypatch, cross_spaces)
        assert polar_of(_BALL, _CP2) is tube
        assert kinds == {"cross_spaces": ["candidate"]}

    def test_a_warm_catalog_checks_nothing(self, monkeypatch):
        # the candidates and their exponent checks are made with the record
        catalog(_CP2)
        kinds = _recorded_checks(monkeypatch, cross_spaces)
        assert catalog(_CP2) == list(_record(_CP2).candidates)
        assert kinds == {"cross_spaces": []}

    def test_a_warm_antipodal_cap_check_checks_only_its_space(self, monkeypatch):
        # the cap radii are one quantile call on the sphere's record
        s2 = space_by_name("s2")
        check_main_inequality(s2, (0.3, 0.5), mc_samples=1000)
        kinds = _recorded_checks(monkeypatch, cross_spaces, solver)
        check_main_inequality(s2, (0.3, 0.5), mc_samples=1000)
        assert kinds == {"cross_spaces": [], "solver": ["space"]}

    def test_a_warm_realization_checks_its_candidate_once(self, monkeypatch):
        # polar_of checks the candidate, and both quantiles read record rows
        check_realization(_CP2, _BALL, (0.3, 0.6))
        kinds = _recorded_checks(monkeypatch, cross_spaces)
        check_realization(_CP2, _BALL, (0.3, 0.6))
        assert kinds == {"cross_spaces": ["candidate"]}

    @pytest.mark.parametrize(
        "read, want",
        [
            (lambda: profile_cdf(_BALL, _CP2, 0.3), ["candidate", "radii"]),
            (lambda: profile_quantile(_BALL, _CP2, 0.3), ["candidate", "fractions"]),
            (lambda: enlarged_volume(_BALL, _CP2, 0.3, 0.1), ["epsilon", "candidate", "fractions"]),
        ],
        ids=["profile_cdf", "profile_quantile", "enlarged_volume"],
    )
    def test_a_warm_record_reader_checks_each_input_once(self, monkeypatch, read, want):
        # each checks its own candidate, since _row reads the record unchecked
        read()
        kinds = _recorded_checks(monkeypatch, cross_spaces)
        read()
        assert kinds == {"cross_spaces": want}


def _recorded_checks(monkeypatch, *modules):
    """The parameter kinds each of ``modules`` checks from now on, as lists
    by module name, each check still run."""
    kinds = {}
    for module in modules:
        seen = kinds.setdefault(module.__name__.rsplit(".", 1)[1], [])
        check = module._check
        monkeypatch.setattr(
            module, "_check", lambda kind, *a, seen=seen, check=check, **k: seen.append(kind) or check(kind, *a, **k)
        )
    return kinds


# every public entry that takes a candidate, with valid other arguments
_CANDIDATE_ENTRIES = {
    "check_realization": lambda c: check_realization(_CP2, c, (0.3, 0.6)),
    "enlarged_volume": lambda c: enlarged_volume(c, _CP2, 0.3, 0.1),
    "polar_of": lambda c: polar_of(c, _CP2),
    "profile_cdf": lambda c: profile_cdf(c, _CP2, 0.3),
    "profile_quantile": lambda c: profile_quantile(c, _CP2, 0.3),
    "radial_density": lambda c: radial_density(c, _CP2),
}


class TestNotACandidate:
    @pytest.mark.parametrize(
        "candidate", ["ball", None, 3, ["ball"], (3.0, 1.0)], ids=["label", "none", "int", "list", "exponents"]
    )
    @pytest.mark.parametrize("entry", sorted(_CANDIDATE_ENTRIES))
    def test_raises_out_of_domain(self, entry, candidate):
        # each once raised AttributeError reading the candidate's exponents,
        # and a list the catalog lookup's bare TypeError (unhashable)
        with pytest.raises(OutOfDomain, match="expected a Candidate"):
            _CANDIDATE_ENTRIES[entry](candidate)
