import math

import numpy as np
import pytest

from needle_iso import (
    CrossSpace,
    NotApplicable,
    OutOfDomain,
    catalog,
    catalog_to_dict,
    enlarged_volume,
    polar_of,
    profile_cdf,
    profile_quantile,
    space_by_name,
)

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

    def test_descriptor_table(self):
        s = CrossSpace.sphere(4)
        assert (s.dim, s.diameter, s.ball_exponents) == (4, math.pi, (3, 0))
        rp = CrossSpace.real_projective(5)
        assert (rp.dim, rp.diameter, rp.ball_exponents) == (5, HALF_PI, (4, 0))
        cp = CrossSpace.complex_projective(3)
        assert (cp.dim, cp.diameter, cp.ball_exponents) == (6, HALF_PI, (5, 1))
        hp = CrossSpace.quaternionic_projective(2)
        assert (hp.dim, hp.diameter, hp.ball_exponents) == (8, HALF_PI, (7, 3))
        cap = CrossSpace.cayley_plane()
        assert (cap.dim, cap.diameter, cap.ball_exponents) == (16, HALF_PI, (15, 7))


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
