import collections
import dataclasses
import hashlib
import itertools
import json
import math
import sys
import tracemalloc

import numpy as np
import pytest

from needle_iso import (
    Candidate,
    CrossSpace,
    Interval,
    OutOfDomain,
    RngSpec,
    SinAffineDensity,
    TrigDensity,
    batch_affine_sep,
    batch_trig_sep,
    binomial_decompose,
    catalog,
    is_sin_concave,
    mc_cap_mass,
    normalize,
    polar_of,
    profile_cdf,
    profile_quantile,
    quadrature,
    report_to_json,
    run_property_suite,
    sep_1d,
    sep_1d_bruteforce,
    solve_isoperimetric,
)
from needle_iso.concavity import _product_margin
from needle_iso.densities import _checked_fold, _trig_pdf
from needle_iso.oracles import _CHECKS, _Ctx, _suite_spaces, _trig_draw, suite_check_names
from needle_iso.needle_bound import _sphere_needle
from needle_iso.sampling import _affine_draws, _mc_cap_masses, as_rng_spec
from needle_iso.separation import _extreme_gap, _needle_gaps
from needle_iso.solver import _check_main_inequalities

SEED = 42

# density.order_reduction's violation count at suite seeds 0-39, 42, 99, 2024
_ORDER_REDUCTION_VIOLATIONS = {
    **dict(
        enumerate(
            [82, 80, 87, 84, 76, 82, 85, 80, 86, 85, 80, 72, 76, 80, 83, 77, 86, 84, 75, 86]
            + [85, 76, 74, 80, 81, 81, 81, 82, 78, 73, 78, 83, 82, 82, 79, 87, 83, 82, 78, 85]
        )
    ),
    42: 77,
    99: 91,
    2024: 86,
}


@pytest.fixture(scope="module")
def full_report():
    # one full run shared by the aggregation and example tests (seeded, so
    # the outcome is identical on every machine)
    return run_property_suite("all", SEED, threads=1, mc_samples=40000)


class TestRngSpec:
    def test_algorithm_contract(self):
        # pcg64 is the only generator: a class constant, not a field, so a
        # spec cannot name another one and the seed is its only state
        assert RngSpec.algorithm == RngSpec(1).algorithm == "pcg64"
        assert [f.name for f in dataclasses.fields(RngSpec)] == ["seed"]
        with pytest.raises(TypeError):
            RngSpec(1, algorithm="mt19937")
        assert isinstance(RngSpec(1).generator(0).bit_generator, np.random.PCG64)

    def test_same_seed_same_stream(self):
        a = RngSpec(123).generator(0).standard_normal(8)
        b = RngSpec(123).generator(0).standard_normal(8)
        assert np.array_equal(a, b)

    def test_substreams_differ(self):
        a = RngSpec(123).generator(0).standard_normal(8)
        b = RngSpec(123).generator(1).standard_normal(8)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [-1, 1.7, True, math.nan, "3"])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        # -1 used to raise a bare ValueError from numpy at the first draw,
        # and 1.7 a bare TypeError; as_rng_spec truncated 1.7 to seed 1
        with pytest.raises(OutOfDomain, match="seed must be an integer >= 0"):
            RngSpec(seed)
        with pytest.raises(OutOfDomain, match="seed must be an integer >= 0"):
            as_rng_spec(seed)

    @pytest.mark.parametrize("seed", [0, 123, np.int64(123), np.uint32(7), 2**63])
    def test_valid_seed_keeps_its_stream(self, seed):
        # the seed rule only rejects; a numpy integer becomes a Python int
        # (so a report stays JSON-native) and draws what numpy itself draws
        spec = as_rng_spec(seed)
        assert type(spec.seed) is int and spec.seed == seed
        expected = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(int(seed), spawn_key=(3,)))
        )
        assert np.array_equal(spec.generator(3).random(8), expected.random(8))


class TestMcCapMass:
    def test_hemisphere(self):
        est = mc_cap_mass(2, math.pi / 2, 100000, RngSpec(SEED))
        assert abs(est["estimate"] - 0.5) <= 3 * est["stderr"]

    def test_third_radius_cap(self):
        # closed form (1 - cos r)/2 = 1/4 at r = pi/3
        est = mc_cap_mass(2, math.pi / 3, 100000, RngSpec(SEED))
        assert abs(est["estimate"] - 0.25) <= 3 * math.sqrt(0.25 * 0.75 / 100000)

    def test_three_sphere_hemisphere(self):
        est = mc_cap_mass(3, math.pi / 2, 100000, RngSpec(SEED))
        assert abs(est["estimate"] - 0.5) <= 3 * est["stderr"]

    def test_thread_count_does_not_change_the_estimate(self):
        a = mc_cap_mass(2, 1.0, 60000, RngSpec(7), threads=1)
        b = mc_cap_mass(2, 1.0, 60000, RngSpec(7), threads=4)
        assert a == b

    @pytest.mark.parametrize("threads", [1, 4])
    def test_radius_axis_matches_one_call_per_radius(self, threads):
        radii = np.array([0.0, 0.3, 1.0, math.pi / 2, 2.0, math.pi])
        many = mc_cap_mass(3, radii, 40000, RngSpec(7), stream=1, threads=threads)
        assert many["estimate"].shape == many["stderr"].shape == radii.shape
        for i, r in enumerate(radii):
            one = mc_cap_mass(3, float(r), 40000, RngSpec(7), stream=1, threads=threads)
            assert one["estimate"] == many["estimate"][i]  # bitwise
            assert one["stderr"] == many["stderr"][i]
        assert many["estimate"][0] == 0.0 and many["estimate"][-1] == 1.0

    @pytest.mark.parametrize("threads", [1, 4])
    @pytest.mark.parametrize("samples", [16384, 40000, 100000])
    def test_shared_width_kernel_matches_each_dimension_alone(self, samples, threads):
        # one flat draw per chunk at the S^20 width serves S^1 to S^20, each
        # reading its prefix, bit for bit what a draw at its own width gives
        dims = tuple(range(1, 21))
        gen = RngSpec(3).generator(0)
        radii = [np.concatenate([[0.0, math.pi], gen.uniform(0.0, math.pi, 4)]) for _ in dims]
        shared = _mc_cap_masses(dims, radii, samples, RngSpec(7), 1, threads)
        for n, r, est in zip(dims, radii, shared):
            own = mc_cap_mass(n, r, samples, RngSpec(7), stream=1, threads=threads)
            assert np.array_equal(est["estimate"], own["estimate"]), n
            assert np.array_equal(est["stderr"], own["stderr"]), n

    @pytest.mark.parametrize("radius", ["0.5", True, None, [1.0, "0.5"], [[1.0], [1.0, 2.0]]])
    def test_radius_must_be_ints_or_floats(self, radius):
        # "0.5" used to read as 0.5 and True as 1.0
        with pytest.raises(OutOfDomain, match="cap radii must be ints or floats"):
            mc_cap_mass(2, radius, 1000, RngSpec(1))

    @pytest.mark.parametrize("radius", [7.0, math.nan, math.inf, -1.0])
    def test_radius_outside_zero_to_pi_rejected(self, radius):
        # 7.0 used to read 0.113, NaN 0.0 and -1.0 the 0.222 of radius 1.0
        with pytest.raises(OutOfDomain):
            mc_cap_mass(2, radius, 1000, RngSpec(1))
        with pytest.raises(OutOfDomain):
            mc_cap_mass(2, [1.0, radius], 1000, RngSpec(1))

    @pytest.mark.parametrize("n", [2.5, 0, -1, True])
    def test_dimension_must_be_a_positive_integer(self, n):
        # 2.5 used to raise a bare TypeError from numpy
        with pytest.raises(OutOfDomain):
            mc_cap_mass(n, 1.0, 1000, RngSpec(1))

    @pytest.mark.parametrize("samples", [0, 2.5, math.nan])
    def test_sample_count_must_be_a_positive_integer(self, samples):
        # NaN used to return a NaN estimate, 2.5 a bare TypeError
        with pytest.raises(OutOfDomain):
            mc_cap_mass(2, 1.0, samples, RngSpec(1))

    @pytest.mark.parametrize("threads", [0, -3, 2.5, True])
    def test_thread_count_must_be_a_positive_integer(self, threads):
        # 0 and -3 used to run serially and 2.5 on a pool of "2.5" workers
        with pytest.raises(OutOfDomain):
            mc_cap_mass(2, 0.5, 1000, RngSpec(1), threads=threads)

    @pytest.mark.parametrize("stream", [-1, 1.5, True])
    def test_stream_must_be_a_nonnegative_integer(self, stream):
        # -1 used to raise a bare ValueError from numpy, 1.5 a bare TypeError
        with pytest.raises(OutOfDomain, match="stream must be an integer >= 0"):
            mc_cap_mass(2, 0.5, 1000, RngSpec(1), stream=stream)

    @pytest.mark.parametrize("n", range(1, 21))
    def test_hit_rule_matches_a_norm_reference(self, n):
        # the hit test sums squared coordinates left to right; the reference
        # takes np.linalg.norm of the same chunk draws, which from 8 columns
        # sums pairwise, so this pins that no hit moves at any dimension
        radii = np.array([0.0, 0.4, math.pi / 2, 2.5, math.pi])
        samples = 40000
        for seed in (0, 7):
            for stream in (0, 1):
                hits = np.zeros(radii.size, dtype=int)
                for chunk, start in enumerate(range(0, samples, 1 << 14)):
                    gen = RngSpec(seed).generator(stream, chunk)
                    x = gen.standard_normal((min(1 << 14, samples - start), n + 1))
                    norms = np.linalg.norm(x, axis=1)
                    for i, r in enumerate(radii):
                        hits[i] += np.count_nonzero(x[:, 0] >= math.cos(r) * norms)
                est = mc_cap_mass(n, radii, samples, RngSpec(seed), stream=stream)
                assert np.array_equal(est["estimate"], hits / samples)

    @staticmethod
    def _product_reference(dims, radii, samples, seed, stream):
        """The hit test as one (radii x rows) product and mask per sphere and
        chunk: ``x0 >= cos(r) * sqrt(x0^2 + ... + xn^2)``, summed left to
        right on the chunk's ``(rows, n + 1)`` prefix block.  Kept as the
        reference the in-place kernel must agree with, bit for bit."""
        width = max(dims) + 1
        hits = [np.zeros(r.size, dtype=int) for r in radii]
        for chunk, start in enumerate(range(0, samples, 1 << 14)):
            rows = min(1 << 14, samples - start)
            flat = RngSpec(seed).generator(stream, chunk).standard_normal(rows * width)
            for n, r, h in zip(dims, radii, hits):
                x = flat[: rows * (n + 1)].reshape(rows, n + 1)
                sq = x[:, 0] * x[:, 0]
                for j in range(1, n + 1):
                    sq += x[:, j] * x[:, j]
                c = np.array([math.cos(v) for v in r.ravel()])[:, None]
                h += np.count_nonzero(x[:, 0] >= c * np.sqrt(sq), axis=1)
        out = []
        for r, h in zip(radii, hits):
            p = h.reshape(r.shape) / samples
            out.append((p, np.sqrt(np.maximum(p * (1.0 - p), 1e-300) / samples)))
        return out

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("samples", [1, 999, 16384, 16385, 40000])
    def test_in_place_kernel_matches_the_product_reference(self, samples, threads):
        dims = (3, 1, 7, 2, 6, 4, 5, 2)
        gen = RngSpec(11).generator(0)
        edges = np.array([[0.0, math.pi / 2], [math.pi, 0.0], [math.pi / 2, math.pi]])
        radii = [np.concatenate([edges, gen.uniform(0.0, math.pi, (3, 2))]) for _ in dims]
        got = _mc_cap_masses(dims, radii, samples, RngSpec(5), 0, threads)
        for n, est, (p, stderr) in zip(dims, got, self._product_reference(dims, radii, samples, 5, 0)):
            assert est["estimate"].shape == (6, 2)
            assert np.array_equal(est["estimate"], p), n
            assert np.array_equal(est["stderr"], stderr), n


def _affine_needle(gen, length_cap=math.pi, p_range=range(1, 7)):
    """One :func:`_affine_draws` needle as a normalized density: the draw
    verify and ``optimize_affine_family`` make."""
    (length,), (power,), (phase,) = _affine_draws(gen, 1, length_cap, p_range, 1e-3)
    return normalize(
        SinAffineDensity(phase=float(phase), power=float(power), interval=Interval(0.0, float(length)))
    )


class TestAffineDraws:
    def test_draws_are_valid_needles(self):
        gen = RngSpec(3).generator()
        for _ in range(10):
            needle = _affine_needle(gen)
            lo, hi = needle.interval.lo, needle.interval.hi
            assert abs(quadrature.integrate(needle.pdf, lo, hi, atol=1e-12) - 1.0) <= 1e-9
            interior = np.linspace(lo + 1e-6, hi - 1e-6, 33)
            assert np.all(needle.pdf(interior) > 0)
            assert is_sin_concave(needle, needle.power)

    def test_pure_cosine_boundary_member(self):
        d = normalize(SinAffineDensity(phase=0.0, power=3, interval=Interval(-0.5, 0.5)))
        assert math.sin(d.phase) == 0.0 and math.cos(d.phase) == 1.0

    def test_deterministic_given_spec(self):
        a = _affine_needle(RngSpec(9).generator(), p_range={1, 2})
        b = _affine_needle(RngSpec(9).generator(), p_range={1, 2})
        assert a.to_dict() == b.to_dict()

    def test_draw_stream_is_pinned(self):
        # length, power index, then phase, from the spec's generator.  The
        # verify suite draws its needles this way.
        gen = np.random.Generator(np.random.PCG64(9))
        length = gen.uniform(1e-3, math.pi)
        power = [1.0, 2.0][gen.integers(0, 2)]
        phase = gen.uniform(length - math.pi / 2, math.pi / 2)
        needle = _affine_needle(RngSpec(9).generator(), p_range={1, 2})
        assert needle.to_dict() == {
            "family": "affine", "phase": phase, "power": power, "lo": 0.0, "hi": length,
        }

    @pytest.mark.parametrize("cap", [0.0005, -1.0, math.nan])
    def test_length_cap_below_floor_rejected(self, cap):
        # a cap below the 1e-3 support floor once reached numpy as high < low
        with pytest.raises(OutOfDomain):
            _affine_draws(RngSpec(9).generator(), 1, cap, {1, 2}, 1e-3)

    def test_empty_power_range_rejected(self):
        with pytest.raises(OutOfDomain):
            _affine_draws(RngSpec(0).generator(), 1, math.pi, [], 1e-3)


class TestSuiteRunner:
    def test_unknown_suite_rejected(self):
        with pytest.raises(OutOfDomain):
            run_property_suite("everything", SEED)

    @pytest.mark.parametrize("mc_samples", [0, -5, 2.0, True, "100"])
    def test_mc_samples_must_be_a_positive_integer(self, mc_samples):
        # the density suite runs no Monte Carlo check: it once reported 0
        with pytest.raises(OutOfDomain):
            run_property_suite("density", SEED, mc_samples=mc_samples)

    @pytest.mark.parametrize("threads", [0, -3, 2.5, True])
    def test_thread_count_must_be_a_positive_integer(self, threads):
        # 0 and -3 used to run the whole suite serially without a word
        with pytest.raises(OutOfDomain):
            run_property_suite("solver", 1, threads=threads)

    def test_all_aggregates_the_module_suites(self, full_report):
        union = []
        for suite in ("density", "separation", "needle", "spaces", "solver"):
            union.extend(suite_check_names(suite))
        assert [c["name"] for c in full_report["checks"]] == union
        assert full_report["pass_count"] + full_report["fail_count"] == len(union)

    def test_all_report_at_the_readme_seed_is_pinned(self):
        # the bytes of `needle-iso verify --suite all --seed 42`; a change that
        # moves any report value must update this pin and say why
        text = report_to_json(run_property_suite("all", 42))
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "e34c34a565cd08d6e0ca0f6e7e0b203a1281f4f29d5efe252c7877e9469736cd"

    @pytest.mark.parametrize(
        "seed, expected",
        [
            (0, "43be5c2796c8307b137e841f6fcfbd79b8306570e80feaefea42d0ce7f360a3b"),
            (7, "2b63680e137842c51b2f5327d05dda6c25e145230a74d10506ec0b42cf6cc56d"),
            (99, "6d6bfa143b1ffc115a7935f8f213549ea06c7414f2aa525d093c26ae1d1232e7"),
            (2024, "0eeb853ea6a1fbeeedf2db5012209c473ace3398a38f71a6d0f7cf117012d2ca"),
        ],
    )
    def test_all_report_is_pinned_at_more_seeds(self, seed, expected):
        # the same bytes at four more seeds, so a refactor of any check is
        # held to more than one draw of its rows
        text = report_to_json(run_property_suite("all", seed))
        assert hashlib.sha256(text.encode()).hexdigest() == expected

    def test_report_is_json_native(self, full_report):
        # the checks return plain Python values, which the report stores as
        # they are: it survives a JSON round trip, and no leaf is a tuple or
        # a numpy scalar (np.float64 would compare equal to its float)
        assert json.loads(report_to_json(full_report)) == full_report

        def leaves(obj):
            if type(obj) is dict:
                return [leaf for v in obj.values() for leaf in leaves(v)]
            if type(obj) is list:
                return [leaf for v in obj for leaf in leaves(v)]
            return [obj]

        assert {type(leaf) for leaf in leaves(full_report)} <= {str, int, float, bool, type(None)}
        by_name = {c["name"]: c["details"] for c in full_report["checks"]}
        assert type(by_name["needle.component_bound"]["worst"]["power"]) is int
        assert type(by_name["needle.cross_dominance"]["worst"]["power"]) is float

    @pytest.mark.parametrize("suite", ["spaces", "solver"])
    def test_report_is_byte_stable_across_threads(self, suite):
        # solver.request_determinism and solver.main_inequality_mc are the
        # checks whose Monte Carlo draws run on the thread pool
        a = run_property_suite(suite, 5, threads=1, mc_samples=40000)
        b = run_property_suite(suite, 5, threads=4, mc_samples=40000)
        assert report_to_json(a) == report_to_json(b)

    def test_report_names_its_seed_and_generator(self, full_report):
        # the two values that, with mc_samples, reproduce every draw
        assert full_report["seed"] == SEED and full_report["algorithm"] == "pcg64"
        assert json.loads(report_to_json(full_report))["algorithm"] == "pcg64"

    @pytest.mark.parametrize("suite", ["spaces", "density"])
    @pytest.mark.parametrize("seed", [-1, 1.7])
    def test_seed_must_be_a_nonnegative_integer(self, suite, seed):
        # the spaces suite, which draws nothing, used to report seed -1, or
        # seed 1 for 1.7; the density suite raised numpy's bare ValueError
        with pytest.raises(OutOfDomain, match="seed must be an integer >= 0"):
            run_property_suite(suite, seed)

    def test_density_suite_is_clean(self, full_report):
        # Finding (README "Findings"): apart from the refuted order-reduction
        # claim -- passing the concavity check at order c implies passing at
        # every lower order -- the density suite is clean.
        density = {
            c["name"]: c for c in full_report["checks"] if c["name"].startswith("density.")
        }
        failures = [name for name, c in density.items() if not c["passed"]]
        assert failures == ["density.order_reduction"]
        assert density["density.order_reduction_within_family_band"]["passed"]
        # oracle: for g = cos t sin^3 t, g'' + g = 3 sin t cos t (2 cos^2 t -
        # 3 sin^2 t), which is positive on (0, atan(sqrt(2/3))); the example
        # interval reaches into that range, so g fails at order 1
        example = density["density.order_reduction"]["details"]["example"]
        assert (example["m"], example["k"]) == (1, 3)
        assert example["passes_at"] == 4 and 1 in example["fails_at"]
        assert example["lo"] < math.atan(math.sqrt(2 / 3)) < example["hi"]
        t = np.linspace(example["lo"], math.atan(math.sqrt(2 / 3)), 64)[:-1]
        residual = 3 * np.sin(t) * np.cos(t) * (2 * np.cos(t) ** 2 - 3 * np.sin(t) ** 2)
        assert np.all(residual > 0)

    def test_no_check_samples_concavity(self, monkeypatch):
        # every concavity verdict of the suite comes from the exact margin,
        # one kernel call per check; the sampled oracle is never consulted
        import needle_iso.concavity as concavity
        import needle_iso.oracles as oracles

        sampled, exact = [], []

        def counting_sampled(*args, **kwargs):
            sampled.append(sys._getframe(1).f_code.co_name)
            return is_sin_concave(*args, **kwargs)

        def counting_exact(*args, **kwargs):
            exact.append(sys._getframe(1).f_code.co_name)
            return _product_margin(*args, **kwargs)

        monkeypatch.setattr(concavity, "is_sin_concave", counting_sampled)
        monkeypatch.setattr(oracles, "_product_margin", counting_exact)
        run_property_suite("all", SEED, mc_samples=40000)
        assert sampled == []
        assert exact == [
            "_check_order_reduction",
            "_check_order_reduction_within_family_band",
            "_check_product_closure",
        ]

    def test_density_group_eigensolver_work_count(self, monkeypatch):
        # one eigensolver call per margin check, on real float64 companion
        # matrices of size 2K: K = 2 for the trig monomials, 3 for the products
        calls = []
        eigvals = np.linalg.eigvals

        def counting(a):
            calls.append((a.dtype, a.shape[1:]))
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counting)
        run_property_suite("density", SEED)
        assert calls == [(np.dtype(np.float64), (4, 4))] * 2 + [(np.dtype(np.float64), (6, 6))]

    def test_density_reports_at_seeds_0_to_49_keep_their_bytes(self):
        # every margin verdict of the group, over 50 seeds, as one digest
        text = "".join(report_to_json(run_property_suite("density", s)) for s in range(50))
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "07f1432f1aa19ed5e3dd0be8f18d9d8d96d2af012b826133313d1ace239a4bb8"

    def test_needle_group_builds_no_decomposition(self, monkeypatch):
        # needle.component_bound takes its component seps from the batch
        # kernel: no binomial expansion, whose quadratures weigh component
        # masses the check never reads
        import needle_iso.concavity as concavity
        import needle_iso.oracles as oracles
        import needle_iso.quadrature as quadrature

        calls = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        for module, name in [
            (concavity, "binomial_decompose"),
            (concavity, "_binomial_rows"),
            (oracles, "_binomial_rows"),
            (quadrature, "integrate"),
        ]:
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        report = run_property_suite("needle", SEED)
        assert calls == []
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["needle.component_bound"]["details"]["violations"] == 19

    @staticmethod
    def _count_builds_and_seps(monkeypatch):
        """Record every density built, of any family, and every scalar sep
        called."""
        import needle_iso.densities as densities

        builds, seps = [], []

        def counting_build(cls):
            post_init = cls.__post_init__

            def build(self):
                builds.append(cls.__name__)
                post_init(self)

            return build

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                seps.append(name)
                return fn(*args, **kwargs)

            return wrapper

        for cls in (densities.TrigDensity, densities.SinAffineDensity, densities.TabulatedDensity):
            monkeypatch.setattr(cls, "__post_init__", counting_build(cls))
        for module in [m for name, m in sys.modules.items() if name.startswith("needle_iso")]:
            for name in ("sep_1d", "sep_1d_bruteforce"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        return builds, seps

    def test_separation_group_builds_no_density(self, monkeypatch):
        # the separation checks decide their needles from parameter draws:
        # one batch kernel call per check, and the brute force scans each
        # needle's samples through the one-row core
        builds, seps = self._count_builds_and_seps(monkeypatch)
        report = run_property_suite("separation", SEED)
        assert builds == [] and seps == []
        assert report["failures"] == []

    def test_verify_epoch_builds_no_density(self, monkeypatch):
        # no check of any group builds a TrigDensity, SinAffineDensity or
        # TabulatedDensity: the density group's needles, binomial
        # reconstruction's included, are parameter rows too
        builds, seps = self._count_builds_and_seps(monkeypatch)
        report = run_property_suite("all", SEED)
        assert builds == [] and seps == []
        assert report["failures"] == [
            "density.order_reduction", "needle.cross_dominance", "needle.component_bound",
        ]

    def test_separation_group_scans_one_needle_at_a_time(self):
        # a brute-force block of all 50 needles' 4097-point grids is 1.6 MB
        # per array; one needle at a time keeps the peak well below that
        run_property_suite("separation", SEED)  # warm the caches
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            run_property_suite("separation", SEED)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_exact_route_counts_the_sliver_witness(self):
        # at seed 2024 the 256-point grid accepted cos t sin^2 t on
        # [0.520, 1.537] at order 1 (85 violations); the exact margin rejects
        # it, making it the 86th (see test_concavity's seed-2024 witness)
        report = run_property_suite("density", 2024)
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["density.order_reduction"]["details"]["violations"] == 86
        assert report["failures"] == ["density.order_reduction"]

    @pytest.mark.parametrize("seed, violations", sorted(_ORDER_REDUCTION_VIOLATIONS.items()))
    def test_concavity_verdicts_are_pinned_across_seeds(self, seed, violations):
        # the three concavity checks at 43 seeds: order reduction's violation
        # count (the parent's sampled and closed-form routes read the same),
        # and a pass of the provable band and of product closure
        ctx = _Ctx(RngSpec(seed), threads=1, mc_samples=0)
        reduction = _CHECKS["density.order_reduction"](ctx)
        assert reduction["details"]["violations"] == violations
        assert _CHECKS["density.order_reduction_within_family_band"](ctx)["passed"]
        assert _CHECKS["density.product_closure"](ctx)["passed"]

    def test_needle_dominance_checks_pass(self, full_report):
        # Finding (README "Findings"): the half-period dominance check
        # passes, while the quarter-period (cross) dominance check finds
        # violating needles; the worst has an interior maximum.
        by_name = {c["name"]: c for c in full_report["checks"]}
        sphere = by_name["needle.sphere_dominance"]
        assert sphere["passed"] and sphere["details"]["violations"] == 0
        cross = by_name["needle.cross_dominance"]
        assert not cross["passed"] and cross["details"]["violations"] > 0
        worst = cross["details"]["worst"]
        assert 0.0 < worst["phase"] < worst["length"]

    def test_expected_findings_are_exactly_the_known_three(self, full_report):
        # regression guard on the finding set: nothing else may fail, and
        # the three refuted claims must keep being detected
        assert full_report["failures"] == [
            "density.order_reduction",
            "needle.cross_dominance",
            "needle.component_bound",
        ]

    def test_sphere_dominance_holds(self, full_report):
        by_name = {c["name"]: c for c in full_report["checks"]}
        assert by_name["needle.sphere_dominance"]["passed"]
        assert by_name["needle.sphere_dominance"]["details"]["violations"] == 0

    def test_cross_dominance_violation_is_reproducible(self, full_report):
        by_name = {c["name"]: c for c in full_report["checks"]}
        worst = by_name["needle.cross_dominance"]["details"]["worst"]
        assert worst is not None and worst["margin"] > 1e-6
        from needle_iso import Interval, SinAffineDensity, normalize, sep_1d

        needle = normalize(
            SinAffineDensity(
                phase=worst["phase"],
                power=worst["power"],
                interval=Interval(0.0, worst["length"]),
            )
        )
        sep = sep_1d(needle, (worst["k1"], worst["k2"])).sep
        assert sep == pytest.approx(worst["sep"], abs=1e-12)
        assert sep > worst["bound"] + 1e-10


class TestTrigDraws:
    """The oracles' trig needles as parameter draws: their batch seps and
    brute-force scans against the densities they used to build."""

    # the draws of the separation checks and of the round trip: integer
    # exponents, real ones (30% of the draws), and the constant alone
    DRAWS = ({}, {"max_exp": 6, "min_length": 0.4}, {"integer_only": False}, {"max_exp": 0})

    def test_batch_route_matches_built_densities(self):
        kinds = set()
        for seed in range(30):
            gen = np.random.default_rng(seed)
            rows = [
                (*_trig_draw(gen, **draw), gen.uniform(0.05, 0.5), gen.uniform(0.5, 0.95))
                for draw in self.DRAWS
                for _ in range(8)
            ]
            m, k, lo, hi, k1, k2 = columns = np.array(rows).T
            exact = batch_trig_sep(m, k, lo, hi, k1, k2)
            norms = 1.0 / _checked_fold(m, k, lo, hi).mass
            for row, column, sep, norm in zip(rows, columns.T, exact, norms):
                m, k, lo, hi, k1, k2 = row
                kinds.add("constant" if m == k == 0 else type(m).__name__)
                d = normalize(TrigDensity(m=m, k=k, interval=Interval(lo, hi)))
                assert sep == sep_1d(d, (k1, k2)).sep, (seed, row)
                m, k, lo, hi, k1, k2 = column
                t = np.linspace(lo, hi, 4097)
                brute = _extreme_gap(t, _trig_pdf(m, k, t, norm), k1, k2)
                assert brute == sep_1d_bruteforce(d, (k1, k2)), (seed, row)
        assert kinds == {"int", "float", "constant"}


def _random_trig(gen, **draw):
    m, k, lo, hi = _trig_draw(gen, **draw)
    return normalize(TrigDensity(m=m, k=k, interval=Interval(lo, hi)))


def _normalization_by_objects(ctx):
    gen = ctx.spec.generator(10)
    needles = [_random_trig(gen, integer_only=False) for _ in range(8)]
    needles += [_affine_needle(gen) for _ in range(4)]
    worst = 0.0
    for d in needles:
        total = quadrature.integrate(d.pdf, d.interval.lo, d.interval.hi, atol=1e-13)
        worst = max(worst, abs(total - 1.0))
    return {"passed": worst < 1e-10, "details": {"max_unit_mass_error": worst}}


def _round_trip_by_objects(ctx):
    gen = ctx.spec.generator(11)
    q = np.linspace(0.0, 1.0, 1000)
    worst = 0.0
    for _ in range(8):
        d = _random_trig(gen, integer_only=False)
        worst = max(worst, float(np.max(np.abs(d.cdf(d.quantile(q)) - q))))
    return {"passed": worst < 1e-9, "details": {"max_round_trip_error": worst}}


def _lipschitz_by_objects(ctx):
    gen = ctx.spec.generator(12)
    ok = True
    worst_slack = -np.inf
    for _ in range(8):
        d = _random_trig(gen)
        t = d.interval.grid(512)
        f = d.cdf(t)
        ends = d.pdf(t)
        mids = d.pdf(0.5 * (t[:-1] + t[1:]))
        seg_peak = np.maximum(np.maximum(ends[:-1], ends[1:]), mids)
        slack = float(np.max(np.abs(np.diff(f)) - seg_peak * np.diff(t) * (1 + 1e-6) - 1e-9))
        worst_slack = max(worst_slack, slack)
        ok = ok and not np.any(np.diff(f) < -1e-12) and slack <= 0
    return {"passed": ok, "details": {"max_lipschitz_slack": worst_slack}}


def _binomial_by_objects(ctx):
    gen = ctx.spec.generator(16)
    worst_err = 0.0
    worst_mass = 0.0
    for p in range(0, 13):
        length = gen.uniform(0.5, math.pi / 2)
        lo = gen.uniform(0.0, math.pi / 2 - length)
        iv = Interval(lo, lo + length)
        phase = gen.uniform(0.0, math.pi / 2)  # nonnegative coefficients
        d = normalize(SinAffineDensity(phase=float(phase), power=p, interval=iv))
        dec = binomial_decompose(d)
        worst_err = max(worst_err, dec.max_reconstruction_error(d.pdf))
        worst_mass = max(worst_mass, abs(sum(dec.masses) - 1.0))
    return {
        "passed": worst_err < 1e-10 and worst_mass < 1e-9,
        "details": {
            "max_pointwise_error": worst_err,
            "max_mass_defect": worst_mass,
        },
    }


def _polar_duality_by_objects(ctx):
    worst = 0.0
    r = np.linspace(0.0, math.pi / 2, 257)
    for space in _suite_spaces():
        for cand in catalog(space):
            total = profile_cdf(cand, space, r) + profile_cdf(polar_of(cand, space), space, math.pi / 2 - r)
            worst = max(worst, float(np.max(np.abs(total - 1.0))))
    return {"passed": worst < 1e-10, "details": {"max_duality_error": worst}}


def _monotone_inverse_by_objects(ctx):
    worst = 0.0
    ok = True
    v = np.linspace(0.0, 1.0, 201)
    for space in _suite_spaces()[:6] + [CrossSpace.sphere(3)]:
        for cand in catalog(space):
            f = profile_cdf(cand, space, np.linspace(0.0, space.diameter, 201))
            interior = (f[:-1] > 1e-9) & (f[1:] < 1 - 1e-9)
            ok = ok and not (np.any(np.diff(f) < 0) or np.any(np.diff(f)[interior] <= 0))
            q = profile_quantile(cand, space, v)
            worst = max(worst, float(np.max(np.abs(profile_cdf(cand, space, q) - v))))
    return {"passed": ok and worst < 1e-9, "details": {"max_inverse_error": worst}}


class _SpecSpy:
    """An RngSpec that keeps every generator it hands out."""

    def __init__(self, seed):
        self.spec, self.handed = RngSpec(seed), []

    def generator(self, *spawn_key):
        self.handed.append(self.spec.generator(*spawn_key))
        return self.handed[-1]


class TestRowRoutes:
    """The density checks that read their needles as parameter rows, and
    the spaces checks that read the cached catalog records, against the
    density objects and per-candidate profile calls they replaced; and that
    a verify epoch folds no scalar needle."""

    @pytest.mark.parametrize(
        "name, by_objects",
        [
            ("density.normalization_cross_check", _normalization_by_objects),
            ("density.quantile_cdf_round_trip", _round_trip_by_objects),
            ("density.cdf_monotone_lipschitz", _lipschitz_by_objects),
            ("density.binomial_reconstruction", _binomial_by_objects),
            ("spaces.polar_duality_identity", _polar_duality_by_objects),
            ("spaces.profile_monotone_inverse", _monotone_inverse_by_objects),
        ],
    )
    def test_rows_report_what_the_objects_did(self, name, by_objects):
        # same report bit for bit, and the same draws: each generator is
        # left in the state the object route leaves it in
        for seed in range(30):
            rows, objects = _SpecSpy(seed), _SpecSpy(seed)
            assert _CHECKS[name](_Ctx(rows, 1, 1)) == by_objects(_Ctx(objects, 1, 1)), seed
            states = [[g.bit_generator.state for g in spy.handed] for spy in (rows, objects)]
            assert states[0] == states[1], seed

    @pytest.mark.parametrize("n", [2, 3])
    def test_sphere_dominance_reads_the_cached_sphere_needle(self, n):
        # the sphere bound's cached record gives the bits of the sphere
        # needle folded afresh at each call
        gen = RngSpec(SEED).generator(0)
        k1 = gen.uniform(0.02, 0.5, 1000)
        k2 = gen.uniform(0.5, 1.0 - k1)
        cached = _needle_gaps(_sphere_needle(n)[0], k1, k2)[2]
        assert np.array_equal(cached, batch_affine_sep(0.0, float(n - 1), -math.pi / 2, math.pi / 2, k1, k2))

    def test_verify_epoch_folds_no_scalar_needle(self, monkeypatch):
        # every check folds its needles as rows, and sphere_dominance reads
        # the sphere bound's cached needles
        import needle_iso.densities as densities

        checks = {fn.__code__: name for name, fn in _CHECKS.items()}
        counts = collections.Counter()
        fold = densities._fold

        def counted(*args):
            out = fold(*args)
            if np.ndim(out.mass) == 0:
                frame = sys._getframe(1)
                while frame and frame.f_code not in checks:
                    frame = frame.f_back
                counts[frame and checks[frame.f_code]] += 1
            return out

        monkeypatch.setattr(densities, "_fold", counted)
        run_property_suite("all", SEED)
        assert counts == {}


class TestChecksCanFail:
    """Each check below reports a failure when one name it reads in
    ``oracles`` is made to give a wrong answer, and passes unpatched."""

    @staticmethod
    def _run(name):
        return _CHECKS[name](_Ctx(RngSpec(SEED), threads=1, mc_samples=1))

    @classmethod
    def _passed(cls, name):
        return cls._run(name)["passed"]

    def test_exponent_admissibility_fails_below_the_dimension(self, monkeypatch):
        import needle_iso.oracles as oracles

        assert self._passed("spaces.exponent_admissibility")
        # a + b = 0 < dim - 1 on every space of the check
        monkeypatch.setattr(oracles, "catalog", lambda space: [Candidate("ball", 0.0, 0.0, "ball")])
        assert not self._passed("spaces.exponent_admissibility")

    def test_winner_in_catalog_fails_without_the_winner(self, monkeypatch):
        import needle_iso.oracles as oracles

        assert self._passed("solver.winner_in_catalog")
        # the ball wins at v = 0.1 on every space of the check
        monkeypatch.setattr(oracles, "catalog", lambda space: [c for c in catalog(space) if c.label != "ball"])
        assert not self._passed("solver.winner_in_catalog")

    @pytest.mark.parametrize("name", ["_enlarge", "enlarged_volume"])
    def test_enlargement_monotonicity_fails_on_flat_values(self, monkeypatch, name):
        # the epsilon sweep reads _enlarge, the volume sweep enlarged_volume
        import needle_iso.oracles as oracles

        assert self._passed("solver.enlargement_monotonicity")
        flat = {
            "_enlarge": lambda needle, v, eps: (np.full(np.shape(eps), 0.5), None, None),
            "enlarged_volume": lambda cand, space, v, eps: np.full(np.shape(v), 0.5),
        }
        monkeypatch.setattr(oracles, name, flat[name])
        assert not self._passed("solver.enlargement_monotonicity")

    def test_bruteforce_agreement_fails_on_a_shifted_scan(self, monkeypatch):
        import needle_iso.oracles as oracles

        assert self._passed("separation.bruteforce_agreement")
        monkeypatch.setattr(oracles, "_extreme_gap", lambda *args: _extreme_gap(*args) + 1.0)
        assert not self._passed("separation.bruteforce_agreement")

    def test_complement_reduction_duality_fails_off_the_direct_side(self, monkeypatch):
        import needle_iso.oracles as oracles

        assert self._passed("solver.complement_reduction_duality")
        monkeypatch.setattr(oracles, "_polar_enlarged", lambda cand, space, v, eps: 1.0)
        out = self._run("solver.complement_reduction_duality")
        assert not out["passed"] and out["details"]["max_direct_gap"] > 1e-10

    def test_complement_reduction_duality_fails_on_unmatched_polar_labels(self, monkeypatch):
        # each polar keeps its exponents, so the direct side keeps its values
        # to 1e-10, but no polar label is a co-winner of the dual solve
        import needle_iso.oracles as oracles

        assert self._passed("solver.complement_reduction_duality")
        monkeypatch.setattr(
            oracles, "polar_of", lambda cand, space: dataclasses.replace(polar_of(cand, space), label="unlabelled")
        )
        out = self._run("solver.complement_reduction_duality")
        assert not out["passed"] and out["details"]["max_direct_gap"] <= 1e-10

    def test_needle_bound_consistency_fails_off_the_sphere_bound(self, monkeypatch):
        # every solve reports an epsilon 0.1 past its own, so each sphere's
        # needle check is 0.1 off
        import needle_iso.oracles as oracles

        assert self._passed("solver.needle_bound_consistency")
        monkeypatch.setattr(
            oracles, "solve_isoperimetric",
            lambda req: dataclasses.replace(solve_isoperimetric(req), epsilon=req.epsilon + 0.1),
        )
        out = self._run("solver.needle_bound_consistency")
        assert not out["passed"] and out["details"]["max_sphere_residual"] >= 1e-6

    def test_needle_bound_consistency_fails_on_an_unrealized_bound(self, monkeypatch):
        # cp2's winners do not realize the bound (residuals near 1e-2) but
        # are reported as if they did; the sphere side is untouched
        import needle_iso.oracles as oracles

        assert self._passed("solver.needle_bound_consistency")
        monkeypatch.setattr(oracles, "check_realization", lambda space, cand, masses: {"realizes": True})
        out = self._run("solver.needle_bound_consistency")
        assert not out["passed"] and out["details"]["max_sphere_residual"] < 1e-6
        assert out["details"]["cross_not_realized"] == 0

    @pytest.mark.parametrize(
        "edit",
        [
            lambda rep: {**rep, "mc_within_3_sigma": False},
            lambda rep: {**rep, "sep_estimate": rep["sep_estimate"] - 0.1},
        ],
        ids=["outside_3_sigma", "gap_off_the_bound"],
    )
    def test_main_inequality_mc_fails_on_an_edited_report(self, monkeypatch, edit):
        # one edit per failure line: the Monte Carlo flag alone, then the gap
        # alone (its report still reads ok)
        import needle_iso.oracles as oracles

        assert self._passed("solver.main_inequality_mc")
        monkeypatch.setattr(
            oracles, "_check_main_inequalities",
            lambda *args: [[edit(r) for r in reps] for reps in _check_main_inequalities(*args)],
        )
        assert not self._passed("solver.main_inequality_mc")

    def test_request_determinism_fails_on_a_changing_solve(self, monkeypatch):
        # each solve reports a new epsilon, so a request's two JSONs differ;
        # the Monte Carlo side is untouched
        import needle_iso.oracles as oracles

        assert self._passed("solver.request_determinism")
        shift = itertools.count()
        monkeypatch.setattr(
            oracles, "solve_isoperimetric",
            lambda req: dataclasses.replace(solve_isoperimetric(req), epsilon=req.epsilon + 1e-3 * next(shift)),
        )
        assert not self._passed("solver.request_determinism")
