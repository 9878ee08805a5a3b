import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from needle_iso import (
    CrossSpace,
    Interval,
    InvalidMass,
    MassPair,
    OutOfDomain,
    SinAffineDensity,
    TabulatedDensity,
    TrigDensity,
    ZeroMass,
    batch_affine_sep,
    batch_sep,
    batch_trig_sep,
    catalog,
    enlarged_volume,
    normalize,
    profile_cdf,
    profile_quantile,
    sep_1d,
    sep_1d_bruteforce,
    space_by_name,
    sphere_needle_bound,
)
from needle_iso.separation import _extreme_gap

HALF_PI = math.pi / 2
COS = normalize(TrigDensity(m=1, k=0, interval=Interval(-HALF_PI, HALF_PI)))
UNIFORM = normalize(TrigDensity(m=0, k=0, interval=Interval(0.0, 1.0)))
SIN = normalize(TrigDensity(m=0, k=1, interval=Interval(0.0, HALF_PI)))
SIN_GRID = SIN.interval.grid(257)
RP3 = space_by_name("rp3")
RP3_BALL = catalog(RP3)[0]


class TestMassPair:
    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.2])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(InvalidMass):
            MassPair(bad, 0.5)

    def test_straddle_predicate(self):
        assert MassPair(0.3, 0.7).straddles_half
        assert MassPair(0.5, 0.5).straddles_half
        assert not MassPair(0.2, 0.4).straddles_half

    def test_masses_are_stored_as_python_floats(self):
        mp = MassPair(np.float64(0.25), 1)
        assert (type(mp.k1), type(mp.k2)) == (float, float) and mp == MassPair(0.25, 1.0)


class TestScalarRule:
    # each once stored a bool, raised a bare TypeError or ValueError, or
    # parsed a string: a mass, a sphere dimension or a space index is an
    # int or a float (Python or numpy), not a bool, a string or an array
    @pytest.mark.parametrize(
        "call",
        [
            lambda: MassPair(True, 0.5),
            lambda: MassPair(0.3, np.False_),
            lambda: MassPair("0.3", 0.5),
            lambda: MassPair(np.array([0.3, 0.4]), 0.5),
            lambda: sep_1d(COS, ("0.3", "0.6")),
            lambda: CrossSpace.sphere("3"),
            lambda: CrossSpace.complex_projective(True),
            lambda: sphere_needle_bound("3", (0.3, 0.6)),
        ],
        ids=["bool-mass", "numpy-bool-mass", "string-mass", "array-mass", "string-sep-masses",
             "string-sphere-index", "bool-space-index", "string-sphere-dimension"],
    )
    def test_non_numbers_raise_out_of_domain(self, call):
        with pytest.raises(OutOfDomain):
            call()


class TestArrayRule:
    # mass, angle and exponent arrays take the scalar rule's numbers: each of
    # these once parsed its string or read True as 1.0
    @pytest.mark.parametrize(
        "call",
        [
            lambda: profile_quantile(RP3_BALL, RP3, "0.3"),
            lambda: batch_trig_sep(1, 0, -1.0, 1.0, "0.3", "0.6"),
            lambda: enlarged_volume(RP3_BALL, RP3, "0.3", 0.1),
            lambda: profile_quantile(RP3_BALL, RP3, True),
            lambda: profile_quantile(RP3_BALL, RP3, np.array([0.3, 0.5]) > 0.4),
            lambda: profile_cdf(RP3_BALL, RP3, "0.3"),
            lambda: batch_sep(COS, [0.3, 0.4], None),
            lambda: batch_trig_sep("1", 0, -1.0, 1.0, 0.3, 0.6),
            lambda: batch_affine_sep(0.2, 2, 0.0, np.array(["1.0"]), 0.3, 0.6),
            lambda: TrigDensity(m=True, k=0, interval=Interval(0.0, 1.0)),
            lambda: COS.cdf([True, 0.5]),
            lambda: batch_trig_sep(1, 0, -1.0, 1.0, [True, 0.5], 0.6),
            lambda: batch_trig_sep(1, 0, -1.0, 1.0, 0.3, [[0.6], [np.True_]]),
            lambda: batch_trig_sep(1, 0, -1.0, 1.0, [np.array(True), 0.3], 0.6),
            lambda: TabulatedDensity(grid=["0", "1"], values=[True, 1]),
            lambda: TabulatedDensity(grid=[0, 1], values=[True, 1]),
        ],
        ids=["string-fraction", "string-masses", "string-volume", "bool-fraction",
             "bool-array-fractions", "string-radius", "none-mass", "string-exponent",
             "string-interval-end", "bool-exponent", "bool-mixed-abscissae",
             "bool-mixed-masses", "numpy-bool-mixed-nested-masses", "bool-array-mixed-masses",
             "tabulated-string-grid", "tabulated-bool-mixed-values"],
    )
    def test_non_numbers_raise_out_of_domain(self, call):
        with pytest.raises(OutOfDomain):
            call()

    def test_lists_numpy_ints_and_float32_keep_their_values(self):
        q = profile_quantile(RP3_BALL, RP3, 0.3)
        assert profile_quantile(RP3_BALL, RP3, [0.3]).tolist() == [q]
        assert profile_quantile(RP3_BALL, RP3, np.int64(1)) == profile_quantile(RP3_BALL, RP3, 1.0)
        assert profile_cdf(RP3_BALL, RP3, np.float32(0.5)) == profile_cdf(RP3_BALL, RP3, 0.5)
        sep = batch_trig_sep(1, 0, -1.0, 1.0, 0.25, 0.5)
        assert batch_trig_sep(np.int32(1), np.uint8(0), [-1], [1], [0.25], np.float32(0.5)) == [sep]
        assert batch_sep(COS, [0.25], [0.5]).tolist() == batch_sep(COS, 0.25, 0.5).reshape(1).tolist()
        # a sequence of numbers passes the bool check: numpy scalars of any kind
        assert batch_trig_sep(1, 0, -1.0, 1.0, [np.float64(0.25), 1], (np.int8(1), 0.5)).tolist() == [
            batch_trig_sep(1, 0, -1.0, 1.0, 0.25, 1.0), batch_trig_sep(1, 0, -1.0, 1.0, 1.0, 0.5)]


class TestSepEntryInputs:
    # masses that are not a pair once raised a bare ValueError or TypeError
    # from unpacking, and a density that is not the library's an
    # AttributeError from deep inside the call
    ENTRIES = {
        "sep_1d": sep_1d,
        "bruteforce": sep_1d_bruteforce,
        "batch_sep": lambda d, masses: batch_sep(d, *masses),
    }

    @pytest.mark.parametrize("entry", ["sep_1d", "bruteforce"])
    @pytest.mark.parametrize(
        "masses", [(0.3, 0.5, 0.7), (0.3,), None, 0.3, [], np.array([0.3, 0.5, 0.7])],
        ids=["three", "one", "none", "float", "empty", "three-array"],
    )
    def test_masses_that_are_not_a_pair(self, entry, masses):
        with pytest.raises(OutOfDomain, match="pair"):
            self.ENTRIES[entry](COS, masses)

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    @pytest.mark.parametrize(
        "density", [None, "cos", Interval(0.0, 1.0), RP3, lambda t: t],
        ids=["none", "string", "interval", "space", "callable"],
    )
    def test_densities_that_are_not_the_librarys(self, entry, density):
        with pytest.raises(OutOfDomain, match="density"):
            self.ENTRIES[entry](density, (0.3, 0.5))

    def test_pairs_and_mass_pairs_still_pass(self):
        sep = sep_1d(COS, MassPair(0.3, 0.5))
        assert sep_1d(COS, [0.3, 0.5]) == sep_1d(COS, np.array([0.3, 0.5])) == sep
        assert sep_1d_bruteforce(COS, (0.3, 0.5)) == sep_1d_bruteforce(COS, MassPair(0.3, 0.5))


class TestSep1d:
    @pytest.mark.parametrize(
        "density, masses",
        [
            (normalize(TrigDensity(3, 2, Interval(0.2, 1.4))), (0.3, 1e-17)),  # clamped below hi
            (normalize(TrigDensity(3, 2, Interval(0.2, 1.4))), (1e-17, 0.3)),  # clamped above lo
            (COS, (0.25, 0.4)),
            (normalize(SinAffineDensity(phase=0.3, power=2.5, interval=Interval(0.0, 1.2))), (1.0, 0.2)),
            (normalize(TabulatedDensity(grid=SIN_GRID, values=np.sin(SIN_GRID))), (0.2, 0.7)),
        ],
    )
    def test_interval_ends_are_python_floats(self, density, masses):
        res = sep_1d(density, masses)
        ends = (res.left_interval.lo, res.left_interval.hi, res.right_interval.lo, res.right_interval.hi)
        assert all(type(t) is float for t in (res.sep, *ends))

    def test_uniform_quarters(self):
        res = sep_1d(UNIFORM, (0.25, 0.25))
        assert res.sep == pytest.approx(0.5, abs=1e-12)

    def test_cosine_medians_touch(self):
        assert sep_1d(COS, (0.5, 0.5)).sep == 0.0

    def test_cosine_quarters(self):
        # oracle: invert (1 + sin t)/2 at 1/4 and 3/4 -> gap pi/3
        assert sep_1d(COS, (0.25, 0.25)).sep == pytest.approx(math.pi / 3, abs=1e-9)

    def test_realizing_intervals_carry_exact_masses(self):
        res = sep_1d(COS, (0.25, 0.4))
        left_mass = COS.cdf(res.left_interval.hi)
        right_mass = 1.0 - COS.cdf(res.right_interval.lo)
        assert left_mass == pytest.approx(res.left_mass, abs=1e-9)
        assert right_mass == pytest.approx(res.right_mass, abs=1e-9)
        assert {res.left_mass, res.right_mass} == {0.25, 0.4}

    def test_asymmetric_density_uses_best_arrangement(self):
        # sine density on [0, pi/2]: putting the 0.25 mass on the left gives
        # acos(0.5) - acos(0.75); the swap gives acos(0.25) - acos(0.5);
        # the supremum over set pairs is the larger of the two
        big = math.acos(0.5) - math.acos(0.75)
        small = math.acos(0.25) - math.acos(0.5)
        assert big > small
        assert sep_1d(SIN, (0.25, 0.5)).sep == pytest.approx(big, abs=1e-9)
        assert sep_1d(SIN, (0.5, 0.25)).sep == pytest.approx(big, abs=1e-9)

    def test_overlapping_masses_clamp_to_zero(self):
        res = sep_1d(COS, (0.7, 0.6))
        assert res.sep == 0.0

    def test_serialization_fields(self):
        rec = sep_1d(UNIFORM, (0.25, 0.25)).to_dict()
        assert set(rec) >= {"sep", "left", "right"}
        assert rec["left"][0] == 0.0 and rec["right"][1] == 1.0

    @given(
        k1=st.floats(min_value=0.05, max_value=0.95),
        k2=st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_swap_symmetry_property(self, k1, k2):
        d = normalize(TrigDensity(m=2, k=3, interval=Interval(0.2, 1.4)))
        assert sep_1d(d, (k1, k2)).sep == sep_1d(d, (k2, k1)).sep

    def test_monotone_in_each_mass(self):
        grid = np.linspace(0.05, 0.9, 15)
        seps = [sep_1d(SIN, (float(k), 0.3)).sep for k in grid]
        assert all(a >= b - 1e-12 for a, b in zip(seps, seps[1:]))

    def test_degenerate_complementary_masses(self):
        for k1 in (0.3, 0.5, 0.8):
            assert sep_1d(SIN, (k1, 1.0 - k1 + 0.05)).sep == 0.0

    def test_tiny_masses_do_not_degenerate(self):
        res = sep_1d(COS, (1e-12, 0.5))
        assert res.sep == pytest.approx(math.pi / 2, abs=1e-5)
        assert res.left_interval.lo < res.left_interval.hi


class TestBruteForce:
    def test_uniform_quarters_grid(self):
        got = sep_1d_bruteforce(UNIFORM, (0.25, 0.25), grid_size=1024)
        assert got == pytest.approx(0.5, abs=2e-3)

    def test_cosine_quarters_grid(self):
        # the contract is agreement within two grid spacings; the observed
        # error here is ~1.3 spacings (both quantiles quantize inward)
        got = sep_1d_bruteforce(COS, (0.25, 0.25), grid_size=4096)
        assert got == pytest.approx(math.pi / 3, abs=2 * math.pi / 4096)

    def test_complementary_masses_near_zero(self):
        got = sep_1d_bruteforce(COS, (0.5, 0.5), grid_size=2048)
        assert got <= math.pi / 2048 * 2

    def test_grid_floor(self):
        from needle_iso import OutOfDomain

        with pytest.raises(OutOfDomain):
            sep_1d_bruteforce(UNIFORM, (0.25, 0.25), grid_size=32)

    @pytest.mark.parametrize("grid_size", [100.5, 128.0, True])
    def test_grid_size_must_be_an_integer(self, grid_size):
        # 100.5 and 128.0 raised a bare TypeError from numpy
        with pytest.raises(OutOfDomain, match="grid_size must be an integer >= 64"):
            sep_1d_bruteforce(UNIFORM, (0.25, 0.25), grid_size=grid_size)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1e-6])
    def test_core_rejects_what_a_tabulated_density_rejects(self, bad):
        t = np.linspace(0.0, 1.0, 65)
        v = np.ones_like(t)
        v[10] = bad
        for build in (TabulatedDensity, lambda grid, values: _extreme_gap(grid, values, 0.25, 0.25)):
            with pytest.raises(OutOfDomain):
                build(grid=t, values=v)

    def test_core_rejects_a_row_without_mass(self):
        t = np.linspace(0.0, 1.0, 65)
        with pytest.raises(ZeroMass):
            _extreme_gap(t, np.zeros_like(t), 0.25, 0.25)

    def test_core_is_the_scan_of_the_tabulated_route(self):
        # on a density's own grid the oracle scans its samples, with rounding
        # below zero set to zero as the density does
        t = np.linspace(0.0, 2.0, 65)
        v = np.abs(np.sin(3.0 * t)) - 1e-13
        d = TabulatedDensity(grid=t, values=v)
        for masses in [(0.3, 0.4), (0.6, 0.2), (0.5, 0.5)]:
            assert sep_1d_bruteforce(d, masses, grid_size=64) == _extreme_gap(t, v, *masses)

    def test_agrees_with_quantile_route_on_random_densities(self):
        gen = np.random.Generator(np.random.PCG64(2024))
        grid_size = 4096
        for _ in range(50):
            m = int(gen.integers(0, 6))
            k = int(gen.integers(0, 6))
            if m > 0 and k > 0:
                lo, span = 0.0, HALF_PI
            elif k > 0:
                lo, span = 0.0, math.pi
            elif m > 0:
                lo, span = -HALF_PI, math.pi
            else:
                lo, span = 0.0, 1.0
            length = gen.uniform(0.4, span)
            start = lo + gen.uniform(0.0, span - length)
            d = normalize(TrigDensity(m=m, k=k, interval=Interval(start, start + length)))
            mp = (float(gen.uniform(0.1, 0.5)), float(gen.uniform(0.5, 0.9)))
            exact = sep_1d(d, mp).sep
            brute = sep_1d_bruteforce(d, mp, grid_size=grid_size)
            assert abs(exact - brute) <= 2.0 * (d.interval.hi - d.interval.lo) / grid_size

    @pytest.mark.parametrize(
        "masses", [(0.3, 0.6), (0.2, 0.25), (0.45, 0.1), (0.5, 0.3), (0.5, 0.5)]
    )
    def test_agrees_across_an_interior_zero_plateau(self, masses):
        # the plateau [1, 2] carries no mass; at (0.5, 0.3) the winning
        # arrangement starts its right interval at the quantile of 0.7, off
        # the plateau, and puts the plateau's left end at the 0.5 quantile;
        # at (0.5, 0.5) the right interval must start at the plateau's right
        # end, so [0, 1] and [2, 3] lie 1 apart
        d = normalize(TabulatedDensity(grid=(0.0, 1.0, 2.0, 3.0), values=(1.0, 0.0, 0.0, 1.0)))
        grid_size = 4096
        brute = sep_1d_bruteforce(d, masses, grid_size=grid_size)
        assert abs(sep_1d(d, masses).sep - brute) <= 2 * (d.interval.hi - d.interval.lo) / grid_size

    def test_reflection_invariance_of_affine_needles(self):
        gen = np.random.Generator(np.random.PCG64(7))
        for _ in range(20):
            length = gen.uniform(0.4, math.pi)
            phase = gen.uniform(length - HALF_PI, HALF_PI)
            iv = Interval(0.0, float(length))
            d = normalize(SinAffineDensity(phase=float(phase), power=3, interval=iv))
            mirrored = normalize(
                SinAffineDensity(phase=float(length - phase), power=3, interval=iv)
            )
            mp = (float(gen.uniform(0.05, 0.95)), float(gen.uniform(0.05, 0.95)))
            assert sep_1d(d, mp).sep == pytest.approx(sep_1d(mirrored, mp).sep, abs=1e-9)


class TestBatchSep:
    """The pair axis of one needle: bit for bit the scalar ``sep_1d``."""

    @pytest.mark.parametrize(
        "density",
        [
            normalize(TrigDensity(m=2, k=3, interval=Interval(0.1, 1.4))),
            normalize(TrigDensity(m=2.5, k=0, interval=Interval(-1.4, 1.2))),
            normalize(SinAffineDensity(phase=0.3, power=2.5, interval=Interval(-1.0, 1.5))),
            TabulatedDensity(grid=SIN_GRID, values=SIN.pdf(SIN_GRID)),
            # an interior zero plateau: right intervals start at its far end
            normalize(TabulatedDensity(grid=[0.0, 0.5, 1.0, 1.5, 2.0], values=[1, 1, 0, 0, 1])),
        ],
        ids=["trig", "pure-cosine", "affine", "tabulated", "tabulated-plateau"],
    )
    def test_matches_scalar_bits(self, density):
        gen = np.random.Generator(np.random.PCG64(21))
        k1 = np.concatenate([gen.uniform(0.01, 1.0, 200), [0.25, 0.5, 0.5, 1.0, 0.4]])
        k2 = np.concatenate([gen.uniform(0.01, 1.0, 200), [0.5, 0.5, 0.25, 1.0, 0.4]])
        single = [sep_1d(density, (a, b)).sep for a, b in zip(k1, k2)]
        assert batch_sep(density, k1, k2).tolist() == single
        # any shape: the batch broadcasts its masses
        assert batch_sep(density, k1.reshape(5, 41), k2.reshape(5, 41)).ravel().tolist() == single

    def test_masses_broadcast(self):
        grid = np.linspace(0.05, 0.9, 12)
        single = [sep_1d(COS, (x, 0.2)).sep for x in grid]
        assert batch_sep(COS, grid, 0.2).tolist() == single
        assert batch_sep(COS, 0.2, grid).tolist() == [sep_1d(COS, (0.2, x)).sep for x in grid]

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.2, math.nan])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(InvalidMass):
            batch_sep(COS, [0.3, bad], 0.5)
        with pytest.raises(InvalidMass):
            batch_sep(COS, 0.5, [bad, 0.3])


class TestOneClosedFamilyPath:
    """``sep_1d``, ``batch_sep`` and the batch seps of ``needle_bound`` run one
    kernel on a closed-family needle, so they agree bit for bit; ``sep_1d``
    and ``batch_sep`` share the tabulated kernel too."""

    MASS = st.floats(0.01, 1.0)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        # zeros make plateaus, where the right intervals' mask decides the ends
        values=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 3.0)), min_size=2, max_size=9),
        lo=st.floats(-2.0, 1.0),
        length=st.floats(0.05, 3.0),
        k1=MASS,
        k2=MASS,
    )
    def test_tabulated_needles(self, values, lo, length, k1, k2):
        assume(sum(values) > 0.1)
        d = TabulatedDensity(grid=np.linspace(lo, lo + length, len(values)), values=values)
        sep = sep_1d(d, (k1, k2)).sep
        assert float(batch_sep(d, k1, k2)) == sep
        assert batch_sep(d, [k1, k2, 1.0], [k2, k1, k2]).tolist() == [
            sep, sep, sep_1d(d, (1.0, k2)).sep
        ]

    def test_tabulated_plateau_ends_where_the_mask_says(self):
        # a quarter of the mass each side of the plateau [1, 1.5] at 0.75: the
        # right interval of mass 1/4 starts at the plateau's right end
        d = TabulatedDensity(grid=[0.0, 0.5, 1.0, 1.5, 2.0], values=[1, 1, 0, 0, 1])
        res = sep_1d(d, (0.25, 0.25))
        assert (res.sep, res.left_interval.hi, res.right_interval.lo) == (1.25, 0.25, 1.5)
        assert batch_sep(d, [0.25, 0.75], [0.25, 0.25]).tolist() == [1.25, 0.5]

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        exponents=st.sampled_from([(2.0, 3.0), (0.5, 1.5), (2.5, 0.0), (0.0, 1.5), (0.0, 0.0)]),
        lo=st.floats(0.0, 0.7),
        length=st.floats(0.05, 0.85),
        k1=MASS,
        k2=MASS,
    )
    def test_trig_needles(self, exponents, lo, length, k1, k2):
        # both exponents, pure cosine, pure sine and the constant
        m, k = exponents
        d = normalize(TrigDensity(m=m, k=k, interval=Interval(lo, lo + length)))
        sep = sep_1d(d, (k1, k2)).sep
        assert float(batch_sep(d, k1, k2)) == sep
        assert float(batch_trig_sep(m, k, lo, lo + length, k1, k2)) == sep

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        power=st.sampled_from([0.0, 1.0, 2.5, 6.0]),
        lo=st.floats(-1.0, 1.0),
        length=st.floats(0.05, 3.0),
        window=st.floats(0.0, 1.0),
        k1=MASS,
        k2=MASS,
    )
    def test_affine_needles(self, power, lo, length, window, k1, k2):
        hi = lo + length
        phase = (hi - HALF_PI) + window * (lo - hi + math.pi)  # cos(t - phase) >= 0 on [lo, hi]
        d = normalize(SinAffineDensity(phase=phase, power=power, interval=Interval(lo, hi)))
        sep = sep_1d(d, (k1, k2)).sep
        assert float(batch_sep(d, k1, k2)) == sep
        assert float(batch_affine_sep(phase, power, lo, hi, k1, k2)) == sep

    # beyond each needle's domain: NaN, infinities, negative exponents,
    # inverted intervals, intervals past the window and longer than pi
    SPECIAL = st.sampled_from([math.nan, math.inf, -math.inf, -1.0, -1e-10, HALF_PI + 1e-10, math.pi + 1e-10])
    EXPONENT = st.one_of(st.just(0.0), st.floats(0.0, 8.0), SPECIAL)
    ANGLE = st.one_of(st.floats(-2.0, 3.5), SPECIAL)
    LENGTH = st.one_of(st.floats(0.0, 1.6), st.floats(-1.0, 3.5), SPECIAL)

    @staticmethod
    def _density_or_none(build):
        """The normalized density, or None where the constructor raises
        OutOfDomain; a needle of too little mass is no case."""
        try:
            return normalize(build())
        except OutOfDomain:
            return None
        except ZeroMass:
            assume(False)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(m=EXPONENT, k=EXPONENT, lo=ANGLE, length=LENGTH, k1=MASS, k2=MASS)
    def test_batch_trig_takes_exactly_the_constructor_domain(self, m, k, lo, length, k1, k2):
        hi = lo + length
        d = self._density_or_none(lambda: TrigDensity(m=m, k=k, interval=Interval(lo, hi)))
        if d is None:
            with pytest.raises(OutOfDomain):
                batch_trig_sep(m, k, lo, hi, k1, k2)
        else:
            assert float(batch_trig_sep(m, k, lo, hi, k1, k2)) == sep_1d(d, (k1, k2)).sep

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(phase=ANGLE, power=EXPONENT, lo=ANGLE, length=LENGTH, k1=MASS, k2=MASS)
    def test_batch_affine_takes_exactly_the_constructor_domain(self, phase, power, lo, length, k1, k2):
        hi = lo + length
        d = self._density_or_none(lambda: SinAffineDensity(phase=phase, power=power, interval=Interval(lo, hi)))
        if d is None:
            with pytest.raises(OutOfDomain):
                batch_affine_sep(phase, power, lo, hi, k1, k2)
        else:
            assert float(batch_affine_sep(phase, power, lo, hi, k1, k2)) == sep_1d(d, (k1, k2)).sep

    def test_a_batch_of_needles_matches_each_needle(self):
        gen = np.random.Generator(np.random.PCG64(3))
        lo, length = gen.uniform(-1.0, 1.0, 300), gen.uniform(0.05, 3.0, 300)
        phase = (lo + length - HALF_PI) + gen.uniform(0.0, 1.0, 300) * (math.pi - length)
        power, k1, k2 = gen.uniform(0.0, 6.0, 300), gen.uniform(0.01, 1.0, 300), gen.uniform(0.01, 1.0, 300)
        batch = batch_affine_sep(phase, power, lo, lo + length, k1, k2)
        for j in range(300):
            iv = Interval(float(lo[j]), float(lo[j] + length[j]))
            d = normalize(SinAffineDensity(phase=float(phase[j]), power=float(power[j]), interval=iv))
            assert batch[j] == sep_1d(d, (k1[j], k2[j])).sep

    def test_reported_intervals_stay_inside_the_needle(self):
        # a full mass puts an end on the needle's own end, which the frame
        # shift by the phase can round one ulp past it
        gen = np.random.Generator(np.random.PCG64(11))
        for j in range(3000):
            lo, length = gen.uniform(-1.0, 1.0), gen.uniform(0.05, 3.0)
            iv = Interval(lo, lo + length)
            phase = (iv.hi - HALF_PI) + gen.uniform() * (math.pi - length)
            d = normalize(SinAffineDensity(phase=phase, power=gen.uniform(0.0, 6.0), interval=iv))
            masses = (1.0, gen.uniform(0.01, 1.0)) if j % 2 else (gen.uniform(0.01, 1.0), 1.0)
            res = sep_1d(d, masses)
            for part in (res.left_interval, res.right_interval):
                assert iv.lo <= part.lo < part.hi <= iv.hi, (j, part, iv)
