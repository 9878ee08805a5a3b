import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from needle_iso import (
    CrossSpace,
    Interval,
    OutOfDomain,
    SinAffineDensity,
    SolveRequest,
    TabulatedDensity,
    TrigDensity,
    ZeroMass,
    cross_needle_bound,
    density_from_dict,
    densities,
    integrate,
    normalize,
    solve_isoperimetric,
    trig_mass,
)
from needle_iso.needle_bound import _exponent_grid

HALF_PI = math.pi / 2


class TestInterval:
    def test_needs_lo_below_hi(self):
        with pytest.raises(OutOfDomain):
            Interval(1.0, 1.0)

    def test_rejects_longer_than_pi(self):
        with pytest.raises(OutOfDomain):
            Interval(0.0, math.pi + 0.01)

    def test_full_period_allowed(self):
        assert Interval(-HALF_PI, HALF_PI).length == pytest.approx(math.pi)


class TestNormalize:
    def test_cosine_norm_is_half(self):
        # oracle: antiderivative of cos is sin, so the raw mass is 2
        d = normalize(TrigDensity(m=1, k=0, interval=Interval(-HALF_PI, HALF_PI)))
        assert d.norm == pytest.approx(0.5, abs=1e-10)

    def test_uniform_norm_is_one(self):
        d = normalize(TrigDensity(m=0, k=0, interval=Interval(0.0, 1.0)))
        assert d.norm == pytest.approx(1.0, abs=1e-12)

    def test_sincos_norm_is_two(self):
        # oracle: int_0^{pi/2} sin cos = 1/2
        d = normalize(TrigDensity(m=1, k=1, interval=Interval(0.0, HALF_PI)))
        assert d.norm == pytest.approx(2.0, abs=1e-10)

    def test_zero_mass_raises(self):
        with pytest.raises(ZeroMass):
            normalize(
                TrigDensity(
                    m=200, k=0, interval=Interval(HALF_PI - 1e-9, HALF_PI - 1e-12)
                )
            )

    def test_keeps_the_needle_record(self):
        # a copy, not a rebuild: every radial profile is built and normalized
        d = SinAffineDensity(phase=0.4, power=2.5, interval=Interval(0.0, 1.2))
        assert normalize(d)._needle is d._needle

    def test_normalized_density_integrates_to_one(self):
        d = normalize(TrigDensity(m=2.5, k=0.5, interval=Interval(0.1, 1.2)))
        assert abs(integrate(d.pdf, 0.1, 1.2, atol=1e-12) - 1.0) <= 1e-10


class TestDomainValidation:
    def test_sine_power_needs_nonnegative_sine(self):
        with pytest.raises(OutOfDomain):
            TrigDensity(m=0, k=2, interval=Interval(-0.5, 0.5))

    def test_cosine_power_needs_nonnegative_cosine(self):
        with pytest.raises(OutOfDomain):
            TrigDensity(m=2, k=0, interval=Interval(1.0, 2.0))

    def test_affine_positivity_window(self):
        with pytest.raises(OutOfDomain):
            SinAffineDensity(phase=1.0, power=2, interval=Interval(-1.0, 1.0))

    def test_power_zero_affine_is_the_constant_at_any_phase(self):
        d = normalize(SinAffineDensity(phase=3.0, power=0.0, interval=Interval(0.0, 1.0)))
        assert d.cdf(0.25) == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize(
        "density",
        [
            normalize(TrigDensity(m=1, k=1, interval=Interval(0.0, 1.5))),
            normalize(SinAffineDensity(phase=0.2, power=2, interval=Interval(0.0, 1.5))),
            normalize(TabulatedDensity(grid=(0.0, 0.5, 1.5), values=(0.1, 1.0, 0.3))),
        ],
    )
    @pytest.mark.parametrize("t", ["0.3", True, None, [0.3, "0.4"]])
    def test_abscissae_must_be_ints_or_floats(self, density, t):
        # the trig cdf used to read "0.3" as 0.3 (0.0878) and True as 1.0
        # (0.7116), and its pdf "0.3" as 0.3
        for method in (density.cdf, density.pdf):
            with pytest.raises(OutOfDomain, match="abscissae must be ints or floats"):
                method(t)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_exponents_must_be_finite_and_nonnegative(self, bad):
        # a NaN or infinite exponent used to raise ZeroMass
        for m, k in ((bad, 1.0), (1.0, bad)):
            with pytest.raises(OutOfDomain):
                TrigDensity(m=m, k=k, interval=Interval(0.1, 1.0))
        with pytest.raises(OutOfDomain):
            SinAffineDensity(phase=0.0, power=bad, interval=Interval(0.1, 1.0))


class TestCdf:
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_symmetric_cosine_power_median_at_zero(self, n):
        d = normalize(TrigDensity(m=n, k=0, interval=Interval(-HALF_PI, HALF_PI)))
        assert d.cdf(0.0) == pytest.approx(0.5, abs=1e-12)

    def test_cosine_cdf_closed_form(self):
        # oracle: F(t) = (1 + sin t) / 2
        d = normalize(TrigDensity(m=1, k=0, interval=Interval(-HALF_PI, HALF_PI)))
        assert d.cdf(math.pi / 6) == pytest.approx(0.75, abs=1e-12)

    def test_cubed_sine_times_cosine_cdf(self):
        # oracle: F(r) = sin^4(r) on [0, pi/2]
        d = normalize(TrigDensity(m=1, k=3, interval=Interval(0.0, HALF_PI)))
        assert d.cdf(math.pi / 4) == pytest.approx(0.25, abs=1e-12)

    def test_endpoints(self):
        d = normalize(TrigDensity(m=2, k=1, interval=Interval(0.2, 1.3)))
        assert d.cdf(0.2) == 0.0
        assert d.cdf(1.3) == pytest.approx(1.0, abs=1e-12)

    def test_out_of_domain(self):
        d = normalize(TrigDensity(m=1, k=0, interval=Interval(-HALF_PI, HALF_PI)))
        with pytest.raises(OutOfDomain):
            d.cdf(2.0)

    def test_mirrored_sine_fold_reads_one_at_its_end(self):
        # the pure-sine fold spans two quarters mirrored about pi/2, and its
        # upper end once read 1 - 2^-53
        d = normalize(TrigDensity(m=0.0, k=2.0, interval=Interval(0.0, HALF_PI)))
        assert d.cdf(HALF_PI) == 1.0
        assert d.mass(0.0, HALF_PI) == 1.0

    @given(
        m=st.sampled_from([0.0, 0.5, 1.0, 2.0, 7.0]),
        k=st.sampled_from([0.0, 0.5, 1.0, 2.0, 15.0]),
        lo=st.floats(min_value=0.0, max_value=1.5),
        width=st.floats(min_value=1e-3, max_value=HALF_PI),
    )
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_kernels_pin_the_needle_ends(self, m, k, lo, width):
        # the CDF kernel is exactly 0 and 1 at the ends and in [0, 1] between;
        # the quantile kernel is exactly lo and hi at the ends of [0, 1]
        hi = min(lo + width, HALF_PI)
        if k == 0.0:  # pure cosines (and the constant) fold by a shift
            lo, hi = lo - HALF_PI, hi - HALF_PI
        n = densities._fold(m, k, lo, hi)
        f = densities._needle_cdf(n, np.linspace(lo, hi, 65))
        assert f[0] == 0.0 and f[-1] == 1.0 and np.all((f >= 0.0) & (f <= 1.0))
        assert densities._needle_cdf(n, np.array([lo - 1e-10, hi + 1e-10])).tolist() == [0.0, 1.0]
        t = densities._needle_quantile(n, np.array([-0.5, 0.0, 1.0, 1.5]))
        assert t.tolist() == [lo, lo, hi, hi]

    def test_matches_quadrature_for_fractional_exponents(self):
        d = normalize(TrigDensity(m=1.7, k=0.3, interval=Interval(0.05, 1.4)))
        for t in (0.3, 0.8, 1.2):
            ref = integrate(d.pdf, 0.05, t, atol=1e-13)
            assert d.cdf(t) == pytest.approx(ref, abs=1e-10)


class TestQuantile:
    def test_cosine_quantile_closed_form(self):
        # oracle: invert (1 + sin t)/2 at 1/4
        d = normalize(TrigDensity(m=1, k=0, interval=Interval(-HALF_PI, HALF_PI)))
        assert d.quantile(0.25) == pytest.approx(-math.pi / 6, abs=1e-9)

    def test_endpoint_conventions(self):
        d = normalize(TrigDensity(m=3, k=0, interval=Interval(-1.0, 1.0)))
        assert d.quantile(0.0) == -1.0
        assert d.quantile(1.0) == 1.0

    @pytest.mark.parametrize("q", [-0.1, 1.1, math.nan])
    def test_mass_outside_unit_interval_is_rejected(self, q):
        d = normalize(TrigDensity(m=3, k=0, interval=Interval(-1.0, 1.0)))
        with pytest.raises(OutOfDomain):
            d.quantile(q)

    def test_quartic_sine_profile_quantile(self):
        # oracle: invert sin^4 at 1/4: r = asin((1/4)^(1/4)) = pi/4
        d = normalize(TrigDensity(m=1, k=3, interval=Interval(0.0, HALF_PI)))
        assert d.quantile(0.25) == pytest.approx(math.pi / 4, abs=1e-9)

    def test_quantile_is_monotone_only_to_a_few_ulps(self):
        # betaincinv rounds on its own, so one ulp more of q can give a lower
        # t; the noise is documented and bounded, not corrected
        d = TrigDensity(m=2.5, k=1.5, interval=Interval(0.2, 1.3))
        centres = np.linspace(0.05, 0.95, 19)[:, None]
        t = d.quantile(centres + np.arange(2000) * np.spacing(centres))
        step = np.diff(t, axis=-1)
        down = step < 0
        assert 0.01 < down.mean() < 0.05
        assert np.max(-step[down] / np.spacing(t[:, 1:][down])) <= 4

    def test_round_trip_grid(self):
        d = normalize(TrigDensity(m=2, k=3, interval=Interval(0.1, 1.5)))
        q = np.linspace(0.0, 1.0, 1000)
        err = np.abs(d.cdf(d.quantile(q)) - q)
        assert float(err.max()) < 1e-9

    @given(
        m=st.integers(min_value=0, max_value=6),
        k=st.integers(min_value=0, max_value=6),
        q=st.floats(min_value=0.001, max_value=0.999),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_round_trip_property(self, m, k, q):
        d = normalize(TrigDensity(m=m, k=k, interval=Interval(0.1, 1.4)))
        assert d.cdf(d.quantile(q)) == pytest.approx(q, abs=1e-9)


def _mp_quantile(pdf, lo, hi, q):
    """40-digit inverse of the CDF of ``pdf`` on ``[lo, hi]``: mpmath
    quadrature of the density, bisection to 1e-6 at 20 digits, then Newton
    steps at 40."""

    def excess(t, total):
        return mpmath.quad(pdf, [lo, t]) / total - q

    with mpmath.workdps(20):
        a, b = mpmath.mpf(lo), mpmath.mpf(hi)
        total = mpmath.quad(pdf, [a, b])
        while b - a > 1e-6:
            mid = (a + b) / 2
            a, b = (mid, b) if excess(mid, total) < 0 else (a, mid)
    with mpmath.workdps(40):
        t = (a + b) / 2
        total = mpmath.quad(pdf, [lo, hi])
        for _ in range(4):
            t -= excess(t, total) * total / pdf(t)
        return t


def _mp_tabulated_quantile(grid, values, q):
    """40-digit root of the exact piecewise-quadratic CDF of linear samples."""
    with mpmath.workdps(40):
        g = [mpmath.mpf(x) for x in grid]
        v = [mpmath.mpf(x) for x in values]
        seg = [(v[i] + v[i + 1]) * (g[i + 1] - g[i]) / 2 for i in range(len(g) - 1)]
        r = mpmath.mpf(q) * mpmath.fsum(seg)
        i = 0
        while r > seg[i]:
            r -= seg[i]
            i += 1
        h = g[i + 1] - g[i]
        c = (v[i + 1] - v[i]) / h  # f0 s + c s^2 / 2 = r on this segment
        s = r / v[i] if c == 0 else (mpmath.sqrt(v[i] ** 2 + 2 * c * r) - v[i]) / c
        return g[i] + s


_TAB_GRID = (0.0, 0.3, 0.7, 1.2, 1.5)
_TAB_VALUES = (0.0, 2.0, 0.5, 1.5, 0.25)


_CLOSED_FAMILIES = {
    "cos15-sin7": (TrigDensity(m=15, k=7, interval=Interval(0.0, HALF_PI)),
                   lambda t: mpmath.cos(t) ** 15 * mpmath.sin(t) ** 7),
    "real-exponents": (TrigDensity(m=2.5, k=1.5, interval=Interval(0.2, 1.3)),
                       lambda t: mpmath.cos(t) ** 2.5 * mpmath.sin(t) ** 1.5),
    "pure-cosine": (TrigDensity(m=3, k=0, interval=Interval(-HALF_PI, HALF_PI)),
                    lambda t: mpmath.cos(t) ** 3),
    "pure-sine-past-half-pi": (TrigDensity(m=0, k=3, interval=Interval(0.3, 2.9)),
                               lambda t: mpmath.sin(t) ** 3),
    "constant": (TrigDensity(m=0, k=0, interval=Interval(-3.0, -1.0)),
                 lambda t: mpmath.mpf(1)),
    "sin-affine": (SinAffineDensity(phase=0.9, power=2.5, interval=Interval(0.0, 1.3)),
                   lambda t: mpmath.cos(t - mpmath.mpf(0.9)) ** 2.5),
}

# where the arcsin and arccos forms meet: pi/4 within the needle's own
# quarter, so -pi/4 and pi/4 for pure cosine, pi/4 and 3 pi/4 for pure sine
_BRANCH_SWITCHES = [
    ("cos15-sin7", math.pi / 4),
    ("real-exponents", math.pi / 4),
    ("pure-cosine", -math.pi / 4),
    ("pure-cosine", math.pi / 4),
    ("pure-sine-past-half-pi", math.pi / 4),
    ("pure-sine-past-half-pi", 3 * math.pi / 4),
    ("sin-affine", 0.9 - math.pi / 4),
]


def _record_where(monkeypatch, name):
    """Wrap the scipy ufunc ``densities.<name>`` to record, per call, its
    ``where=`` mask broadcast to the call's points (all True without one)."""
    masks = []
    real = getattr(densities, name)

    def recording(*args, where=True, **kw):
        masks.append(np.broadcast_to(where, np.broadcast_shapes(*map(np.shape, args))))
        return real(*args, where=where, **kw)

    monkeypatch.setattr(densities, name, recording)
    return masks


class TestQuantileAgainstMpmath:
    """The closed-form quantiles agree with a 40-digit reference to 1e-14,
    from deep in one tail to deep in the other, in every domain case; the
    CDFs they invert agree with it to 1e-15."""

    QS = (1e-8, 1e-4, 0.25, 0.5, 0.75, 1 - 1e-6)

    @pytest.mark.parametrize("family", list(_CLOSED_FAMILIES))
    def test_closed_families(self, family):
        density, pdf = _CLOSED_FAMILIES[family]
        got = normalize(density).quantile(np.array(self.QS))
        lo, hi = density.interval.lo, density.interval.hi
        for t, q in zip(got, self.QS):
            assert abs(t - float(_mp_quantile(pdf, lo, hi, q))) <= 1e-14, q

    @pytest.mark.parametrize("family", list(_CLOSED_FAMILIES))
    def test_cdf_closed_families(self, family):
        # each mass must come from the tail whose argument carries the
        # digits; taking the other one reads up to 1.1e-14 (sin-affine)
        density, pdf = _CLOSED_FAMILIES[family]
        lo, hi = density.interval.lo, density.interval.hi
        ts = np.linspace(lo, hi, 65)
        got = normalize(density).cdf(ts)
        with mpmath.workdps(40):
            total = mpmath.quad(pdf, [lo, hi])
            for t, f in zip(ts, got):
                assert abs(f - float(mpmath.quad(pdf, [lo, t]) / total)) <= 1e-15, t

    @pytest.mark.parametrize("family, switch", _BRANCH_SWITCHES)
    def test_at_the_branch_switch(self, family, switch, monkeypatch):
        # targets from 8 ulps below the mass left of the switch to 8 above:
        # wide enough that the float comparison picks each form for some
        density, pdf = _CLOSED_FAMILIES[family]
        lo, hi = density.interval.lo, density.interval.hi
        with mpmath.workdps(40):
            total = mpmath.quad(pdf, [lo, hi])
            q0 = float(mpmath.quad(pdf, [lo, switch]) / total)
            t0 = _mp_quantile(pdf, lo, hi, q0)
            qs = q0 + np.arange(-8, 9) * np.spacing(q0)
            # first order about t0; the dropped term is O(1e-30)
            refs = [float(t0 + (mpmath.mpf(q) - q0) * total / pdf(t0)) for q in qs]
        masks = _record_where(monkeypatch, "betaincinv")
        got = normalize(density).quantile(qs)
        # both forms ran: each inversion call covers some targets, not all
        assert masks and all(m.any() and not m.all() for m in masks)
        for t, ref, q in zip(got, refs, qs):
            assert abs(t - ref) <= 1e-14, q

    def test_tabulated_exact_quadratic_root(self):
        got = normalize(TabulatedDensity(grid=_TAB_GRID, values=_TAB_VALUES)).quantile(
            np.array(self.QS)
        )
        for t, q in zip(got, self.QS):
            ref = float(_mp_tabulated_quantile(_TAB_GRID, _TAB_VALUES, q))
            assert abs(t - ref) <= 1e-14, q


class TestQuantileBatch:
    """A block of needles in one needle-record quantile call matches each
    needle's own quantile bit for bit, and costs one tail pair per needle
    and one inversion per target."""

    # the cap2 exponent grid of cross_needle_bound: 15 <= m + k <= 23
    PAIRS = [(total - k, k) for total in range(15, 24) for k in range(total + 1)]

    def test_block_equals_per_needle_calls(self):
        m, k = np.array(self.PAIRS, dtype=float).T
        k1, k2 = np.linspace(0.05, 0.45, m.size), np.linspace(0.95, 0.55, m.size)
        targets = np.array([k1, 1.0 - k2, k2, 1.0 - k1])
        block = densities._needle_quantile(densities._fold(m, k, 0.0, HALF_PI), targets)
        for j, (mj, kj) in enumerate(self.PAIRS):
            own = TrigDensity(m=mj, k=kj, interval=Interval(0.0, HALF_PI)).quantile(targets[:, j])
            assert np.array_equal(block[:, j], own), (mj, kj)

    def test_cross_bound_work_count(self, monkeypatch):
        space = CrossSpace.cayley_plane()
        _exponent_grid.cache_clear()  # so the first call folds its grid and fills its table
        inversions = _record_where(monkeypatch, "betaincinv")
        tails = _record_where(monkeypatch, "betainc")

        def count(masks):
            return sum(int(w.sum()) for w in masks)

        cross_needle_bound(space, (0.3, 0.6))
        # only the m <= k half is folded; its mirror twins share its columns
        n = sum(m <= k for m, k in self.PAIRS)
        assert n == 92
        # the table takes one inversion per needle at each of its 129 masses;
        # then only the 53 needles whose brackets can reach the maximum are
        # evaluated, one inversion per target
        assert count(inversions) == 129 * n + 4 * 53
        # the two tails at lo and hi, and the mass of [0, pi/4], per needle
        assert count(tails) <= 2 * 3 * n
        inversions.clear()
        tails.clear()
        cross_needle_bound(space, (0.3, 0.6))
        assert count(inversions) == 4 * 53  # the table is cached with the fold
        assert not tails  # the grid's fold is cached
        # a solve's closing check at (v, 1 - enlarged) evaluates 21 needles
        res = solve_isoperimetric(SolveRequest(space, 0.3, 0.1))
        inversions.clear()
        tails.clear()
        assert res.needle_bound_check["w"] == 1.0 - res.enlarged
        assert count(inversions) == 4 * 21
        assert not tails
        grid = _exponent_grid(15, 23, space.diameter)
        assert len(grid.pairs) == len(self.PAIRS)
        assert grid.table.shape == (129, n)
        assert not any(arr.flags.writeable for arr in (*grid.needle, grid.column, grid.table))


class TestSinAffine:
    def test_equals_shifted_cosine_power(self):
        phase, power = 0.4, 3
        d = normalize(
            SinAffineDensity(phase=phase, power=power, interval=Interval(0.0, 1.2))
        )
        t = np.linspace(0.0, 1.2, 7)
        expected = d.norm * np.cos(t - phase) ** power
        assert np.allclose(d.pdf(t), expected, atol=1e-14)

    def test_coefficients_from_phase(self):
        d = SinAffineDensity(phase=0.3, power=2, interval=Interval(0.0, 1.0))
        assert d.c1 == pytest.approx(math.sin(0.3))
        assert d.c2 == pytest.approx(math.cos(0.3))

    def test_cdf_matches_quadrature(self):
        d = normalize(
            SinAffineDensity(phase=-0.3, power=2.5, interval=Interval(0.0, 1.1))
        )
        ref = integrate(d.pdf, 0.0, 0.7, atol=1e-13)
        assert d.cdf(0.7) == pytest.approx(ref, abs=1e-10)

    def test_pure_sine_boundary_phase(self):
        # phase pi/2 turns the affine form into sin t on [0, L]
        d = normalize(
            SinAffineDensity(phase=HALF_PI, power=1, interval=Interval(0.0, HALF_PI))
        )
        assert d.cdf(math.pi / 3) == pytest.approx(1 - math.cos(math.pi / 3), abs=1e-10)


class TestTabulated:
    def test_normalizes_by_trapezoid(self):
        g = np.linspace(0.0, 1.0, 101)
        d = normalize(TabulatedDensity(grid=tuple(g), values=tuple(1.0 + g)))
        assert np.trapezoid(np.asarray(d.values) * d.norm, g) == pytest.approx(1.0, abs=1e-12)

    def test_cdf_quantile_round_trip(self):
        g = np.linspace(0.0, 1.0, 257)
        d = normalize(TabulatedDensity(grid=tuple(g), values=tuple(0.2 + np.sin(g) ** 2)))
        for q in (0.0, 0.123, 0.5, 0.87, 1.0):
            assert d.cdf(d.quantile(q)) == pytest.approx(q, abs=1e-9)

    def test_tracks_smooth_density(self):
        base = normalize(TrigDensity(m=2, k=1, interval=Interval(0.0, HALF_PI)))
        g = base.interval.grid(4097)
        tab = normalize(TabulatedDensity(grid=g, values=base.pdf(g)))
        t = np.linspace(0.0, HALF_PI, 50)
        assert np.max(np.abs(tab.cdf(t) - base.cdf(t))) < 1e-6

    def test_zero_plateau_quantile_is_its_left_end(self):
        # half the mass lies on [0, 1], none on the plateau [1, 2]: the least t
        # with F(t) >= 1/2 is the plateau's left end; either side of it the
        # CDF is t - t^2/2 and its mirror image
        d = normalize(TabulatedDensity(grid=(0.0, 1.0, 2.0, 3.0), values=(1.0, 0.0, 0.0, 1.0)))
        assert d.quantile(0.5) == 1.0
        assert d.quantile(0.32) == pytest.approx(1.0 - math.sqrt(0.36), abs=1e-15)
        assert d.quantile(0.68) == pytest.approx(2.0 + math.sqrt(0.36), abs=1e-15)

    def test_rejects_unsorted_grid(self):
        with pytest.raises(OutOfDomain):
            TabulatedDensity(grid=(0.0, 0.5, 0.4), values=(1.0, 1.0, 1.0))

    @pytest.mark.parametrize(
        "grid, values",
        [
            ((0.0, math.nan, 1.0), (1.0, 1.0, 1.0)),
            ((0.0, 0.5, math.inf), (1.0, 1.0, 1.0)),
            ((0.0, 0.5, 1.0), (1.0, math.nan, 1.0)),
            ((0.0, 0.5, 1.0), (1.0, math.inf, 1.0)),
            ((0.0, 0.5, 1.0), (-math.inf, 1.0, 1.0)),
        ],
        ids=["nan_grid", "inf_grid", "nan_value", "inf_value", "minus_inf_value"],
    )
    def test_rejects_non_finite_samples(self, grid, values):
        # a NaN grid point passes the increasing-grid test (NaN compares
        # false) and a NaN or inf value once surfaced only as a NaN mass
        with pytest.raises(OutOfDomain, match="finite"):
            TabulatedDensity(grid=grid, values=values)

    def test_samples_are_read_only_float_arrays(self):
        d = TabulatedDensity(grid=(0, 1, 2), values=(1, 2, 1))
        for samples in (d.grid, d.values):
            assert isinstance(samples, np.ndarray) and samples.dtype == np.float64
            with pytest.raises(ValueError):
                samples[0] = 5.0

    def test_input_kind_does_not_change_the_record(self):
        g, v = [0.0, 0.4, 1.1, 1.5], [0.3, 1.0, 0.7, 0.2]
        dumps = {
            json.dumps(normalize(TabulatedDensity(grid=make(g), values=make(v))).to_dict())
            for make in (tuple, list, np.array)
        }
        assert len(dumps) == 1

    def test_caller_array_is_copied(self):
        g, v = np.linspace(0.0, 1.0, 5), np.array([1.0, 2.0, 3.0, 2.0, 1.0])
        d = TabulatedDensity(grid=g, values=v)
        before = d.to_dict()
        g[:] = np.arange(5.0)
        v[:] = 7.0
        assert d.to_dict() == before and g.flags.writeable

    def test_negative_zero_sample_survives(self):
        rec = TabulatedDensity(grid=(0.0, 0.5, 1.0, 1.5), values=(1.0, -0.0, -1e-13, 1.0)).to_dict()
        assert json.dumps(rec["values"]) == "[1.0, -0.0, 0.0, 1.0]"


class TestSerialization:
    @pytest.mark.parametrize(
        "density",
        [
            normalize(TrigDensity(m=2, k=1, interval=Interval(0.0, 1.4))),
            normalize(SinAffineDensity(phase=0.2, power=3, interval=Interval(0.0, 1.0))),
            normalize(
                TabulatedDensity(
                    grid=(0.0, 0.5, 1.0, 1.5), values=(0.1, 1.0, 1.2, 0.3)
                )
            ),
        ],
    )
    def test_round_trip(self, density):
        rebuilt = density_from_dict(density.to_dict())
        t = np.linspace(density.interval.lo, density.interval.hi, 17)
        assert np.allclose(rebuilt.cdf(t), density.cdf(t), atol=1e-12)

    def test_tabulated_interval_must_match_grid(self):
        rec = {"family": "tabulated", "lo": 5.0, "hi": 6.0, "grid": [0, 0.5, 1], "values": [1, 1, 1]}
        with pytest.raises(OutOfDomain):
            density_from_dict(rec)
        rec.update(lo=0.0, hi=1.0)
        assert density_from_dict(rec).interval == Interval(0.0, 1.0)

    def test_unknown_family_rejected(self):
        with pytest.raises(OutOfDomain):
            density_from_dict({"family": "exotic", "lo": 0.0, "hi": 1.0})

    @pytest.mark.parametrize(
        "rec, field",
        [
            ({"family": "trig", "lo": 0, "hi": 1}, "m"),
            ({"family": "trig", "lo": 0, "hi": 1, "m": 1}, "k"),
            ({"family": "affine", "lo": 0, "hi": 1, "phase": 0.2}, "power"),
            ({"family": "trig", "hi": 1, "m": 1, "k": 1}, "lo"),
            ({"family": "tabulated", "lo": 0, "hi": 1, "values": [1, 1]}, "grid"),
        ],
    )
    def test_missing_field_is_named(self, rec, field):
        # these used to raise a bare KeyError
        with pytest.raises(OutOfDomain, match=f"'{field}'"):
            density_from_dict(rec)

    @pytest.mark.parametrize(
        "rec, field",
        [
            ({"family": "trig", "lo": 0, "hi": 1, "m": "x", "k": 1}, "m"),
            ({"family": "affine", "lo": 0, "hi": 1, "phase": None, "power": 2}, "phase"),
            ({"family": "trig", "lo": [0], "hi": 1, "m": 1, "k": 1}, "lo"),
            ({"family": "tabulated", "lo": 0, "hi": 1, "grid": [0, 1], "values": ["a", 1]}, "values"),
            ({"family": "trig", "lo": 0, "hi": 1, "m": True, "k": 1}, "m"),
            ({"family": "affine", "lo": 0, "hi": "1", "phase": 0.0, "power": 2}, "hi"),
            ({"family": "tabulated", "lo": 0, "hi": 1, "grid": [0, [1]], "values": [1, 1]}, "grid"),
            ({"family": "tabulated", "lo": 0, "hi": 1, "grid": [0, 1], "values": [True, 1]}, "values"),
        ],
    )
    def test_non_numeric_field_is_named(self, rec, field):
        # "x" used to raise a ValueError outside the library's error family,
        # and a bool (a JSON true) was read as 1.0
        with pytest.raises(OutOfDomain, match=f"'{field}'"):
            density_from_dict(rec)


def test_trig_mass_closed_forms():
    # oracle values by hand: int_0^{pi/2} cos = 1, int sin cos = 1/2,
    # int_{-pi/2}^{pi/2} cos^2 = pi/2
    assert trig_mass(1, 0, 0.0, HALF_PI) == pytest.approx(1.0, abs=1e-12)
    assert trig_mass(1, 1, 0.0, HALF_PI) == pytest.approx(0.5, abs=1e-12)
    assert trig_mass(2, 0, -HALF_PI, HALF_PI) == pytest.approx(HALF_PI, abs=1e-12)


@pytest.mark.parametrize("needle", [(1, 1, 0.0, 2.0), (1, 1, 1.0, 0.5), (-1, 0, 0.0, 1.0), (math.nan, 0, 0.0, 1.0)])
def test_trig_mass_rejects_what_the_constructor_rejects(needle):
    # (1, 1, 0, 2) returned 0.5, the mass of [0, pi/2], though its domain
    # ends at pi/2
    with pytest.raises(OutOfDomain):
        trig_mass(*needle)
