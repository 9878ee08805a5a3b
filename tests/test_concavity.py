import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from needle_iso import (
    Interval,
    MARGIN_TOL,
    InvalidOrder,
    NonIntegerPower,
    NotApplicable,
    OutOfDomain,
    PreconditionFailed,
    SinAffineDensity,
    TabulatedDensity,
    TrigDensity,
    binomial_decompose,
    check_comparison_lemma,
    integrate,
    is_sin_concave,
    normalize,
    sin_concavity_margin,
)
from needle_iso.concavity import _product_margin

HALF_PI = math.pi / 2
FULL = Interval(-HALF_PI, HALF_PI)


def _loop_reference(f, order, interval=None, grid_size=1024, tol=1e-9):
    """A per-gap loop written apart from ``is_sin_concave``: one pass of
    array slices per midpoint gap, with no input checks.  Kept as the
    reference the kernel must agree with, boolean for boolean."""
    if hasattr(f, "pdf") and hasattr(f, "interval"):
        f, interval = f.pdf, f.interval
    x = interval.grid(grid_size)
    v = np.asarray(f(x), dtype=float)
    if np.any(v < -tol * np.max(np.abs(v))):
        return False
    v = np.maximum(v, 0.0)
    u = np.power(v, 1.0 / order)
    v_tol, u_tol = tol * np.max(v), tol * np.max(u)
    step = x[1] - x[0]
    max_d = grid_size - 1
    for d in range(1, (max_d // 2) + 1):
        gap = 2 * d * step
        if gap >= math.pi - 1e-9:
            break
        i1 = slice(0, grid_size - 2 * d)
        i2 = slice(2 * d, grid_size)
        imid = slice(d, grid_size - d)
        valid = (v[i1] > v_tol) & (v[i2] > v_tol)
        rhs = (u[i1] + u[i2]) / (2.0 * math.cos(0.5 * gap))
        bad = valid & (u[imid] < rhs - u_tol)
        if np.any(bad):
            return False
    return True


class _Span(Interval):
    """An ``Interval`` longer than pi, which ``Interval`` itself refuses; the
    sampled check takes a callable's span only as an ``Interval``, and then
    needs only its ``grid``."""

    def __post_init__(self):
        pass


_unit = st.floats(min_value=0.0, max_value=1.0)
_exponent = st.one_of(st.integers(0, 5), st.floats(min_value=0.0, max_value=5.0))


@st.composite
def _sub_interval(draw, lo, hi, min_length=0.05):
    """The whole of ``[lo, hi]`` or a random piece of it."""
    if draw(st.booleans()):
        return Interval(lo, hi)
    a = lo + draw(_unit) * (hi - lo - min_length)
    return Interval(a, a + min_length + draw(_unit) * (hi - a - min_length))


@st.composite
def _trig(draw):
    m, k = draw(_exponent), draw(_exponent)
    if k == 0:  # pure cosine powers live on the whole half period about 0
        domain = (-HALF_PI, HALF_PI)
    elif m == 0:  # pure sine powers on [0, pi]
        domain = (0.0, math.pi)
    else:
        domain = (0.0, HALF_PI)
    iv = draw(_sub_interval(*domain))
    return normalize(TrigDensity(m=m, k=k, interval=iv)), None


@st.composite
def _affine(draw):
    phase = draw(st.floats(min_value=-1.0, max_value=1.0))
    power = draw(_exponent)
    iv = draw(_sub_interval(phase - HALF_PI, phase + HALF_PI))
    return normalize(SinAffineDensity(phase=phase, power=power, interval=iv)), None


@st.composite
def _tabulated(draw):
    knots = draw(st.integers(2, 12))
    iv = draw(_sub_interval(0.0, math.pi))
    values = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=3.0)),
            min_size=knots,
            max_size=knots,
        ).filter(lambda vals: sum(vals) > 0.1)
    )
    grid = np.linspace(iv.lo, iv.hi, knots)
    return normalize(TabulatedDensity(grid=grid, values=values)), None


@st.composite
def _product(draw):
    iv = draw(_sub_interval(0.0, HALF_PI))
    f = SinAffineDensity(
        phase=draw(st.floats(min_value=iv.hi - HALF_PI, max_value=iv.lo + HALF_PI)),
        power=draw(_exponent),
        interval=iv,
    )
    g = TrigDensity(m=draw(_exponent), k=draw(_exponent), interval=iv)
    return (lambda t: np.asarray(f.pdf(t)) * np.asarray(g.pdf(t))), iv


@st.composite
def _edited(draw):
    """A cosine power shifted down by up to a few ``tol``, so some samples
    sit below ``tol`` or slightly below zero, and cut to a zero plateau;
    on an interval of length pi, or longer than pi, the gap cut-off fires."""
    m = draw(_exponent)
    shift = draw(st.sampled_from([0.0, 5e-10, 1e-9, 1.5e-9, 3e-9]))
    cut = draw(st.one_of(st.none(), st.tuples(_unit, _unit)))
    iv = draw(
        st.one_of(
            _sub_interval(-HALF_PI, HALF_PI),
            st.builds(_Span, st.just(-2.0), st.floats(min_value=1.15, max_value=2.5)),
        )
    )

    def f(t):
        v = np.abs(np.cos(t)) ** m - shift
        if cut is not None:
            a = iv.lo + cut[0] * (iv.hi - iv.lo)
            v = np.where((t >= a) & (t <= a + 0.3 * cut[1]), 0.0, v)
        return v

    return f, iv


@st.composite
def _shifted_cosines(draw):
    """``prod_i cos^(p_i)(t - phi_i)`` for 1 to 3 factors, on a piece of the
    window where every factor is nonnegative, with an order from a fifth to
    one and a half times ``sum p_i``."""
    phases = draw(st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=3))
    powers = [draw(st.one_of(st.integers(1, 4), st.floats(0.1, 4.0))) for _ in phases]
    iv = draw(_sub_interval(max(phases) - HALF_PI, min(phases) + HALF_PI))
    order = sum(powers) * draw(st.one_of(st.just(1.0), st.floats(0.2, 1.5)))
    return powers, phases, iv, order


_needles = st.one_of(_trig(), _affine(), _tabulated(), _product(), _edited())


class TestIsSinConcave:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_cosine_power_accepted_at_its_order(self, n):
        d = normalize(TrigDensity(m=n - 1, k=0, interval=FULL))
        assert is_sin_concave(d, n - 1)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_sine_power_rejected(self, n):
        assert not is_sin_concave(lambda t: np.sin(t) ** n, n, interval=FULL)

    def test_product_of_concave_passes_at_sum_order(self):
        iv = Interval(0.1, 1.2)
        f = normalize(SinAffineDensity(phase=0.3, power=2, interval=iv))
        g = normalize(SinAffineDensity(phase=0.9, power=3, interval=iv))
        assert is_sin_concave(lambda t: f.pdf(t) * g.pdf(t), 5, interval=iv)

    def test_invalid_order(self):
        d = normalize(TrigDensity(m=1, k=0, interval=FULL))
        with pytest.raises(InvalidOrder):
            is_sin_concave(d, 0)

    def test_affine_members_pass_at_their_power(self):
        d = normalize(SinAffineDensity(phase=-0.4, power=4, interval=Interval(0.0, 1.0)))
        assert is_sin_concave(d, 4)

    def test_uniform_density_is_never_concave(self):
        # constants fail the midpoint inequality for every order
        d = normalize(TrigDensity(m=0, k=0, interval=Interval(0.0, 1.0)))
        assert not is_sin_concave(d, 1)
        assert not is_sin_concave(d, 7)

    def test_pinned_order_of_pure_cosine_square(self):
        # cos^2 on the full interval passes exactly at its own order; the
        # midpoint inequality fails one order below (checked against the
        # closed-form counterexample at x1 = pi/8, x2 = 3 pi/8)
        d = normalize(TrigDensity(m=2, k=0, interval=FULL))
        assert is_sin_concave(d, 2)
        assert not is_sin_concave(d, 1)
        lhs = math.cos(math.pi / 4) ** 2
        rhs = (math.cos(math.pi / 8) ** 2 + math.cos(3 * math.pi / 8) ** 2) / (
            2 * math.cos(math.pi / 8)
        )
        assert lhs < rhs - 1e-3


class TestSampledCheck:
    @given(
        needle=_needles,
        order=st.one_of(st.integers(1, 9), st.floats(min_value=0.1, max_value=9.0)),
        grid_size=st.one_of(st.just(1024), st.integers(3, 1100)),
        tol=st.sampled_from([1e-9, 0.0, 1e-6]),
    )
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_matches_loop_reference(self, needle, order, grid_size, tol):
        f, iv = needle
        kw = {"interval": iv, "grid_size": grid_size, "tol": tol}
        assert is_sin_concave(f, order, **kw) == _loop_reference(f, order, **kw)

    @given(
        needle=_needles,
        order=st.one_of(st.integers(1, 9), st.floats(min_value=0.1, max_value=9.0)),
        grid_size=st.one_of(st.just(256), st.integers(3, 600)),
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_verdict_does_not_depend_on_scale(self, needle, order, grid_size):
        f, iv = needle
        if iv is None:
            f, iv = f.pdf, f.interval
        verdicts = {
            is_sin_concave(lambda t, c=c: c * np.asarray(f(t)), order, interval=iv, grid_size=grid_size)
            for c in (1e-12, 1.0, 1e12)
        }
        assert len(verdicts) == 1

    def test_normalized_sin_affine_needle_passes(self):
        # g = f^4 = c cos t, so g'' + g = 0 exactly; the norm^4 of about 7.8e6
        # once scaled the rounding of g past an absolute tol
        iv = Interval(-HALF_PI, -HALF_PI + 0.05)
        bare = SinAffineDensity(phase=0.0, power=0.25, interval=iv)
        for d in (bare, normalize(bare)):
            assert is_sin_concave(d, 0.25, grid_size=256)

    @pytest.mark.parametrize("c", [1e-13, 1.0])
    def test_small_convex_function_is_rejected(self, c):
        # f'' + f = c (t - 1/2)^2 + 3 c > 0; below an absolute tol, the whole
        # of c = 1e-13 was once masked off as zero and accepted
        assert not is_sin_concave(lambda t: c * ((t - 0.5) ** 2 + 1), 1, interval=Interval(0.0, 1.0))

    @pytest.mark.parametrize("grid_size", [3, 4, 129, 130, 1023, 1024, 1025])
    def test_half_period_cut_off(self, grid_size):
        # on [0, pi] the widest pair of an odd grid spans pi and is skipped
        d = normalize(TrigDensity(m=0, k=1, interval=Interval(0.0, math.pi)))
        assert is_sin_concave(d, 1, grid_size=grid_size)
        assert _loop_reference(d, 1, grid_size=grid_size)

    def test_pairs_within_a_nanoradian_of_pi_are_skipped(self):
        # every gap of this 5-point grid is pi - 5e-10 or wider, so no pair is
        # checked and even a constant passes
        span = _Span(0.0, 2.0 * (math.pi - 5e-10))
        for check in (is_sin_concave, _loop_reference):
            assert check(np.ones_like, 1, interval=span, grid_size=5)

    def test_memory_stays_bounded_on_a_large_grid(self):
        # the whole triangle of pairs of a 4096-point grid is about 67 MB of
        # float64; one gap at a time is a few arrays of at most 32 KB
        d = normalize(TrigDensity(m=3, k=0, interval=FULL))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            passed = is_sin_concave(d, 3, grid_size=4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert passed
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("order", [math.nan, math.inf, -math.inf])
    def test_non_finite_order_rejected(self, order):
        d = normalize(TrigDensity(m=1, k=0, interval=FULL))
        with pytest.raises(InvalidOrder):
            is_sin_concave(d, order)

    @pytest.mark.parametrize("grid_size", [1, 2, 0, -5, 256.0, True, "256"])
    def test_grid_size_must_be_an_integer_of_at_least_three(self, grid_size):
        d = normalize(TrigDensity(m=1, k=0, interval=FULL))
        with pytest.raises(OutOfDomain):
            is_sin_concave(d, 1, grid_size=grid_size)

    @pytest.mark.parametrize("order", [True, False, "2", None, np.array(2.0)])
    def test_order_must_be_an_int_or_a_float(self, order):
        # a bool was read as order 1 and a string or None raised a bare TypeError
        d = normalize(TrigDensity(m=1, k=0, interval=FULL))
        with pytest.raises(OutOfDomain, match="concavity order"):
            is_sin_concave(d, order)

    def test_callable_interval_must_be_an_interval(self):
        with pytest.raises(OutOfDomain, match="explicit interval"):
            is_sin_concave(np.cos, 2, interval=(0.0, 1.0))

    @pytest.mark.parametrize("interval", [(0.0, 1.0), Interval(0.0, 1.0), Interval(0.0, 3.0)])
    def test_density_brings_its_own_interval(self, interval):
        # the interval was ignored: this call returned True
        with pytest.raises(OutOfDomain, match="its own interval"):
            is_sin_concave(TrigDensity(0, 3, Interval(0.0, 3.0)), 3, interval=interval)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-9, "x", None, True])
    def test_tolerance_must_be_finite_and_nonnegative(self, tol):
        # a NaN or infinite tol once made every pair vacuous and passed sin^3
        with pytest.raises(OutOfDomain):
            is_sin_concave(lambda t: np.sin(t) ** 3, 3, interval=FULL, tol=tol)

    def test_numpy_integer_grid_size_accepted(self):
        d = normalize(TrigDensity(m=1, k=0, interval=FULL))
        assert is_sin_concave(d, 1, grid_size=np.int64(256))

    @pytest.mark.parametrize(
        "f",
        [
            lambda t: np.full_like(t, np.nan),
            lambda t: np.where(t > 0.5, np.nan, np.cos(t)),
            lambda t: np.cos(t[:-1]),
            lambda t: 1.0,
        ],
        ids=["all_nan", "one_nan_run", "short", "scalar"],
    )
    def test_nan_or_misshaped_samples_rejected(self, f):
        with pytest.raises(OutOfDomain):
            is_sin_concave(f, 1, interval=FULL)


def _closed_form_h(d, order, t):
    """The README closed forms, written out apart from the kernel: ``q(x)/(1 +
    x)^2`` at ``x = tan^2 t`` for two factors, ``(w^2 - w) s + (1 - w)(1 -
    s)`` at ``s = sin^2(t - phase)`` for one."""
    if isinstance(d, TrigDensity) and d.m > 0 and d.k > 0:
        a, b, x = d.m / order, d.k / order, math.tan(t) ** 2
        q = (a * a - a) * x * x + (1 - a - b - 2 * a * b) * x + (b * b - b)
        return q / (1 + x) ** 2
    if isinstance(d, TrigDensity):
        power, phase = (d.m, 0.0) if d.k == 0 else (d.k, HALF_PI)
    else:
        power, phase = d.power, d.phase
    w, s = power / order, math.sin(t - phase) ** 2
    return (w * w - w) * s + (1 - w) * (1 - s)


def _mp_h(d, order, t):
    """The same multiple of ``(g'' + g)/g``, ``g = f^(1/order)``, from a
    40-digit numerical second derivative."""
    with mpmath.workdps(40):
        t = mpmath.mpf(t)
        if isinstance(d, TrigDensity):
            m, k = mpmath.mpf(d.m), mpmath.mpf(d.k)
            g = lambda u: (mpmath.cos(u) ** m * mpmath.sin(u) ** k) ** (1 / mpmath.mpf(order))
            weight = (mpmath.sin(t) * mpmath.cos(t)) ** 2 if d.m > 0 and d.k > 0 else None
            if weight is None:
                phase = mpmath.mpf(0) if d.k == 0 else mpmath.pi / 2
                weight = mpmath.cos(t - phase) ** 2
        else:
            phase, p = mpmath.mpf(d.phase), mpmath.mpf(d.power)
            g = lambda u: mpmath.cos(u - phase) ** (p / mpmath.mpf(order))
            weight = mpmath.cos(t - phase) ** 2
        return float(weight * (mpmath.diff(g, t, 2) + g(t)) / g(t))


# (density, order) with the interval inside the open domain, so g is smooth at
# both ends; the argmax falls at the vertex, an end, or the phase
_MARGIN_CASES = [
    (TrigDensity(m=1, k=3, interval=Interval(0.2, 1.3)), 1),
    (TrigDensity(m=1, k=3, interval=Interval(0.2, 1.3)), 4),
    (TrigDensity(m=3, k=2, interval=Interval(0.1, 1.4)), 1),
    (TrigDensity(m=3, k=2, interval=Interval(0.1, 1.4)), 2),
    (TrigDensity(m=2.5, k=0.7, interval=Interval(0.3, 1.2)), 1.3),
    (TrigDensity(m=4, k=1, interval=Interval(0.05, 1.5)), 2),
    (TrigDensity(m=2, k=0, interval=Interval(-1.4, 0.9)), 1),
    (TrigDensity(m=0, k=3, interval=Interval(0.4, 2.9)), 2),
    (SinAffineDensity(phase=0.4, power=3, interval=Interval(-0.8, 1.6)), 4),
    (SinAffineDensity(phase=-0.3, power=1.5, interval=Interval(0.1, 1.2)), 1),
    (SinAffineDensity(phase=0.9, power=2, interval=Interval(0.0, 1.1)), 2),
]


class TestExactMargin:
    @pytest.mark.parametrize("d, order", _MARGIN_CASES)
    def test_matches_forty_digit_reference(self, d, order):
        margin, argmax = sin_concavity_margin(d, order)
        assert d.interval.lo <= argmax <= d.interval.hi
        assert margin == pytest.approx(_mp_h(d, order, argmax), abs=1e-12)
        for t in (d.interval.lo, argmax, d.interval.hi):
            assert _closed_form_h(d, order, t) == pytest.approx(_mp_h(d, order, t), abs=1e-12)
            assert margin >= _mp_h(d, order, t) - 1e-12
        # no interior point beats the returned maximum
        for t in d.interval.grid(9)[1:-1]:
            assert margin >= _mp_h(d, order, float(t)) - 1e-12

    def test_readme_order_one_root(self):
        # cos t sin^3 t at order 1: q(x) = 6 - 9x, decreasing for x < 7/3, so
        # the margin sits at lo and changes sign at atan(sqrt(2/3))
        root = math.atan(math.sqrt(2 / 3))
        for lo in (0.1, 0.4, 0.6, root + 0.05):
            d = TrigDensity(m=1, k=3, interval=Interval(lo, 1.0))
            margin, argmax = sin_concavity_margin(d, 1)
            x = math.tan(lo) ** 2
            assert argmax == lo
            assert margin == pytest.approx((6 - 9 * x) / (1 + x) ** 2, abs=1e-12)
            assert (margin > MARGIN_TOL) == (lo < root)
        at_root = sin_concavity_margin(TrigDensity(m=1, k=3, interval=Interval(root, 1.2)), 1)
        assert abs(at_root.margin) <= MARGIN_TOL
        below = TrigDensity(m=1, k=3, interval=Interval(root - 1e-6, 1.2))
        assert sin_concavity_margin(below, 1).margin > MARGIN_TOL

    @pytest.mark.parametrize("lo, hi", [(0.0, HALF_PI), (0.3, 0.9), (1e-3, 1.5)])
    def test_readme_order_four_is_flat(self, lo, hi):
        # cos t sin^3 t at order 4: q(x) = -(3/16)(x + 1)^2, so h = -3/16
        d = TrigDensity(m=1, k=3, interval=Interval(lo, hi))
        assert sin_concavity_margin(d, 4).margin == pytest.approx(-3 / 16, abs=1e-15)

    @given(
        m=st.floats(min_value=0.01, max_value=6.0),
        k=st.floats(min_value=0.01, max_value=6.0),
        u=_unit,
        iv=_sub_interval(0.0, HALF_PI),
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_family_band_is_a_theorem(self, m, k, u, iv):
        # every order in [max(m, k), m + k] makes all three coefficients of
        # q nonpositive, on any interval of [0, pi/2]
        d = TrigDensity(m=m, k=k, interval=iv)
        top = max(m, k)
        orders = {top, m + k, top + u * min(m, k)}
        orders |= set(range(math.ceil(top), math.floor(m + k) + 1))
        for order in orders:
            assert sin_concavity_margin(d, order).margin <= 0.0

    @given(
        needle=st.one_of(_trig(), _affine()),
        order=st.one_of(st.integers(1, 9), st.floats(min_value=0.1, max_value=9.0)),
        grid_size=st.one_of(st.just(256), st.integers(3, 1100)),
    )
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_sampled_rejection_implies_positive_margin(self, needle, order, grid_size):
        # the grid rejects only a real violation, so the exact route must
        # reject too; the converse fails where a violation hides between
        # grid points.  Both run on the normalized needle, whose norm^(1/order)
        # reaches 5e14 here: both verdicts are scale-free
        d, _ = needle
        if not is_sin_concave(d, order, grid_size=grid_size):
            assert sin_concavity_margin(d, order).margin > MARGIN_TOL

    @given(case=_shifted_cosines(), grid_size=st.sampled_from([64, 256, 512]))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_sampled_rejection_of_a_product_implies_positive_margin(self, case, grid_size):
        # the kernel's rows beyond the closed families: 1-3 shifted cosines,
        # at orders down to a fifth of the summed power, where the grid
        # rejects about two draws in five
        powers, phases, iv, order = case

        def f(t):
            factors = [np.maximum(np.cos(t - ph), 0.0) ** p for p, ph in zip(powers, phases)]
            return np.prod(factors, axis=0)

        margin, argmax = _product_margin(np.array([powers]) / order, [phases], [iv.lo], [iv.hi])
        assert iv.lo <= argmax[0] <= iv.hi
        if not is_sin_concave(f, order, interval=iv, grid_size=grid_size):
            assert margin[0] > MARGIN_TOL

    def test_seed_2024_witness_hides_between_grid_points(self):
        # the one verdict the exact route moves in density.order_reduction at
        # seed 2024: for f = cos t sin^2 t, f'' + f = 2 cos t (cos^2 t - 3
        # sin^2 t), positive on [lo, pi/6); that sliver is narrower than the
        # 256-point grid step, so the sampled check accepts order 1
        lo, hi = 0.5204458561371477, 1.5372037446669224
        d = normalize(TrigDensity(m=1, k=2, interval=Interval(lo, hi)))
        margin, argmax = sin_concavity_margin(d, 1)
        assert argmax == lo
        # h = sin^2 cos^2 (f'' + f)/f = 2 cos^2 t (cos^2 t - 3 sin^2 t)
        closed = 2 * math.cos(lo) ** 2 * (math.cos(lo) ** 2 - 3 * math.sin(lo) ** 2)
        assert margin == pytest.approx(closed, abs=1e-12)
        assert margin > MARGIN_TOL
        sliver, step = math.pi / 6 - lo, (hi - lo) / 255
        assert sliver == pytest.approx(3.2e-3, abs=1e-4) and step == pytest.approx(4.0e-3, abs=1e-4)
        assert sliver < step
        assert is_sin_concave(d, 1, grid_size=256)
        tail = TrigDensity(m=1, k=2, interval=Interval(math.pi / 6, hi))
        assert sin_concavity_margin(tail, 1).margin <= MARGIN_TOL

    @pytest.mark.parametrize(
        "f",
        [
            TabulatedDensity(grid=[0.0, 0.5, 1.0], values=[1.0, 2.0, 1.0]),
            lambda t: np.cos(t),
            FULL,
        ],
        ids=["tabulated", "callable", "interval"],
    )
    def test_other_inputs_not_applicable(self, f):
        with pytest.raises(NotApplicable):
            sin_concavity_margin(f, 1)

    @pytest.mark.parametrize("order", [0, -1.0, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "d",
        [
            TrigDensity(m=1, k=2, interval=Interval(0.2, 1.0)),
            TrigDensity(m=2, k=0, interval=FULL),
            SinAffineDensity(phase=0.3, power=2, interval=Interval(0.0, 1.0)),
        ],
        ids=["two_factor", "pure_cosine", "affine"],
    )
    def test_invalid_order(self, d, order):
        with pytest.raises(InvalidOrder):
            sin_concavity_margin(d, order)

    @pytest.mark.parametrize("order", [True, "2", None])
    def test_order_must_be_an_int_or_a_float(self, order):
        d = TrigDensity(m=1, k=2, interval=Interval(0.2, 1.0))
        with pytest.raises(OutOfDomain, match="concavity order"):
            sin_concavity_margin(d, order)


def _mp_row_h(weights, phases, t):
    """``h`` of one row of shifted-cosine factors at ``t`` in mpmath, from
    the module docstring's formula: ``(sum w_i s_i P_i)^2 - sum w_i s_i^2
    P_i^2 + (1 - W) prod c_j^2``."""
    c = [mpmath.cos(t - ph) for ph in phases]
    sp = [mpmath.sin(t - ph) * mpmath.fprod(c[:i] + c[i + 1 :]) for i, ph in enumerate(phases)]
    return (
        mpmath.fsum(w * x for w, x in zip(weights, sp)) ** 2
        - mpmath.fsum(w * x * x for w, x in zip(weights, sp))
        + (1 - mpmath.fsum(weights)) * mpmath.fprod(x * x for x in c)
    )


def _mp_row_max(weights, phases, lo, hi, cells=96):
    """The 40-digit maximum of ``h`` on ``[lo, hi]``, with no polynomial
    root finder: the largest of ``h`` at ``cells + 1`` uniform points (the
    ends among them) and at every root of ``h'`` where it falls from + to -
    between two of them, a bracketed root.  A slope within 1e-30 of 0 is
    the numerical derivative's noise, not a sign."""
    with mpmath.workdps(40):
        w, ph = [mpmath.mpf(float(x)) for x in weights], [mpmath.mpf(float(x)) for x in phases]

        def h(t):
            return _mp_row_h(w, ph, t)

        def slope(t):
            return mpmath.diff(h, t)

        grid = mpmath.linspace(mpmath.mpf(float(lo)), mpmath.mpf(float(hi)), cells + 1)
        slopes = [slope(t) for t in grid]
        best = max(h(t) for t in grid)
        noise = mpmath.mpf(10) ** -30
        for a, b, sa, sb in zip(grid, grid[1:], slopes, slopes[1:]):
            if sa > noise and sb < -noise:
                best = max(best, h(mpmath.findroot(slope, (a, b), solver="illinois")))
        return best


def _assert_row_margin(weights, phases, lo, hi):
    """The kernel's margin of one row is the 40-digit maximum of ``h``, and
    its angle lies in ``[lo, hi]`` and attains it; returns the angle."""
    margin, argmax = _product_margin(np.array([weights], dtype=float), [phases], [lo], [hi])
    assert lo <= argmax[0] <= hi
    assert margin[0] == pytest.approx(float(_mp_row_max(weights, phases, lo, hi)), abs=1e-12)
    with mpmath.workdps(40):
        w, ph = [mpmath.mpf(float(x)) for x in weights], [mpmath.mpf(float(x)) for x in phases]
        at = _mp_row_h(w, ph, mpmath.mpf(float(argmax[0])))
    assert margin[0] == pytest.approx(float(at), abs=1e-12)
    return argmax[0]


class TestMarginKernel:
    """``_product_margin`` against a 40-digit maximum of ``h`` found without
    its companion matrix."""

    @given(case=_shifted_cosines())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_random_rows_match_the_forty_digit_maximum(self, case):
        powers, phases, iv, order = case
        _assert_row_margin(np.array(powers) / order, phases, iv.lo, iv.hi)

    @pytest.mark.parametrize("gap", [1e-12, 1e-9, 1e-6, 1e-3])
    @pytest.mark.parametrize(
        "powers, phases, order",
        [
            ((3.0,), (0.4,), 1.0),
            ((3.0,), (0.4,), 5.0),
            ((2.0, 1.5), (0.3, 0.3005), 1.2),
            ((1.0, 2.0, 0.5), (-0.2, -0.2, -0.1995), 3.5),
            ((1.0, 2.0, 0.5), (-0.2, -0.2, -0.1995), 0.8),
        ],
    )
    def test_intervals_close_to_pi(self, powers, phases, order, gap):
        # the window where every factor is nonnegative, less ``gap`` at each
        # end: the roots at z = infinity, mid +- pi/2, lie within ``gap`` of it
        lo, hi = max(phases) - HALF_PI + gap, min(phases) + HALF_PI - gap
        assert hi - lo > math.pi - 1e-3 - 2 * gap
        _assert_row_margin(np.array(powers) / order, phases, lo, hi)

    @pytest.mark.parametrize("w", [0.25, 0.5, 0.9, 1.0, 1.5, 3.0])
    def test_pure_sine_on_zero_to_pi(self, w):
        # h = (w^2 - w) cos^2 t + (1 - w) sin^2 t: its largest value is
        # 1 - w at pi/2 for w < 1 and w^2 - w at the ends for w > 1
        argmax = _assert_row_margin([w], [HALF_PI], 0.0, math.pi)
        d = TrigDensity(m=0, k=2 * w, interval=Interval(0.0, math.pi))
        margin = sin_concavity_margin(d, 2)
        if w < 1:
            assert argmax == pytest.approx(HALF_PI, abs=1e-12)
            assert margin.argmax == pytest.approx(HALF_PI, abs=1e-12)
            assert margin.margin == pytest.approx(1 - w, abs=1e-14)
        elif w > 1:
            assert argmax == 0.0 and margin.argmax == 0.0
            assert margin.margin == pytest.approx(w * w - w, abs=1e-14)
        else:
            assert margin.margin == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize(
        "weights, phases, lo, hi, where",
        [
            # cos t sin^3 t at order 1 falls from lo, and its mirror
            # cos^3 t sin t rises to hi
            ((1.0, 3.0), (0.0, HALF_PI), 0.3, 1.0, "lo"),
            ((3.0, 1.0), (0.0, HALF_PI), HALF_PI - 1.0, HALF_PI - 0.3, "hi"),
            # cos^3(t - 0.2) at order 1 is largest farthest from its phase
            ((3.0,), (0.2,), -0.5, 1.3, "hi"),
            # sine factors of summed weight below 1 peak at pi/2 together
            ((0.3, 0.4), (HALF_PI, HALF_PI), 0.3, 2.5, "pi/2"),
            ((0.2, 0.1, 0.3), (HALF_PI, HALF_PI, HALF_PI), 0.05, 2.0, "pi/2"),
            ((0.6,), (HALF_PI,), 1.2, 2.9, "pi/2"),
        ],
    )
    def test_maximum_at_an_end_or_at_half_pi(self, weights, phases, lo, hi, where):
        argmax = _assert_row_margin(weights, phases, lo, hi)
        if where == "pi/2":
            assert argmax == pytest.approx(HALF_PI, abs=1e-9)
        else:
            assert argmax == {"lo": lo, "hi": hi}[where]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_batch_rows_keep_their_bits(self, k):
        # each row's margin and angle have the bits of its own one-row call
        gen = np.random.default_rng(k)
        phases = gen.uniform(-1.0, 1.0, (40, k))
        lo = phases.max(axis=1) - HALF_PI + gen.uniform(0.0, 1.0, 40)
        hi = phases.min(axis=1) + HALF_PI - gen.uniform(0.0, 1.0, 40)
        weights = gen.uniform(0.0, 2.0, (40, k))
        weights[::7, 0] = 0.0  # absent factors
        margin, argmax = _product_margin(weights, phases, lo, hi)
        for i in range(40):
            one = _product_margin(weights[i : i + 1], phases[i : i + 1], lo[i : i + 1], hi[i : i + 1])
            assert (margin[i], argmax[i]) == (one[0][0], one[1][0])

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_margin_work_count(self, monkeypatch, k):
        # one eigensolver call per kernel call, on the real companion
        # matrices of every row at once: float64, 2K x 2K
        calls = []
        eigvals = np.linalg.eigvals

        def counting(a):
            calls.append((a.dtype, a.shape))
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counting)
        gen = np.random.default_rng(k)
        _product_margin(gen.uniform(0.1, 2.0, (9, k)), np.zeros((1, k)), np.full(9, -0.5), np.full(9, 1.0))
        assert calls == [(np.dtype(np.float64), (9, 2 * k, 2 * k))]


class TestComparisonLemma:
    def test_self_comparison_is_equality(self):
        n = 3
        d = normalize(TrigDensity(m=n, k=0, interval=Interval(0.0, HALF_PI)))
        rep = check_comparison_lemma(d, n, epsilon=0.3, k=0)
        assert rep.pointwise_ok and rep.ratio_ok
        assert rep.ratio_lhs == pytest.approx(rep.ratio_rhs, abs=1e-9)
        assert rep.tau_within_quarter_period

    def test_steeper_cosine_power_dominated(self):
        # f = C cos^4 checked against the cos^2 envelope on [0, 0.6]
        # (0.6 keeps f inside the order-2 concavity region tan^2 <= 1/2)
        d = normalize(TrigDensity(m=4, k=0, interval=Interval(0.0, 0.6)))
        rep = check_comparison_lemma(d, 2, epsilon=0.3, k=0)
        assert rep.pointwise_ok and rep.ratio_ok

    def test_ratio_inequality_with_sine_weight(self):
        n = 2
        d = normalize(TrigDensity(m=n, k=0, interval=Interval(0.0, HALF_PI)))
        rep = check_comparison_lemma(d, n, epsilon=math.pi / 4, k=2)
        assert rep.ratio_ok

    def test_shifted_cosine_product_both_checks(self):
        def f(t):
            return np.cos(t + 0.3) ** 2 * np.cos(t + 0.1)

        rep = check_comparison_lemma(
            f, 3, epsilon=0.4, k=1, interval=Interval(0.0, 0.9)
        )
        assert rep.pointwise_ok and rep.ratio_ok

    def test_rejects_interior_maximum(self):
        d = normalize(TrigDensity(m=1, k=1, interval=Interval(0.0, HALF_PI)))
        with pytest.raises(PreconditionFailed):
            check_comparison_lemma(d, 2, epsilon=0.3, k=0)

    @pytest.mark.parametrize(
        "f,epsilon,k,interval,error,match",
        [
            (np.cos, 0.3, 0, None, OutOfDomain, "explicit interval"),
            (np.cos, 0.3, -1, Interval(0.0, 1.0), OutOfDomain, "nonnegative"),
            (np.cos, 0.3, 0, Interval(0.1, 1.0), PreconditionFailed, "start at 0"),
            (np.cos, 0.3, 0, Interval(0.0, 0.3), PreconditionFailed, "tau must exceed"),
            (lambda t: np.where(t < 0.5, 1.0, 0.5), 0.3, 0, Interval(0.0, 1.0), PreconditionFailed, "concave"),
            (lambda t: np.maximum(np.cos(2 * t), 0.0), 0.9, 0, Interval(0.0, 1.0), PreconditionFailed, "positive"),
            (np.cos, 0.3, 0, (0.0, 1.0), OutOfDomain, "explicit interval"),
            (np.cos, 0.3, "1", Interval(0.0, 1.0), OutOfDomain, "exponent k"),
            (np.cos, 0.3, None, Interval(0.0, 1.0), OutOfDomain, "exponent k"),
            (np.cos, "0.3", 0, Interval(0.0, 1.0), OutOfDomain, "epsilon"),
            (np.cos, None, 0, Interval(0.0, 1.0), OutOfDomain, "epsilon"),
        ],
        ids=[
            "no-interval", "negative-k", "domain-not-at-0", "tau-at-eps", "not-concave", "zero-at-eps",
            "tuple-interval", "string-k", "none-k", "string-epsilon", "none-epsilon",
        ],
    )
    def test_rejects_inputs_outside_the_lemma(self, f, epsilon, k, interval, error, match):
        with pytest.raises(error, match=match):
            check_comparison_lemma(f, 1, epsilon, k, interval=interval)

    def test_rejects_epsilon_out_of_range(self):
        d = normalize(TrigDensity(m=2, k=0, interval=Interval(0.0, 1.0)))
        with pytest.raises(PreconditionFailed):
            check_comparison_lemma(d, 2, epsilon=1.7, k=0)

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_verdicts_are_scale_free(self, scale):
        # 1e12 cos^2 used to raise QuadratureError at the absolute atol 1e-13
        rep = check_comparison_lemma(
            lambda t: scale * np.cos(t) ** 2, 2, epsilon=0.3, k=0, interval=Interval(0.0, 1.0)
        )
        base = check_comparison_lemma(
            lambda t: np.cos(t) ** 2, 2, epsilon=0.3, k=0, interval=Interval(0.0, 1.0)
        )
        assert (rep.pointwise_ok, rep.ratio_ok) == (base.pointwise_ok, base.ratio_ok) == (True, True)
        assert rep.ratio_lhs == pytest.approx(base.ratio_lhs, abs=1e-12)
        assert rep.envelope_constant == pytest.approx(scale * base.envelope_constant, rel=1e-12)

    @pytest.mark.parametrize("normalized", [False, True])
    def test_vanishing_fractional_power_takes_the_closed_cdf(self, normalized):
        # cos(t - phase)^0.25 vanishes at tau with an infinite slope, which
        # the adaptive quadrature could not resolve
        d = SinAffineDensity(phase=0.05 - HALF_PI, power=0.25, interval=Interval(0.0, 0.05))
        d = normalize(d) if normalized else d
        rep = check_comparison_lemma(d, 0.25, epsilon=0.01, k=0)
        assert rep.pointwise_ok and rep.ratio_ok
        assert rep.ratio_lhs == d.cdf(0.01)

    def test_sine_weight_on_a_trig_density_is_closed_form(self):
        d = normalize(TrigDensity(m=2, k=0, interval=Interval(0.0, 1.0)))
        rep = check_comparison_lemma(d, 2, epsilon=0.4, k=2)

        def weighted(t):
            return np.cos(t) ** 2 * np.sin(t) ** 2

        lhs = integrate(weighted, 0.0, 0.4, atol=1e-14) / integrate(weighted, 0.0, 1.0, atol=1e-14)
        assert rep.ratio_lhs == pytest.approx(lhs, abs=1e-12)

    @pytest.mark.parametrize("order", [math.nan, math.inf, -math.inf, 0.0])
    def test_order_must_be_finite_and_positive(self, order):
        # sin(t + 0.2) peaks inside [0, 1.4], so an order checked only after
        # the maximum-at-0 precondition would raise PreconditionFailed instead
        with pytest.raises(InvalidOrder):
            check_comparison_lemma(
                lambda t: np.sin(t + 0.2), order, epsilon=0.3, k=0, interval=Interval(0.0, 1.4)
            )

    @pytest.mark.parametrize("order", [True, "1", None])
    def test_order_must_be_an_int_or_a_float(self, order):
        aff = normalize(SinAffineDensity(phase=0.0, power=2, interval=Interval(0.0, 1.0)))
        with pytest.raises(OutOfDomain, match="concavity order"):
            check_comparison_lemma(aff, order, 0.3, 1)

    @pytest.mark.parametrize("grid_size", [2.5, 2, 0, True, "512", None])
    def test_grid_size_must_be_an_integer_of_at_least_three(self, grid_size):
        aff = normalize(SinAffineDensity(phase=0.0, power=2, interval=Interval(0.0, 1.0)))
        with pytest.raises(OutOfDomain, match="grid_size"):
            check_comparison_lemma(aff, 2, 0.3, 1, grid_size=grid_size)

    @pytest.mark.parametrize("interval", [(5.0, 6.0), Interval(5.0, 6.0), Interval(0.0, 1.0)])
    def test_density_brings_its_own_interval(self, interval):
        # the interval was ignored: the lemma ran on [0, 1]
        aff = normalize(SinAffineDensity(phase=0.0, power=2, interval=Interval(0.0, 1.0)))
        assert check_comparison_lemma(aff, 2, 0.3, 1).pointwise_ok
        with pytest.raises(OutOfDomain, match="its own interval"):
            check_comparison_lemma(aff, 2, 0.3, 1, interval=interval)


class TestBinomialDecompose:
    def test_pure_cosine_phase(self):
        d = normalize(SinAffineDensity(phase=0.0, power=3, interval=Interval(0.0, 1.0)))
        dec = binomial_decompose(d)
        assert len(dec.components) - 1 == 3
        nonzero = [(c, mk) for c, mk in dec.components if abs(c) > 1e-15]
        assert len(nonzero) == 1
        assert nonzero[0][1] == (3.0, 0.0)
        assert sum(dec.masses) == pytest.approx(1.0, abs=1e-10)

    def test_pure_sine_phase(self):
        d = normalize(
            SinAffineDensity(phase=HALF_PI, power=4, interval=Interval(0.0, HALF_PI))
        )
        dec = binomial_decompose(d)
        nonzero = [(c, mk) for c, mk in dec.components if abs(c) > 1e-12]
        assert len(nonzero) == 1
        assert nonzero[0][1] == (0.0, 4.0)

    def test_diagonal_phase_quadratic(self):
        # (sin(pi/4) sin t + cos(pi/4) cos t)^2 expands with coefficients
        # (1/2, 1, 1/2) times the normalization constant
        d = normalize(
            SinAffineDensity(phase=math.pi / 4, power=2, interval=Interval(0.0, HALF_PI))
        )
        dec = binomial_decompose(d)
        coefs = [c for c, _ in dec.components]
        assert coefs == pytest.approx([0.5 * d.norm, 1.0 * d.norm, 0.5 * d.norm])
        assert dec.max_reconstruction_error(d.pdf) < 1e-12
        assert sum(dec.masses) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("p", range(0, 13))
    def test_reconstruction_is_exact_up_to_twelve(self, p):
        d = normalize(
            SinAffineDensity(phase=0.6, power=p, interval=Interval(0.1, 1.2))
        )
        dec = binomial_decompose(d)
        assert dec.max_reconstruction_error(d.pdf) < 1e-10

    def test_sign_carrying_coefficients(self):
        # negative phase yields alternating signs but still reconstructs
        d = normalize(
            SinAffineDensity(phase=-0.5, power=3, interval=Interval(0.0, 0.9))
        )
        dec = binomial_decompose(d)
        assert min(c for c, _ in dec.components) < 0
        assert dec.max_reconstruction_error(d.pdf) < 1e-10
        assert sum(dec.masses) == pytest.approx(1.0, abs=1e-9)

    def test_non_integer_power_rejected(self):
        d = SinAffineDensity(phase=0.0, power=2.5, interval=Interval(0.0, 1.0))
        with pytest.raises(NonIntegerPower):
            binomial_decompose(d)

    @pytest.mark.parametrize(
        "d", [TrigDensity(m=2, k=0, interval=Interval(0.0, 1.0)), FULL, None], ids=["trig", "interval", "none"]
    )
    def test_only_an_affine_density_is_expanded(self, d):
        # a TrigDensity raised AttributeError on its missing phase
        with pytest.raises(OutOfDomain, match="SinAffineDensity"):
            binomial_decompose(d)


def test_comparison_ratio_sides_match_quadrature():
    # independent route: both ratio sides via the adaptive integrator
    n, eps, k = 2, 0.5, 1
    d = normalize(TrigDensity(m=n, k=0, interval=Interval(0.0, 1.2)))
    rep = check_comparison_lemma(d, n, epsilon=eps, k=k)
    lhs = integrate(lambda t: d.pdf(t) * np.sin(t) ** k, 0, eps, atol=1e-13) / integrate(
        lambda t: d.pdf(t) * np.sin(t) ** k, 0, 1.2, atol=1e-13
    )
    rhs = integrate(lambda t: np.cos(t) ** n * np.sin(t) ** k, 0, eps, atol=1e-13) / integrate(
        lambda t: np.cos(t) ** n * np.sin(t) ** k, 0, HALF_PI, atol=1e-13
    )
    assert rep.ratio_lhs == pytest.approx(lhs, abs=1e-10)
    assert rep.ratio_rhs == pytest.approx(rhs, abs=1e-10)
