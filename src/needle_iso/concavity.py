"""Concavity predicates for needle densities and the cosine-envelope checks.

A nonnegative function ``f`` on an interval of length at most pi is
*sin^N-concave* when, for every pair ``x1, x2`` with ``|x2 - x1| < pi``,

    f((x1 + x2)/2)^(1/N) >= (f(x1)^(1/N) + f(x2)^(1/N)) / (2 cos(|x2 - x1|/2)).

For a positive C^2 needle that is ``g'' + g <= 0`` with ``g = f^(1/N)``,
the CD(N-1, N) needle condition.  Two routes decide it:

* ``sin_concavity_margin`` is exact for the closed families.  It returns
  the maximum over the closed interval of a bounded, scale-free multiple
  ``h`` of ``(g'' + g)/g``.  For ``cos^m sin^k`` with ``m, k > 0``, put
  ``a = m/N``, ``b = k/N`` and ``x = tan^2 t``; then ``h = sin^2 t cos^2 t
  (g'' + g)/g = q(x)/(1 + x)^2`` with ``q(x) = A x^2 + B x + C = (a^2 -
  a) x^2 + (1 - a - b - 2ab) x + (b^2 - b)``, finite at 0 and pi/2, largest
  at an end or at the one critical point ``x* = (2C - B)/(2A - B)``.  For
  one factor ``cos^p(t - phase)`` (sin-affine needles, pure cosines, and
  pure sines with phase pi/2), put ``w = p/N`` and ``s = sin^2(t -
  phase)``; then ``h = cos^2(t - phase) (g'' + g)/g = (w^2 - w) s + (1 -
  w)(1 - s)``, linear in ``s``.  A needle passes when its margin is at most
  ``MARGIN_TOL``.  ``density.order_reduction`` and
  ``density.order_reduction_within_family_band`` use this route.
* ``is_sin_concave`` is a sound-but-sampled verifier of the midpoint
  inequality, kept as the independent oracle for callables, tabulated
  input, ``check_comparison_lemma`` and ``density.product_closure`` (whose
  products of shifted cosines are not monomials).  It checks all
  midpoint-aligned pairs of a uniform grid and can therefore reject with
  certainty but accepts only up to the grid resolution.  It evaluates the
  pairs in blocks of at most ``_GAP_BLOCK`` midpoint gaps, one 2-D array
  expression per block, so its working memory is bounded by ``_GAP_BLOCK *
  grid_size`` float64 values (2 MB at ``grid_size=4096``) rather than by
  the whole triangle of pairs.
"""

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import quadrature
from .densities import HALF_PI, Interval, SinAffineDensity, TrigDensity, trig_mass
from .errors import (
    InvalidOrder,
    NonIntegerPower,
    NotApplicable,
    OutOfDomain,
    PreconditionFailed,
    _require_count,
)


def _as_callable(f, interval):
    if hasattr(f, "pdf") and hasattr(f, "interval"):
        return f.pdf, f.interval
    if interval is None:
        raise OutOfDomain("an explicit interval is required for bare callables")
    return f, interval


def _require_order(order):
    if not (math.isfinite(order) and order > 0):
        raise InvalidOrder(f"concavity order must be finite and positive, got {order}")


# Midpoint gaps per array block of ``is_sin_concave``: large enough that the
# per-block numpy overhead is amortized, small enough that a block of a
# 4096-point grid stays near 2 MB.
_GAP_BLOCK = 64


def is_sin_concave(f, order, interval=None, grid_size=1024, tol=1e-9):
    """Sampled check of the sin^N midpoint concavity inequality.

    ``f`` may be a density object or a callable (then ``interval`` is
    required).  ``tol`` is relative, so scaling ``f`` keeps the verdict: a
    pair is checked only where both end values exceed ``tol`` times the
    largest sample (zero values pass vacuously), fails when its midpoint
    falls short by over ``tol`` times the largest ``f^(1/order)``, and a
    value below ``-tol`` times the largest ``|f|`` rejects outright.  Pairs
    at distance >= pi are skipped (the cosine factor would vanish).

    The pairs ``(x[j], x[j + 2d])`` with midpoint ``x[j + d]`` are evaluated
    a block of at most ``_GAP_BLOCK`` gaps ``d`` at a time, as one 2-D array
    over read-only strided views of the samples; the first block holding a
    violated pair rejects.  Each comparison is made with the same operations
    in the same order as a per-gap loop would, so the answer does not depend
    on the blocking, and working memory stays below ``_GAP_BLOCK *
    grid_size`` float64 values plus one boolean array of that shape.

    Raises ``InvalidOrder`` for an order that is not finite and positive,
    and ``OutOfDomain`` for a ``grid_size`` that is not an integer >= 3, a
    ``tol`` that is not finite and nonnegative, or samples that are not
    finite (they have no scale) or not one per grid point.
    """
    _require_order(order)
    _require_count(grid_size, "grid_size", 3)
    if not (math.isfinite(tol) and tol >= 0):
        raise OutOfDomain(f"tol must be finite and nonnegative, got {tol}")
    func, iv = _as_callable(f, interval)
    x = iv.grid(grid_size)
    v = np.asarray(func(x), dtype=float)
    if v.shape != x.shape:
        raise OutOfDomain(f"expected {x.shape[0]} samples, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise OutOfDomain("density samples must be finite")
    if np.any(v < -tol * np.max(np.abs(v))):
        return False
    v = np.maximum(v, 0.0)
    u = np.power(v, 1.0 / order)
    v_tol, u_tol = tol * np.max(v), tol * np.max(u)
    step = x[1] - x[0]
    # denominators 2 cos(gap/2) of the gaps d = 1, 2, ... below pi
    denom = []
    for d in range(1, (grid_size - 1) // 2 + 1):
        gap = 2 * d * step
        if gap >= math.pi - 1e-9:
            break
        denom.append(2.0 * math.cos(0.5 * gap))
    denom = np.array(denom)
    # padding past the last sample: NaN compares false and the mask is off,
    # so the row of gap d holds no pair beyond column grid_size - 2d - 1
    pad = 2 * _GAP_BLOCK
    u_pad = np.concatenate((u, np.full(pad, np.nan)))
    ok_pad = np.concatenate((v > v_tol, np.zeros(pad, dtype=bool)))
    # one buffer pair for every block, so no two blocks are ever alive at once
    rows = min(_GAP_BLOCK, denom.size)
    rhs_buf = np.empty((rows, grid_size - 2))
    bad_buf = np.empty((rows, grid_size - 2), dtype=bool)
    for d0 in range(1, denom.size + 1, _GAP_BLOCK):
        d1 = min(d0 + _GAP_BLOCK, denom.size + 1)
        width = grid_size - 2 * d0
        # row r of a window view starts at sample r: row 0 holds u[j], row d
        # holds u[j + d] and row 2d holds u[j + 2d]
        u_win = sliding_window_view(u_pad, width)
        ok_win = sliding_window_view(ok_pad, width)
        rhs = np.add(u_win[0], u_win[2 * d0 : 2 * d1 : 2], out=rhs_buf[: d1 - d0, :width])
        rhs /= denom[d0 - 1 : d1 - 1, None]
        rhs -= u_tol
        bad = np.less(u_win[d0:d1], rhs, out=bad_buf[: d1 - d0, :width])
        bad &= ok_win[0]
        bad &= ok_win[2 * d0 : 2 * d1 : 2]
        if bad.any():
            return False
    return True


# A closed-family needle is sin^N-concave when its margin is at most this:
# the margin's own rounding is a few ulps of numbers of order one.
MARGIN_TOL = 1e-12

SinConcavityMargin = namedtuple("SinConcavityMargin", "margin argmax")


def sin_concavity_margin(density, order):
    """Exact sin^order-concavity margin of a ``TrigDensity`` or
    ``SinAffineDensity``: the largest value on its closed interval of ``h``,
    a bounded positive multiple of ``(g'' + g)/g`` with ``g =
    density^(1/order)`` (see the module docstring), and an angle where it is
    attained.  The needle is sin^order-concave exactly when the margin is
    ``<= 0``; callers pass it when ``margin <= MARGIN_TOL``.

    Raises ``NotApplicable`` for any other density or a callable, and
    ``InvalidOrder`` for an order that is not finite and positive.
    """
    if not isinstance(density, (TrigDensity, SinAffineDensity)):
        raise NotApplicable(
            f"no closed-form concavity margin for {type(density).__name__}; use is_sin_concave"
        )
    _require_order(order)
    iv = density.interval
    if isinstance(density, SinAffineDensity):
        return _one_factor_margin(density.power / order, density.phase, iv)
    m, k = density.m, density.k
    if m > 0 and k > 0:
        return _two_factor_margin(m / order, k / order, iv)
    # a pure sine is the pure cosine shifted by pi/2
    power, phase = (m, 0.0) if k == 0 else (k, HALF_PI)
    return _one_factor_margin(power / order, phase, iv)


def _two_factor_margin(a, b, iv):
    """Max of ``h = q(tan^2 t)/(1 + tan^2 t)^2``, with ``q(x) = qa x^2 + qb x
    + qc``, over ``iv`` inside [0, pi/2]; it is evaluated as ``qa sin^4 t +
    qb sin^2 t cos^2 t + qc cos^4 t``, finite at both ends."""
    qa, qb, qc = a * a - a, 1.0 - a - b - 2.0 * a * b, b * b - b

    def h(t):
        s2, c2 = math.sin(t) ** 2, math.cos(t) ** 2
        return qa * s2 * s2 + qb * s2 * c2 + qc * c2 * c2

    points = [min(max(iv.lo, 0.0), HALF_PI), min(max(iv.hi, 0.0), HALF_PI)]
    if 2.0 * qa != qb:
        x_star = (2.0 * qc - qb) / (2.0 * qa - qb)
        if x_star > 0.0:
            t_star = math.atan(math.sqrt(x_star))
            if points[0] < t_star < points[1]:
                points.append(t_star)
    return max(SinConcavityMargin(h(t), t) for t in points)


def _one_factor_margin(w, phase, iv):
    """Max of ``h = (w^2 - w) s + (1 - w)(1 - s)`` with ``s = sin^2(t -
    phase)``, over ``iv`` inside [phase - pi/2, phase + pi/2]: linear in
    ``s``, so largest at an end or at ``t = phase``."""

    def h(t):
        tau = min(max(t - phase, -HALF_PI), HALF_PI)
        s = math.sin(tau) ** 2
        return (w * w - w) * s + (1.0 - w) * math.cos(tau) ** 2

    points = [iv.lo, iv.hi]
    if iv.lo < phase < iv.hi:
        points.append(phase)
    return max(SinConcavityMargin(h(t), t) for t in points)


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome of the cosine-envelope comparison for one density."""

    pointwise_ok: bool
    ratio_ok: bool
    tau_within_quarter_period: bool
    envelope_constant: float
    ratio_lhs: float
    ratio_rhs: float


def check_comparison_lemma(f, order, epsilon, k, interval=None, grid_size=512):
    """Compare a concave needle density against its matched cosine envelope.

    ``f`` must be sin^order-concave on ``[0, tau]`` with its maximum at 0.
    The envelope is ``h = C cos^order`` with ``C`` chosen so ``f(eps) =
    h(eps)``.  Checks, on a ``grid_size`` grid, that ``f >= h`` left of
    ``eps`` and ``f <= h`` right of it, and that the sine-weighted head-mass
    ratio of ``f`` on ``[0, tau]`` dominates that of ``cos^order`` on
    ``[0, pi/2]``:

        int_0^eps f sin^k / int_0^tau f sin^k
            >= int_0^eps cos^order sin^k / int_0^{pi/2} cos^order sin^k.

    The checks are scale-free: the pointwise checks and the maximum at 0
    allow 1e-8 times the largest sample of ``f``, and the ratio check 1e-9.
    The head-mass ratio of ``f`` is closed-form where one exists: the
    density's own CDF at ``epsilon`` for a ``TrigDensity`` or
    ``SinAffineDensity`` with ``k == 0``, and :func:`trig_mass` with the
    sine exponent raised by ``k`` for a ``TrigDensity``; otherwise both
    integrals are adaptive quadrature at 1e-13 times the largest sample.
    Raises ``InvalidOrder`` for an order that is not finite and positive,
    and ``PreconditionFailed`` when ``f`` is not sin^order-concave with its
    maximum at 0.
    """
    _require_order(order)
    if k < 0:
        raise OutOfDomain("sine weight exponent k must be nonnegative")
    func, iv = _as_callable(f, interval)
    if abs(iv.lo) > 1e-12:
        raise PreconditionFailed("the comparison domain must start at 0")
    tau = iv.hi
    if not (0.0 < epsilon < HALF_PI):
        raise PreconditionFailed("epsilon must lie in (0, pi/2)")
    if tau <= epsilon:
        raise PreconditionFailed("tau must exceed epsilon")

    x = iv.grid(grid_size)
    fx = np.asarray(func(x), dtype=float)
    peak = float(np.max(fx))
    tol = 1e-8 * peak
    if fx[0] + tol < peak:
        raise PreconditionFailed("density must attain its maximum at 0")
    if not is_sin_concave(func, order, interval=iv, grid_size=min(grid_size, 512)):
        raise PreconditionFailed(f"density is not sin^{order}-concave on its interval")

    f_eps = float(np.asarray(func(np.array([epsilon])))[0])
    if f_eps <= 0:
        raise PreconditionFailed("density must be positive at epsilon")
    envelope_c = f_eps / math.cos(epsilon) ** order

    hx = envelope_c * np.cos(x) ** order
    left = x <= epsilon
    right = ~left
    pointwise_ok = bool(
        np.all(fx[left] >= hx[left] - tol)
        and np.all(fx[right] <= hx[right] + tol)
    )

    if k == 0 and isinstance(f, (TrigDensity, SinAffineDensity)):
        lhs = f.cdf(epsilon)
    elif isinstance(f, TrigDensity):
        lhs = trig_mass(f.m, f.k + k, iv.lo, epsilon) / trig_mass(f.m, f.k + k, iv.lo, tau)
    else:

        def weighted(t):
            return func(t) * np.sin(t) ** k if k > 0 else func(t)

        # f sin^k is at most the peak of f, which sets the integrals' scale
        head = quadrature.integrate(weighted, 0.0, epsilon, atol=1e-13 * peak)
        lhs = head / quadrature.integrate(weighted, 0.0, tau, atol=1e-13 * peak)
    rhs = trig_mass(order, k, 0.0, epsilon) / trig_mass(order, k, 0.0, HALF_PI)
    ratio_ok = bool(lhs >= rhs - 1e-9)

    return ComparisonReport(
        pointwise_ok=pointwise_ok,
        ratio_ok=ratio_ok,
        tau_within_quarter_period=bool(tau <= HALF_PI + 1e-12),
        envelope_constant=envelope_c,
        ratio_lhs=lhs,
        ratio_rhs=rhs,
    )


@dataclass(frozen=True)
class BinomialDecomposition:
    """Expansion of an affine-power density into trig monomial components.

    ``components[i] = (coefficient, (m_i, k_i))`` with ``m_i = p - i`` cosine
    and ``k_i = i`` sine exponents; ``masses[i]`` is the integral of the i-th
    term over the interval, so the masses always sum to one for a normalized
    density (and match the nonnegative-coefficient case exactly).
    """

    components: tuple
    masses: tuple
    interval: Interval

    @property
    def power(self):
        return len(self.components) - 1

    def reconstruct(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for coef, (m, k) in self.components:
            out += coef * np.cos(t) ** m * np.sin(t) ** k
        return out

    def max_reconstruction_error(self, pdf, n=1025):
        x = self.interval.grid(n)
        return float(np.max(np.abs(self.reconstruct(x) - np.asarray(pdf(x)))))


def binomial_decompose(affine):
    """Expand ``C (C1 sin t + C2 cos t)^p`` for integer ``p >= 0``.

    The i-th coefficient is ``C * binom(p, i) C1^i C2^(p-i)`` attached to the
    monomial ``cos^(p-i) sin^i``.  Component masses are computed by adaptive
    quadrature so sign-carrying coefficients (phases outside [0, pi/2]) are
    handled too.
    """
    p_real = affine.power
    p = round(p_real)
    if abs(p_real - p) > 1e-12:
        raise NonIntegerPower(f"power {p_real} is not an integer")
    scale = 1.0 if affine.norm is None else affine.norm
    c1, c2 = affine.c1, affine.c2
    comps = []
    masses = []
    for i in range(p + 1):
        coef = scale * math.comb(p, i) * (c1**i) * (c2 ** (p - i))
        m_exp, k_exp = p - i, i
        comps.append((coef, (float(m_exp), float(k_exp))))
        if coef == 0.0:
            masses.append(0.0)
            continue
        mass = coef * quadrature.integrate(
            lambda t, m=m_exp, k=k_exp: np.cos(t) ** m * np.sin(t) ** k,
            affine.interval.lo,
            affine.interval.hi,
            atol=1e-13,
        )
        masses.append(mass)
    return BinomialDecomposition(
        components=tuple(comps), masses=tuple(masses), interval=affine.interval
    )
