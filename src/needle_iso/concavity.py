"""Concavity predicates for needle densities and the cosine-envelope checks.

A nonnegative function ``f`` on an interval of length at most pi is
*sin^N-concave* when, for every pair ``x1, x2`` with ``|x2 - x1| < pi``,

    f((x1 + x2)/2)^(1/N) >= (f(x1)^(1/N) + f(x2)^(1/N)) / (2 cos(|x2 - x1|/2)).

For a positive C^2 needle that is ``g'' + g <= 0`` with ``g = f^(1/N)``,
the CD(N-1, N) needle condition.  Two routes decide it:

* ``sin_concavity_margin`` is exact for products of K shifted cosines,
  ``g = prod_i cos^(w_i)(t - phi_i)`` with ``w_i = p_i/N``, as both closed
  families are.  With ``c_i = cos(t - phi_i)``, ``s_i = sin(t - phi_i)``,
  ``P_i = prod_(j != i) c_j`` and ``W = sum_i w_i``, it returns the maximum
  over the closed interval of the bounded multiple

      h = prod_j c_j^2 (g'' + g)/g
        = (sum_i w_i s_i P_i)^2 - sum_i w_i s_i^2 P_i^2 + (1 - W) prod_j c_j^2,

  a trigonometric polynomial of degree 2K, largest at an end or at a root
  of its derivative.  ``_product_margin`` finds it for a batch of rows: in
  ``z = tan(t - mid)``, ``mid`` the interval's midpoint, ``(1 + z^2)^K h'``
  is a real polynomial of degree 2K, whose roots are the eigenvalues of
  one real companion matrix per row.  A needle passes when its margin is
  at most ``MARGIN_TOL``.
* ``is_sin_concave`` is a sound-but-sampled verifier of the midpoint
  inequality on every midpoint-aligned pair of a uniform grid: it rejects
  with certainty but accepts only up to the grid resolution.  It stays the
  independent oracle for callables, tabulated input and
  ``check_comparison_lemma``.
"""

import functools
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from . import quadrature
from .densities import HALF_PI, Interval, SinAffineDensity, TrigDensity, _require_mass, trig_mass
from .errors import InvalidOrder, NonIntegerPower, NotApplicable, OutOfDomain, PreconditionFailed, _check


def _as_callable(f, interval):
    if hasattr(f, "pdf") and hasattr(f, "interval"):
        if interval is not None:
            raise OutOfDomain(f"a density brings its own interval; got interval={interval!r} as well")
        return f.pdf, f.interval
    _check("callable", f, "f")
    if not isinstance(interval, Interval):
        raise OutOfDomain(f"a bare callable needs an explicit interval (an Interval), got {interval!r}")
    return f, interval


def is_sin_concave(f, order, interval=None, grid_size=1024, tol=1e-9):
    """Sampled check of the sin^N midpoint concavity inequality.

    ``f`` may be a density object or a callable (then ``interval`` is
    required).  ``tol`` is relative, so scaling ``f`` keeps the verdict: a
    pair is checked only where both end values exceed ``tol`` times the
    largest sample (zero values pass vacuously), fails when its midpoint
    falls short by over ``tol`` times the largest ``f^(1/order)``, and a
    value below ``-tol`` times the largest ``|f|`` rejects outright.  Pairs
    at distance >= pi are skipped (the cosine factor would vanish).

    The pairs ``(x[j], x[j + 2d])`` with midpoint ``x[j + d]`` are checked
    one gap ``d`` at a time, as array slices of the samples; the first gap
    holding a violated pair rejects.

    Raises ``InvalidOrder`` for an order that is not finite and positive,
    and ``OutOfDomain`` for an order or ``tol`` that is not an int or a
    float, a ``grid_size`` that is not an integer >= 3, a ``tol`` that is
    not finite and nonnegative, an ``f`` that is neither a density nor a
    callable, a callable without an ``Interval``, a density with an
    ``interval`` as well, or samples that are not finite (they have no
    scale) or not one per grid point.
    """
    order = _check("order", order, "concavity order")
    grid_size = _check("count", grid_size, "grid_size", bound=3)
    tol = _check("exponent", tol, "tol")
    func, iv = _as_callable(f, interval)
    x = iv.grid(grid_size)
    v = _check("samples", func(x), "density samples", bound=x.shape)
    if np.any(v < -tol * np.max(np.abs(v))):
        return False
    v = np.maximum(v, 0.0)
    ok = v > tol * np.max(v)
    if not ok.any():  # no pair to check
        return True
    # f^(1/order) of the samples scaled to a peak of 1, which never overflows
    u = np.power(v / np.max(v), 1.0 / order)
    step = x[1] - x[0]
    for d in range(1, (grid_size - 1) // 2 + 1):
        gap = 2 * d * step
        if gap >= math.pi - 1e-9:
            break
        rhs = (u[: -2 * d] + u[2 * d :]) / (2.0 * math.cos(0.5 * gap))
        if np.any(ok[: -2 * d] & ok[2 * d :] & (u[d:-d] < rhs - tol)):
            return False
    return True


# A closed-family needle is sin^N-concave when its margin is at most this:
# the margin's own rounding is a few ulps of numbers of order one.
MARGIN_TOL = 1e-12

SinConcavityMargin = namedtuple("SinConcavityMargin", "margin argmax")


def sin_concavity_margin(density, order):
    """Exact sin^order-concavity margin of a ``TrigDensity`` (the factors
    ``cos^m(t) cos^k(t - pi/2)``) or a ``SinAffineDensity`` (``cos^p(t -
    phase)``): one row of :func:`_product_margin`, the largest ``h`` on the
    closed interval and an angle where it is attained.  The needle is
    sin^order-concave exactly when the margin is ``<= 0``; callers pass it
    when ``margin <= MARGIN_TOL``.

    Raises ``NotApplicable`` for any other density or a callable,
    ``OutOfDomain`` for an order that is not an int or a float, and
    ``InvalidOrder`` for one that is not finite and positive, or so small
    that the weights ``power / order`` sum to 1e150 or more (``h`` would
    overflow).
    """
    if not isinstance(density, (TrigDensity, SinAffineDensity)):
        raise NotApplicable(
            f"no closed-form concavity margin for {type(density).__name__}; use is_sin_concave"
        )
    order = _check("order", order, "concavity order")
    if isinstance(density, SinAffineDensity):
        powers, phases = [density.power], [density.phase]
    else:
        powers, phases = [density.m, density.k], [0.0, HALF_PI]
    if not math.fsum(powers) / order < 1e150:
        raise InvalidOrder(f"concavity order {order!r} is too small for the powers {powers}: h overflows")
    iv = density.interval
    margin, argmax = _product_margin(np.array([powers]) / order, [phases], [iv.lo], [iv.hi])
    return SinConcavityMargin(float(margin[0]), float(argmax[0]))


def _product_h(weights, phases, t):
    """``h`` of each row of factors at its angles ``t``, one row per row of
    ``weights``; a factor of weight 0 is no factor at all."""
    theta = t[..., None] - phases[:, None, :]
    absent = weights[:, None, :] == 0.0
    c = np.where(absent, 1.0, np.cos(theta))
    s = np.where(absent, 0.0, np.sin(theta))
    # sp[..., i] = s_i P_i with P_i = prod_(j != i) c_j, no division by c_i
    sp = s * np.where(np.eye(c.shape[-1], dtype=bool), 1.0, c[..., None, :]).prod(axis=-1)
    wsp = weights[:, None, :] * sp
    rest = (1.0 - weights.sum(axis=-1))[:, None]
    return wsp.sum(axis=-1) ** 2 - (wsp * sp).sum(axis=-1) + rest * (c * c).prod(axis=-1)


@functools.cache
def _derivative_matrix(k):
    """The read-only real (2K + 1) x (2K + 1) matrix that maps ``h`` at
    ``mid + j pi/(2K + 1)``, j = 0..2K, to the ascending coefficients of
    ``(1 + z^2)^K h'`` in ``z = tan(t - mid)``, up to one constant: with
    ``h = sum_n b_n e^(2in(t - mid))``, the DFT gives ``b_n`` and ``(1 +
    z^2)^K e^(2in(t - mid)) = (1 + iz)^(K + n) (1 - iz)^(K - n)``, so it is
    ``Im(DFT . diag(n) . B)``, row n of B those coefficients.  It is scaled
    so each coefficient rounds by about an ulp of the largest sample at most."""
    n = np.arange(-k, k + 1)
    dft = np.exp(-2j * np.pi * np.outer(n + k, n) / (2 * k + 1))
    rows = [P.polymul(P.polypow([1, 1j], k + m), P.polypow([1, -1j], k - m)) for m in n]
    mat = ((dft * n) @ np.array(rows)).imag
    mat /= np.abs(mat).sum(axis=0).max()
    mat.flags.writeable = False
    return mat


def _product_margin(weights, phases, lo, hi):
    """The margins of rows of shifted-cosine factors, each on its ``[lo,
    hi]``: the largest ``h`` (module docstring) and an angle attaining it.

    ``weights`` and ``phases`` broadcast to ``(rows, K)``; ``lo`` and ``hi``
    hold one end per row.  ``h`` has period pi and degree ``2K`` in ``t``:
    its ``2K + 1`` samples from ``mid = (lo + hi)/2`` give, through one
    fixed real matrix (:func:`_derivative_matrix`), the coefficients of the
    real polynomial ``(1 + z^2)^K h'`` in ``z = tan(t - mid)``, and its
    roots, eigenvalues of one real companion matrix per row, are the
    critical points ``mid + arctan z``.  The top coefficient is ``h'`` at
    ``mid + pi/2``, outside the interval or at an end, and is never divided
    by when it vanishes: coefficients below rounding are rolled from the top
    to the bottom, adding roots at ``t = mid``.  Each root's ``mid +
    arctan(Re z)``, clipped into ``[lo, hi]``, is a candidate beside the
    ends: a complex root only adds a point of the interval, a root at
    infinity is an end or outside, and a constant ``h`` is decided at its
    ends.  Every step works row by row, so a row's margin and angle have
    the same bits in any batch."""
    weights, phases = np.asarray(weights, dtype=float), np.asarray(phases, dtype=float)
    rows, k = np.arange(weights.shape[0])[:, None], weights.shape[1]
    lo, hi = (np.asarray(x, dtype=float)[:, None] for x in (lo, hi))
    mid = 0.5 * (lo + hi)
    n = np.arange(2 * k + 1)
    samples = _product_h(weights, phases, mid + n * (np.pi / (2 * k + 1)))
    # einsum, not matmul: BLAS rounds a row differently by batch size
    coef = np.einsum("rj,jn->rn", samples, _derivative_matrix(k))
    # h's terms are at most (1 + W)^2, so rounding leaves coefficients below this
    live = np.abs(coef) > 64 * np.finfo(float).eps * (1.0 + weights.sum(axis=-1, keepdims=True)) ** 2
    poly = coef[rows, (n - np.argmax(live[:, ::-1], axis=-1)[:, None]) % (2 * k + 1)]
    poly[~live.any(axis=-1), -1] = 1.0
    companion = np.broadcast_to(np.eye(2 * k, k=-1), (rows.size, 2 * k, 2 * k)).copy()
    companion[:, 0, :] = -poly[:, -2::-1] / poly[:, -1:]
    inner = np.clip(mid + np.arctan(np.linalg.eigvals(companion).real), lo, hi)
    t = np.concatenate((lo, hi, inner), axis=-1)
    h = _product_h(weights, phases, t)
    best = np.argmax(h, axis=-1)[:, None]
    return h[rows, best][:, 0], t[rows, best][:, 0]


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
    ``OutOfDomain`` for an order or ``epsilon`` that is not an int or a
    float, a ``k`` that is not a finite int or float >= 0, a ``grid_size``
    that is not an integer >= 3, an ``f`` that is neither a density nor a
    callable, a bare callable without an ``Interval`` or a density with
    one, or samples of ``f`` that are not finite ints or floats, one per
    grid point, ``PreconditionFailed`` when ``f`` is not
    sin^order-concave with its maximum at 0, or when the domain does not
    start at 0, ``epsilon`` is outside (0, pi/2) or not below ``tau``, or
    ``f(epsilon)`` is not positive, and ``ZeroMass`` when the mass of ``f
    sin^k`` on ``[0, tau]`` (relative to its peak) or of ``cos^order sin^k``
    on ``[0, pi/2]`` is not above the mass floor.
    """
    order = _check("order", order, "concavity order")
    grid_size = _check("count", grid_size, "grid_size", bound=3)
    k = _check("exponent", k, "sine weight exponent k")
    epsilon = _check("real", epsilon, "epsilon")
    func, iv = _as_callable(f, interval)
    if abs(iv.lo) > 1e-12:
        raise PreconditionFailed("the comparison domain must start at 0")
    tau = iv.hi
    if not (0.0 < epsilon < HALF_PI):
        raise PreconditionFailed("epsilon must lie in (0, pi/2)")
    if tau <= epsilon:
        raise PreconditionFailed("tau must exceed epsilon")

    x = iv.grid(grid_size)
    fx = _check("samples", func(x), "density samples", bound=x.shape)
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
    else:
        if isinstance(f, TrigDensity):
            scale = 1.0  # the bare monomial is at most 1
            head, total = (trig_mass(f.m, f.k + k, iv.lo, b) for b in (epsilon, tau))
        else:

            def weighted(t):
                return func(t) * np.sin(t) ** k if k > 0 else func(t)

            # f sin^k is at most the peak of f, which sets the integrals' scale
            scale = peak
            head, total = (quadrature.integrate(weighted, 0.0, b, atol=1e-13 * scale) for b in (epsilon, tau))
        _require_mass(total / scale)  # an underflowed f sin^k has no head-mass ratio
        lhs = head / total
    _require_mass(model := trig_mass(order, k, 0.0, HALF_PI))
    rhs = trig_mass(order, k, 0.0, epsilon) / model
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

    def reconstruct(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        cos, sin = np.cos(t), np.sin(t)
        for coef, (m, k) in self.components:
            out += coef * cos ** m * sin ** k
        return out

    def max_reconstruction_error(self, pdf, n=1025):
        x = self.interval.grid(n)
        return float(np.max(np.abs(self.reconstruct(x) - np.asarray(pdf(x)))))


def _binomial_rows(phase, power, lo, hi, scale):
    """Expand rows ``scale cos^p(t - phase)`` on ``[lo, hi]``, integer ``p >=
    0``, one :class:`BinomialDecomposition` per row.

    Since ``cos(t - phase) = C1 sin t + C2 cos t`` with ``C1 = sin(phase)``
    and ``C2 = cos(phase)``, the i-th coefficient is ``scale * binom(p, i)
    C1^i C2^(p-i)``, attached to the monomial ``cos^(p-i) sin^i``.  Component
    masses are computed by adaptive quadrature so sign-carrying coefficients
    (phases outside [0, pi/2]) are handled too.  A power more than 1e-12 from
    an integer raises ``NonIntegerPower``.
    """
    out = []
    for phase, p_real, lo, hi, scale in zip(phase, power, lo, hi, scale):
        p = round(float(p_real))
        if abs(p_real - p) > 1e-12:
            raise NonIntegerPower(f"power {p_real} is not an integer")
        phase, lo, hi, scale = float(phase), float(lo), float(hi), float(scale)
        c1, c2 = math.sin(phase), math.cos(phase)
        coefs = [scale * math.comb(p, i) * (c1**i) * (c2 ** (p - i)) for i in range(p + 1)]
        masses = [
            0.0 if coef == 0.0 else coef * quadrature.integrate(
                lambda t, m=p - i, k=i: np.cos(t) ** m * np.sin(t) ** k, lo, hi, atol=1e-13
            )
            for i, coef in enumerate(coefs)
        ]
        comps = tuple((coef, (float(p - i), float(i))) for i, coef in enumerate(coefs))
        out.append(BinomialDecomposition(components=comps, masses=tuple(masses), interval=Interval(lo, hi)))
    return out


def binomial_decompose(affine):
    """Expand ``C (C1 sin t + C2 cos t)^p`` for integer ``p >= 0``: the one
    row of a ``SinAffineDensity`` through :func:`_binomial_rows`, ``C`` its
    norm (1 when unnormalized).  Anything but a ``SinAffineDensity`` raises
    ``OutOfDomain``."""
    if not isinstance(affine, SinAffineDensity):
        raise OutOfDomain(f"binomial_decompose expands a SinAffineDensity, got {type(affine).__name__}")
    iv = affine.interval
    scale = 1.0 if affine.norm is None else affine.norm
    return _binomial_rows([affine.phase], [affine.power], [iv.lo], [iv.hi], [scale])[0]
