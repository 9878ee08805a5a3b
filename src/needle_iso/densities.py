"""Probability densities on angular intervals.

Three families:

* :class:`TrigDensity` -- ``C cos^m(t) sin^k(t)`` with real exponents
  ``m, k >= 0``.  Masses reduce to the regularized incomplete beta function
  through the substitution ``u = sin^2 t``, so CDFs are exact and fast.
* :class:`SinAffineDensity` -- ``C (C1 sin t + C2 cos t)^p`` with
  ``C1 = sin(phase)``, ``C2 = cos(phase)``.  Since
  ``C1 sin t + C2 cos t = cos(t - phase)``, everything delegates to the
  pure-cosine antiderivative on a shifted interval.
* :class:`TabulatedDensity` -- piecewise-linear samples; the oracle
  representation used by brute-force checks.

Quantiles are closed forms too: :func:`trig_quantile` inverts the trig and
affine CDFs through ``betaincinv``, and the piecewise-quadratic tabulated
CDF is inverted exactly on the segment holding the target mass.  Both are
elementwise, so results are deterministic and independent of any parallel
schedule.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import betainc, betaincinv, betaln

from . import quadrature
from .errors import OutOfDomain, ZeroMass

HALF_PI = math.pi / 2.0

_DOMAIN_TOL = 1e-9
_MASS_FLOOR = 1e-14


@dataclass(frozen=True, slots=True)
class Interval:
    """A closed interval of angles, at most pi long."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo < self.hi):
            raise OutOfDomain(f"interval requires lo < hi, got [{self.lo}, {self.hi}]")
        if self.hi - self.lo > math.pi + 1e-12:
            raise OutOfDomain(
                f"interval length {self.hi - self.lo:.6g} exceeds pi"
            )

    @property
    def length(self):
        return self.hi - self.lo

    @property
    def midpoint(self):
        return 0.5 * (self.lo + self.hi)

    def contains(self, t, tol=_DOMAIN_TOL):
        t = np.asarray(t, dtype=float)
        return bool(np.all(t >= self.lo - tol) and np.all(t <= self.hi + tol))

    def grid(self, n):
        return np.linspace(self.lo, self.hi, n)


def _tails(a, b, sin2, cos2):
    """Regularized masses of ``[0, t]`` and ``[t, pi/2]`` under ``cos^m sin^k``,
    ``(a, b) = ((k+1)/2, (m+1)/2)``, from ``sin^2 t`` and ``cos^2 t``, each
    from its own ``betainc`` call so both keep their digits when small."""
    return betainc(a, b, sin2), betainc(b, a, cos2)


def _quarter_integral(m, k, t):
    """``int_0^t cos^m sin^k`` for ``t`` in ``[0, pi/2]`` (vectorized)."""
    a, b = 0.5 * (k + 1.0), 0.5 * (m + 1.0)
    t = np.clip(np.asarray(t, dtype=float), 0.0, HALF_PI)
    low, up = _tails(a, b, np.sin(t) ** 2, np.cos(t) ** 2)
    # complement form in the upper half for conditioning near t = pi/2
    return 0.5 * np.exp(betaln(a, b)) * np.where(t <= math.pi / 4.0, low, 1.0 - up)


def trig_antiderivative(m, k, t):
    """Antiderivative ``G`` of ``cos^m sin^k`` on the family's natural domain.

    Domains: both exponents positive -> [0, pi/2]; pure cosine -> [-pi/2,
    pi/2] (odd extension); pure sine -> [0, pi] (reflection about pi/2);
    constant -> all of R.
    """
    t = np.asarray(t, dtype=float)
    if m == 0.0 and k == 0.0:
        return t.copy()
    if k == 0.0:
        return np.sign(t) * _quarter_integral(m, 0.0, np.abs(t))
    if m == 0.0:
        half = _quarter_integral(0.0, k, HALF_PI)
        upper = 2.0 * half - _quarter_integral(0.0, k, math.pi - t)
        return np.where(t <= HALF_PI, _quarter_integral(0.0, k, t), upper)
    return _quarter_integral(m, k, t)


def trig_mass(m, k, lo, hi):
    """Exact ``int_lo^hi cos^m sin^k dt`` on the family's valid domain."""
    return float(trig_antiderivative(m, k, hi) - trig_antiderivative(m, k, lo))


def trig_quantile(m, k, lo, hi, q):
    """Inverse of the normalized CDF of ``cos^m sin^k`` on ``[lo, hi]``.

    The closed-form inverse of :func:`trig_antiderivative` on the same
    domains, vectorized over every argument.  Pure cosine is pure sine
    shifted by pi/2, and pure sine spans two quarters mirrored about pi/2,
    so every case reduces to ``betaincinv`` on one quarter.  The mass left
    of the answer is formed from ``q`` and the mass right of it from
    ``1 - q``, so neither loses digits to cancellation in its own tail.

    One tail pair per needle, one inversion per target: what depends only
    on the needle ``(m, k, lo, hi)`` -- the shift, the mirror, the tails at
    both ends and the mass of ``[0, pi/4]`` -- is computed once at the
    needles' broadcast shape, without ``q``, in one ``_tails`` call.  Each
    target then takes exactly one ``betaincinv`` point: the arcsin form
    when its mass is at most that of ``[0, pi/4]``, the arccos form of the
    complement mass otherwise.
    """
    m, k, lo, hi = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (m, k, lo, hi)))
    # pure cosine is pure sine shifted by pi/2
    swap, sine = k == 0.0, m == 0.0
    shift = HALF_PI * swap
    a, b = 0.5 * (np.where(swap, m, k) + 1.0), 0.5 * (np.where(swap, 0.0, m) + 1.0)
    mirrored = swap | sine
    # masses left and right of each end, in units of one quarter's mass; a
    # third point, pi/4 (sin^2 = cos^2 = 1/2 exactly), gives the mass at which
    # the two inverse forms meet.  Clamps here are np.maximum/np.minimum: the
    # bits of np.clip without its call overhead, which dominates single targets.
    ends = np.minimum(np.maximum(np.stack([lo, hi]) + shift, 0.0), HALF_PI + HALF_PI * mirrored)
    far = mirrored & (ends > HALF_PI)
    folded = np.where(far, math.pi - ends, ends)
    half = np.full((1,) + lo.shape, 0.5)
    low, up = _tails(
        a, b, np.concatenate([np.sin(folded) ** 2, half]), np.concatenate([np.cos(folded) ** 2, half])
    )
    low, up, quarter = low[:2], up[:2], low[2]
    left = np.where(far, 1.0 + up, low)
    right = np.where(far, low, up + mirrored)
    # the interval's mass as a difference of the smaller tails
    total = np.where(left[1] <= right[0], left[1] - left[0], right[0] - right[1])
    q = np.asarray(q, dtype=float)
    below = left[0] + q * total
    above = right[1] + (1.0 - q) * total
    # past the mirror the roles of the two tails swap; ``lower`` and ``upper``
    # are the masses left and right of the answer within its own quarter
    past = mirrored & (below > 1.0)
    lower = np.minimum(np.maximum(np.where(past, above, below), 0.0), 1.0)
    upper = np.minimum(np.maximum(np.where(past, below, above) - mirrored, 0.0), 1.0)
    arcsin = lower <= quarter
    x = np.empty(np.shape(arcsin))
    betaincinv(a, b, lower, out=x, where=arcsin)  # sin^2 of the answer
    betaincinv(b, a, upper, out=x, where=~arcsin)  # cos^2 of the answer
    root = np.sqrt(x)
    t = np.where(arcsin, np.arcsin(root), np.arccos(root))
    t = np.where(past, math.pi - t, t) - shift
    t = np.where(swap & sine, lo + q * (hi - lo), t)
    return np.minimum(np.maximum(t, lo), hi)


def _validate_trig_domain(m, k, interval):
    tol = 1e-9
    if m < 0 or k < 0:
        raise OutOfDomain("exponents must be nonnegative")
    if k > 0 and not (interval.lo >= -tol and interval.hi <= math.pi + tol):
        raise OutOfDomain(
            f"sin^{k} requires the interval inside [0, pi], got "
            f"[{interval.lo:.6g}, {interval.hi:.6g}]"
        )
    if m > 0 and not (interval.lo >= -HALF_PI - tol and interval.hi <= HALF_PI + tol):
        raise OutOfDomain(
            f"cos^{m} requires the interval inside [-pi/2, pi/2], got "
            f"[{interval.lo:.6g}, {interval.hi:.6g}]"
        )


class _DensityBase:
    """Shared CDF/quantile plumbing; subclasses provide raw antiderivatives
    and closed-form quantiles."""

    def _raw_cdf(self, t):  # pragma: no cover - abstract
        raise NotImplementedError

    @property
    def raw_mass(self):
        return self._raw_total

    def pdf(self, t):
        raise NotImplementedError

    def cdf(self, t):
        """Normalized mass of ``[lo, t]``; raises OutOfDomain outside."""
        t = np.asarray(t, dtype=float)
        if not self.interval.contains(t):
            raise OutOfDomain(
                f"abscissa outside [{self.interval.lo:.6g}, {self.interval.hi:.6g}]"
            )
        t = np.clip(t, self.interval.lo, self.interval.hi)
        out = (self._raw_cdf(t) - self._raw_lo) / self._raw_total
        out = np.clip(out, 0.0, 1.0)
        return out if out.shape else float(out)

    def quantile(self, q):
        """Inverse CDF: the least ``t`` with ``cdf(t) >= q``; endpoints for q in {0, 1}."""
        q = np.asarray(q, dtype=float)
        if not np.all((q >= -1e-12) & (q <= 1.0 + 1e-12)):
            raise OutOfDomain("mass fractions must lie in [0, 1]")
        lo, hi = self.interval.lo, self.interval.hi
        t = np.minimum(np.maximum(self._quantile(np.minimum(np.maximum(q, 0.0), 1.0)), lo), hi)
        t = np.where(q <= 0.0, lo, np.where(q >= 1.0, hi, t))
        return t if t.shape else float(t)

    def mass(self, a, b):
        return float(self.cdf(b) - self.cdf(a))


def _finalize(density, raw_lo, raw_hi):
    total = float(raw_hi - raw_lo)
    if not np.isfinite(total) or total <= _MASS_FLOOR:
        raise ZeroMass(f"density integrates to {total:.3e}")
    object.__setattr__(density, "_raw_lo", float(raw_lo))
    object.__setattr__(density, "_raw_total", total)


@dataclass(frozen=True)
class TrigDensity(_DensityBase):
    """Density proportional to ``cos^m(t) sin^k(t)`` on an interval.

    ``norm`` is the normalization constant; ``norm=None`` marks an
    unnormalized density (``pdf`` then returns the bare monomial).  CDF and
    quantile are always those of the normalized density.
    """

    m: float
    k: float
    interval: Interval
    norm: float | None = None

    family = "trig"

    def __post_init__(self):
        _validate_trig_domain(self.m, self.k, self.interval)
        raw = trig_antiderivative(self.m, self.k, np.array([self.interval.lo, self.interval.hi]))
        _finalize(self, raw[0], raw[1])

    def _raw_cdf(self, t):
        return trig_antiderivative(self.m, self.k, t)

    def _quantile(self, q):
        return trig_quantile(self.m, self.k, self.interval.lo, self.interval.hi, q)

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        c = np.maximum(np.cos(t), 0.0)
        s = np.maximum(np.sin(t), 0.0)
        scale = 1.0 if self.norm is None else self.norm
        out = scale * np.power(c, self.m) * np.power(s, self.k)
        return out if out.shape else float(out)

    def to_dict(self):
        return {
            "family": "trig",
            "m": self.m,
            "k": self.k,
            "lo": self.interval.lo,
            "hi": self.interval.hi,
        }


@dataclass(frozen=True)
class SinAffineDensity(_DensityBase):
    """Density proportional to ``(sin(phase) sin t + cos(phase) cos t)^power``.

    The affine form equals ``cos(t - phase)``, so it must stay positive on
    the open interval: ``(lo - phase, hi - phase)`` inside ``(-pi/2, pi/2)``.
    """

    phase: float
    power: float
    interval: Interval
    norm: float | None = None

    family = "affine"

    def __post_init__(self):
        if self.power < 0:
            raise OutOfDomain("power must be nonnegative")
        tol = 1e-9
        if self.interval.lo - self.phase < -HALF_PI - tol or self.interval.hi - self.phase > HALF_PI + tol:
            raise OutOfDomain(
                "affine density not positive on the open interval: phase "
                f"{self.phase:.6g} leaves cos(t - phase) nonpositive inside "
                f"[{self.interval.lo:.6g}, {self.interval.hi:.6g}]"
            )
        raw = self._raw_cdf(np.array([self.interval.lo, self.interval.hi]))
        _finalize(self, raw[0], raw[1])

    def _raw_cdf(self, t):
        u = np.asarray(t, dtype=float) - self.phase
        u = np.clip(u, -HALF_PI, HALF_PI)
        return trig_antiderivative(self.power, 0.0, u)

    def _quantile(self, q):
        lo, hi = self.interval.lo - self.phase, self.interval.hi - self.phase
        return self.phase + trig_quantile(self.power, 0.0, lo, hi, q)

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        base = np.maximum(np.cos(t - self.phase), 0.0)
        scale = 1.0 if self.norm is None else self.norm
        out = scale * np.power(base, self.power)
        return out if out.shape else float(out)

    @property
    def c1(self):
        return math.sin(self.phase)

    @property
    def c2(self):
        return math.cos(self.phase)

    def to_dict(self):
        return {
            "family": "affine",
            "phase": self.phase,
            "power": self.power,
            "lo": self.interval.lo,
            "hi": self.interval.hi,
        }


@dataclass(frozen=True)
class TabulatedDensity(_DensityBase):
    """Piecewise-linear density samples on a strictly increasing grid."""

    grid: tuple
    values: tuple
    norm: float | None = None

    family = "tabulated"

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if g.ndim != 1 or g.size < 2 or v.shape != g.shape:
            raise OutOfDomain("grid and values must be 1-D arrays of equal length >= 2")
        if np.any(np.diff(g) <= 0):
            raise OutOfDomain("grid must be strictly increasing")
        if np.any(v < -1e-12):
            raise OutOfDomain("density samples must be nonnegative")
        object.__setattr__(self, "grid", tuple(float(x) for x in g))
        object.__setattr__(self, "values", tuple(max(float(x), 0.0) for x in v))
        object.__setattr__(self, "_g", np.asarray(self.grid))
        object.__setattr__(self, "_v", np.asarray(self.values))
        seg = 0.5 * (self._v[1:] + self._v[:-1]) * np.diff(self._g)
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        object.__setattr__(self, "_cum", cum)
        object.__setattr__(self, "interval", Interval(self.grid[0], self.grid[-1]))
        _finalize(self, 0.0, cum[-1])

    @classmethod
    def from_callable(cls, f, interval, n=2049):
        g = interval.grid(n)
        return cls(grid=tuple(g), values=tuple(np.asarray(f(g), dtype=float)))

    @classmethod
    def from_density(cls, density, n=2049):
        return cls.from_callable(density.pdf, density.interval, n=n)

    def _raw_cdf(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.clip(np.searchsorted(self._g, t, side="right") - 1, 0, self._g.size - 2)
        t0 = self._g[idx]
        h = self._g[idx + 1] - t0
        f0 = self._v[idx]
        f1 = self._v[idx + 1]
        s = np.clip(t - t0, 0.0, h)
        return self._cum[idx] + f0 * s + 0.5 * (f1 - f0) * s * s / h

    def _quantile(self, q, right=False):
        # the first segment whose right end reaches the target mass (so a zero
        # plateau starting there is never entered; where ``right`` holds, the
        # last one starting at or below it, so F(t) <= q and t ends the
        # plateau), then the stable root of f0 s + (f1 - f0) s^2 / (2 h) = r
        y = q * self._raw_total
        idx = np.where(right, np.searchsorted(self._cum, y, side="right"), np.searchsorted(self._cum, y))
        idx = np.clip(idx - 1, 0, self._g.size - 2)
        h = self._g[idx + 1] - self._g[idx]
        f0 = self._v[idx]
        r = np.maximum(y - self._cum[idx], 0.0)
        denom = f0 + np.sqrt(np.maximum(f0 * f0 + 2.0 * (self._v[idx + 1] - f0) * r / h, 0.0))
        s = np.divide(2.0 * r, denom, out=np.zeros_like(r), where=denom > 0.0)
        return self._g[idx] + np.minimum(s, h)

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        scale = 1.0 if self.norm is None else self.norm
        out = scale * np.interp(t, self._g, self._v)
        return out if out.shape else float(out)

    def to_dict(self):
        return {
            "family": "tabulated",
            "lo": self.interval.lo,
            "hi": self.interval.hi,
            "grid": list(self.grid),
            "values": list(self.values),
        }


def normalize(density):
    """Return a copy whose ``pdf`` integrates to one.

    Raises :class:`ZeroMass` when the raw integral is below the numeric
    floor.  The integral check is exact for trig/affine families (incomplete
    beta closed form); tabulated masses use the trapezoid rule.
    """
    total = density.raw_mass
    if total <= _MASS_FLOOR:
        raise ZeroMass(f"density integrates to {total:.3e}")
    if density.family == "tabulated":
        scaled = tuple(v / total for v in density.values)
        return TabulatedDensity(grid=density.grid, values=scaled, norm=1.0)
    return replace(density, norm=1.0 / total)


def verify_unit_mass(density, atol=1e-10):
    """Cross-check the normalized mass against an independent integral.

    Smooth families go through adaptive Gauss-Legendre; tabulated densities
    are defined by their trapezoid integral, which is used directly (the
    kinks would defeat the adaptive error estimate).
    """
    if density.family == "tabulated":
        g = np.asarray(density.grid)
        v = np.asarray(density.values) * (1.0 if density.norm is None else density.norm)
        total = float(np.trapezoid(v, g))
    else:
        total = quadrature.integrate(
            density.pdf, density.interval.lo, density.interval.hi, atol=min(atol, 1e-12)
        )
    return abs(total - 1.0) <= atol


def reflect(density):
    """Reflect a density about its interval midpoint (t -> lo + hi - t)."""
    lo, hi = density.interval.lo, density.interval.hi
    if density.family == "tabulated":
        g = lo + hi - np.asarray(density.grid)[::-1]
        v = np.asarray(density.values)[::-1]
        return TabulatedDensity(grid=tuple(g), values=tuple(v), norm=density.norm)
    n = 4097
    g = np.linspace(lo, hi, n)
    vals = density.pdf(lo + hi - g)
    d = TabulatedDensity(grid=tuple(g), values=tuple(np.asarray(vals)))
    return normalize(d)


def density_to_dict(density):
    return density.to_dict()


def density_from_dict(rec, normalized=True):
    """Rebuild a density from its JSON record."""
    fam = rec.get("family")
    interval = Interval(float(rec["lo"]), float(rec["hi"]))
    if fam == "trig":
        d = TrigDensity(m=float(rec["m"]), k=float(rec["k"]), interval=interval)
    elif fam == "affine":
        d = SinAffineDensity(
            phase=float(rec["phase"]), power=float(rec["power"]), interval=interval
        )
    elif fam == "tabulated":
        d = TabulatedDensity(
            grid=tuple(float(x) for x in rec["grid"]),
            values=tuple(float(x) for x in rec["values"]),
        )
    else:
        raise OutOfDomain(f"unknown density family: {fam!r}")
    return normalize(d) if normalized else d
