"""Probability densities on angular intervals.

Three families:

* :class:`TrigDensity` -- ``C cos^m(t) sin^k(t)`` with real exponents
  ``m, k >= 0``.
* :class:`SinAffineDensity` -- ``C (C1 sin t + C2 cos t)^p`` with
  ``C1 = sin(phase)``, ``C2 = cos(phase)``.  Since
  ``C1 sin t + C2 cos t = cos(t - phase)``, it is the pure-cosine needle
  offset by its phase.
* :class:`TabulatedDensity` -- piecewise-linear samples; the oracle
  representation used by brute-force checks.

The closed families share one fold: pure cosine is pure sine shifted by
pi/2, and pure sine spans two quarters mirrored about pi/2, so every mass is
a regularized incomplete beta tail on one quarter.  The CDF, the quantile
(through ``betaincinv``) and the raw mass all read one record per needle, in
one unit system: the mass of one quarter.  The piecewise-quadratic tabulated
CDF is inverted exactly on the segment holding the target mass.  Everything
is elementwise, so results are deterministic under any parallel schedule.
"""

import copy
import math
from collections import namedtuple
from dataclasses import dataclass

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


def _fold_points(shift, mirrored, t):
    """Shift angles into the fold's domain and fold them onto one quarter:
    ``far`` marks those past the mirror at pi/2, ``folded`` is their image
    in ``[0, pi/2]``."""
    t = np.minimum(np.maximum(t + shift, 0.0), HALF_PI + HALF_PI * mirrored)
    far = mirrored & (t > HALF_PI)
    return far, np.where(far, math.pi - t, t)


def _position(far, folded, low, up):
    """Mass of ``[0, t]`` in quarter masses, as ``whole + part``: ``part`` is
    the one tail whose argument carries the digits (``sin^2`` below pi/4
    within the quarter, ``cos^2`` above it), signed, and ``whole`` the
    count of quarter masses it is measured from."""
    upper = folded > math.pi / 4.0
    flip = upper != far  # the tail is taken off the end of a quarter
    tail = np.where(upper, up, low)
    return np.add(far, flip, dtype=float), np.where(flip, -tail, tail)


# What depends only on the needle cos^m sin^k on [lo, hi]: the beta parameters,
# the fold (``shift`` pi/2 for pure cosine, ``mirrored`` for two quarters about
# pi/2, ``flat`` for the constant), the masses ``left`` of lo and ``right`` of
# hi, lo's ``_position`` ``whole + part``, the ``total`` mass of [lo, hi] and the
# ``quarter`` mass of [0, pi/4] -- in quarter masses, radians for the constant
# -- and ``mass``, the total in absolute units.
_Needle = namedtuple("_Needle", "a b lo hi shift mirrored flat left right whole part total quarter mass")


def _fold(m, k, lo, hi):
    """The needle record of ``cos^m sin^k`` on ``[lo, hi]``, vectorized: the
    tails at both ends from one ``_tails`` call at the needles' broadcast
    shape, the interval's mass as a difference of the smaller tails."""
    m, k, lo, hi = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (m, k, lo, hi)))
    swap, sine = k == 0.0, m == 0.0
    shift, mirrored, flat = HALF_PI * swap, swap | sine, swap & sine
    a, b = 0.5 * (np.where(swap, m, k) + 1.0), 0.5 * (np.where(swap, 0.0, m) + 1.0)
    far, folded = _fold_points(shift, mirrored, np.array([lo, hi]))
    low, up = _tails(a, b, np.sin(folded) ** 2, np.cos(folded) ** 2)
    left = np.where(far, 1.0 + up, low)
    right = np.where(far, low, up + mirrored)
    total = np.where(left[1] <= right[0], left[1] - left[0], right[0] - right[1])
    # the constant needle folds to nothing: it is measured in radians instead
    start = np.where(flat, lo, left[0])
    total = np.where(flat, hi - lo, total)
    whole, part = _position(far[0], folded[0], low[0], up[0])
    mass = np.where(flat, 1.0, 0.5 * np.exp(betaln(a, b))) * total
    # sin^2 = cos^2 = 1/2 exactly at pi/4, where the quantile's two forms meet
    quarter = betainc(a, b, 0.5)
    return _Needle(a, b, lo, hi, shift, mirrored, flat, start, right[1], whole, part, total, quarter, mass)


def _needle_cdf(n, t):
    """Normalized mass of ``[lo, t]`` under needle ``n``, for ``t`` in
    ``[lo, hi]``.  Whole quarters and tails are differenced apart, so no
    tail loses digits to a whole quarter."""
    far, folded = _fold_points(n.shift, n.mirrored, t)
    whole, part = _position(far, folded, *_tails(n.a, n.b, np.sin(folded) ** 2, np.cos(folded) ** 2))
    mass = (whole - n.whole) + (part - n.part)
    return np.where(n.flat, t - n.lo, mass) / n.total


def _needle_quantile(n, q):
    """Inverse of :func:`_needle_cdf`, one ``betaincinv`` point per target:
    the arcsin form when the target's mass within its quarter is at most
    that of ``[0, pi/4]``, the arccos form of the complement otherwise.  The
    mass left of the answer comes from ``q`` and the mass right of it from
    ``1 - q``, so neither loses digits to cancellation in its own tail."""
    q = np.asarray(q, dtype=float)
    below = n.left + q * n.total
    above = n.right + (1.0 - q) * n.total
    # past the mirror the roles of the two tails swap; ``lower`` and ``upper``
    # are the masses left and right of the answer within its own quarter.
    # Clamps are np.maximum/np.minimum: the bits of np.clip without its call
    # overhead, which dominates single targets.
    past = n.mirrored & (below > 1.0)
    lower = np.minimum(np.maximum(np.where(past, above, below), 0.0), 1.0)
    upper = np.minimum(np.maximum(np.where(past, below, above) - n.mirrored, 0.0), 1.0)
    arcsin = lower <= n.quarter
    x = np.empty(np.shape(arcsin))
    betaincinv(n.a, n.b, lower, out=x, where=arcsin)  # sin^2 of the answer
    betaincinv(n.b, n.a, upper, out=x, where=~arcsin)  # cos^2 of the answer
    root = np.sqrt(x)
    t = np.where(arcsin, np.arcsin(root), np.arccos(root))
    t = np.where(past, math.pi - t, t) - n.shift
    t = np.where(n.flat, below, t)
    return np.minimum(np.maximum(t, n.lo), n.hi)


def trig_mass(m, k, lo, hi):
    """Exact ``int_lo^hi cos^m sin^k dt``: ``[lo, hi]`` inside [0, pi/2], or
    [-pi/2, pi/2] for pure cosine, [0, pi] for pure sine, R for the constant."""
    return float(_fold(m, k, lo, hi).mass)


def trig_quantile(m, k, lo, hi, q):
    """Inverse of the normalized CDF of ``cos^m sin^k`` on ``[lo, hi]``,
    vectorized over every argument; one needle record per call."""
    return _needle_quantile(_fold(m, k, lo, hi), q)


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
    """Shared CDF/quantile plumbing; subclasses provide ``_cdf`` and
    ``_quantile`` on their own interval."""

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
        t = np.minimum(np.maximum(t, self.interval.lo), self.interval.hi)
        out = np.minimum(np.maximum(self._cdf(t), 0.0), 1.0)
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


def _finalize(density, total):
    total = float(total)
    if not np.isfinite(total) or total <= _MASS_FLOOR:
        raise ZeroMass(f"density integrates to {total:.3e}")
    object.__setattr__(density, "_raw_total", total)


class _NeedleDensity(_DensityBase):
    """The closed families: CDF and quantile read one needle record, built
    once by ``__post_init__`` on the interval moved back by ``offset``."""

    def _build(self, m, k, offset):
        needle = _fold(m, k, self.interval.lo - offset, self.interval.hi - offset)
        object.__setattr__(self, "_needle", needle)
        object.__setattr__(self, "_offset", offset)
        _finalize(self, needle.mass)

    def _cdf(self, t):
        return _needle_cdf(self._needle, t - self._offset)

    def _quantile(self, q):
        return self._offset + _needle_quantile(self._needle, q)


@dataclass(frozen=True)
class TrigDensity(_NeedleDensity):
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
        self._build(self.m, self.k, 0.0)

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
class SinAffineDensity(_NeedleDensity):
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
        self._build(self.power, 0.0, self.phase)

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
        _finalize(self, cum[-1])

    @classmethod
    def from_callable(cls, f, interval, n=2049):
        g = interval.grid(n)
        return cls(grid=tuple(g), values=tuple(np.asarray(f(g), dtype=float)))

    @classmethod
    def from_density(cls, density, n=2049):
        return cls.from_callable(density.pdf, density.interval, n=n)

    def _cdf(self, t):
        idx = np.clip(np.searchsorted(self._g, t, side="right") - 1, 0, self._g.size - 2)
        t0 = self._g[idx]
        h = self._g[idx + 1] - t0
        f0 = self._v[idx]
        f1 = self._v[idx + 1]
        s = np.clip(t - t0, 0.0, h)
        return (self._cum[idx] + f0 * s + 0.5 * (f1 - f0) * s * s / h) / self._raw_total

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

    The raw mass is exact for trig/affine families (incomplete beta closed
    form); tabulated masses use the trapezoid rule.  A mass below the
    numeric floor has already raised :class:`ZeroMass` at construction.  A
    closed family's copy keeps the needle record it was built with.
    """
    total = density.raw_mass
    if density.family == "tabulated":
        scaled = tuple(v / total for v in density.values)
        return TabulatedDensity(grid=density.grid, values=scaled, norm=1.0)
    out = copy.copy(density)
    object.__setattr__(out, "norm", 1.0 / total)
    return out


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


def density_from_dict(rec):
    """Rebuild a normalized density from its JSON record."""
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
    return normalize(d)
