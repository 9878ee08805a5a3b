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
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, betaincinv, betaln

from .errors import OutOfDomain, ZeroMass, _broadcast, _check

HALF_PI = math.pi / 2.0

_DOMAIN_TOL = 1e-9
_MASS_FLOOR = 1e-14


@dataclass(frozen=True, slots=True)
class Interval:
    """A closed interval of angles, at most pi long; ``lo`` and ``hi`` are
    angles, stored as given."""

    lo: float
    hi: float

    def __post_init__(self):
        _check("angle", self.lo, "lo")
        _check("angle", self.hi, "hi")
        if not (self.lo < self.hi):
            raise OutOfDomain(f"interval requires lo < hi, got [{self.lo}, {self.hi}]")
        if self.hi - self.lo > math.pi + 1e-12:
            raise OutOfDomain(
                f"interval length {self.hi - self.lo:.6g} exceeds pi"
            )

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


def _position(far, folded, tail):
    """Mass of ``[0, t]`` in quarter masses, as ``whole + part``: ``part`` is
    ``tail``, the one tail whose argument carries the digits (``sin^2``
    below pi/4 within the quarter, ``cos^2`` above it), signed, and
    ``whole`` the count of quarter masses it is measured from."""
    flip = (folded > math.pi / 4.0) != far  # the tail is taken off the end of a quarter
    return np.add(far, flip, dtype=float), np.where(flip, -tail, tail)


# What depends only on the needle cos^m sin^k on [lo, hi]: the beta parameters,
# the fold (``shift`` pi/2 for pure cosine, ``mirrored`` for two quarters about
# pi/2, ``flat`` for the constant), the masses ``left`` of lo and ``right`` of
# hi, lo's ``_position`` ``whole + part``, the ``total`` mass of [lo, hi] and the
# ``quarter`` mass of [0, pi/4] -- in quarter masses, radians for the constant
# -- and ``mass``, the total in absolute units.
_Needle = namedtuple("_Needle", "a b lo hi shift mirrored flat left right whole part total quarter mass")


def _frame(m, k):
    """Where ``cos^m sin^k`` folds: pure cosine (``swap``) is pure sine
    ``shift``-ed by pi/2, pure sine spans two quarters ``mirrored`` about
    pi/2, and the constant is ``flat``."""
    swap, sine = k == 0.0, m == 0.0
    return swap, HALF_PI * swap, swap | sine, swap & sine


def _fold(m, k, lo, hi):
    """The read-only needle record of ``cos^m sin^k`` on ``[lo, hi]``: both
    ends' tails from one ``_tails`` call at the needles' broadcast shape,
    the interval's mass as a difference of the smaller tails.  The record
    holds copies, so freezing it leaves the caller's arrays writeable."""
    m, k, lo, hi = np.broadcast_arrays(*(np.array(x, dtype=float) for x in (m, k, lo, hi)))
    swap, shift, mirrored, flat = _frame(m, k)
    a, b = 0.5 * (np.where(swap, m, k) + 1.0), 0.5 * (np.where(swap, 0.0, m) + 1.0)
    far, folded = _fold_points(shift, mirrored, np.array([lo, hi]))
    low, up = _tails(a, b, np.sin(folded) ** 2, np.cos(folded) ** 2)
    left = np.where(far, 1.0 + up, low)
    right = np.where(far, low, up + mirrored)
    total = np.where(left[1] <= right[0], left[1] - left[0], right[0] - right[1])
    # the constant needle folds to nothing: it is measured in radians instead
    start = np.where(flat, lo, left[0])
    total = np.where(flat, hi - lo, total)
    whole, part = _position(far[0], folded[0], np.where(folded[0] > math.pi / 4.0, up[0], low[0]))
    mass = np.where(flat, 1.0, 0.5 * np.exp(betaln(a, b))) * total
    # sin^2 = cos^2 = 1/2 exactly at pi/4, where the quantile's two forms meet
    quarter = betainc(a, b, 0.5)
    needle = _Needle(a, b, lo, hi, shift, mirrored, flat, start, right[1], whole, part, total, quarter, mass)
    for f in needle:
        if isinstance(f, np.ndarray):  # a numpy scalar is read-only already
            f.flags.writeable = False
    return needle


def _take(needle, index):
    """The sub-record of ``needle`` at ``index``, one index into every field."""
    # a list, not a generator: a tuple built from a generator is resized, so
    # the freed one never returns to the free list it would be reused from
    return needle._make([f[index] for f in needle])


def _checked_fold(m, k, lo, hi, offset=0.0):
    """:func:`_fold` of needles given from outside the library, ``cos^m
    sin^k`` on ``[lo, hi]`` moved back by ``offset``, after the one
    closed-family domain check: exponents finite and >= 0, ``lo < hi`` at
    most pi apart (the :class:`Interval` rule), and the interval inside the
    fold's own domain to 1e-9 -- ``[0, pi/2]``, ``[-pi/2, pi/2]`` for pure
    cosine, ``[0, pi]`` for pure sine, anywhere for the constant.  So a
    needle is valid exactly where its fold is defined.  Vectorized; any
    invalid needle, or a parameter that is not ints or floats, raises
    OutOfDomain."""
    m, k, lo, hi, offset = _broadcast(
        "needle parameters", *(_check("reals", x, "needle parameters") for x in (m, k, lo, hi, offset))
    )
    _, shift, mirrored, flat = _frame(m, k)
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails lo < hi
        lo, hi = lo - offset, hi - offset
        ok = (
            (np.minimum(m, k) >= 0.0) & (np.maximum(m, k) < math.inf)
            & (lo < hi) & (hi - lo <= math.pi + 1e-12)
            & (flat | (lo + shift >= -_DOMAIN_TOL) & (hi + shift <= (HALF_PI + _DOMAIN_TOL) + HALF_PI * mirrored))
        )
    if not ok.all():
        m, k, lo, hi = (np.broadcast_to(x, ok.shape)[~ok][0] for x in (m, k, lo, hi))
        raise OutOfDomain(
            f"cos^{m:.6g} sin^{k:.6g} on [{lo:.6g}, {hi:.6g}] is not a needle: exponents "
            "must be finite and >= 0, and lo < hi at most pi apart inside [0, pi/2] "
            "([-pi/2, pi/2] for pure cosine, [0, pi] for pure sine)"
        )
    return _fold(m, k, lo, hi)


def _needle_cdf(n, t):
    """Normalized mass of ``[lo, t]`` under needle ``n``, for ``t`` in
    ``[lo, hi]``: in [0, 1], exactly 0 up to ``lo`` and exactly 1 from ``hi``.
    Whole quarters and tails are differenced apart, so no tail loses digits
    to a whole quarter.  Only the tail :func:`_position` reads is computed:
    one ``betainc`` call, on ``(a, b, sin^2)`` below pi/4 and ``(b, a,
    cos^2)`` above, the bits of the matching :func:`_tails` entry."""
    far, folded = _fold_points(n.shift, n.mirrored, t)
    upper = folded > math.pi / 4.0
    x = np.where(upper, np.cos(folded), np.sin(folded)) ** 2
    whole, part = _position(far, folded, betainc(np.where(upper, n.b, n.a), np.where(upper, n.a, n.b), x))
    mass = (whole - n.whole) + (part - n.part)
    # one clamp to [0, 1] whose bounds pin 1 from hi on and 0 up to lo
    return np.minimum(np.maximum(np.where(n.flat, t - n.lo, mass) / n.total, t >= n.hi), t > n.lo)


def _needle_quantile(n, q):
    """Inverse of :func:`_needle_cdf`, one ``betaincinv`` point per target:
    the arcsin form when the target's mass within its quarter is at most
    that of ``[0, pi/4]``, the arccos form of the complement otherwise.  The
    mass left of the answer comes from ``q`` and the mass right of it from
    ``1 - q``, so neither loses digits to cancellation in its own tail.
    Exactly ``lo`` for ``q <= 0`` and exactly ``hi`` for ``q >= 1``.
    Monotone only to ulps: ``betaincinv`` rounds on its own, so one ulp more
    of ``q`` can give a lower ``t``: up to 4 ulps on most needles, about 20
    on some (near 1e-15 rad); nothing corrects that.

    The one NaN rule of the library: ``betaincinv`` has no answer (NaN) at
    some targets below about 1e-100, and then the first such target raises
    OutOfDomain; no caller tests for NaN."""
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
    t = np.minimum(np.maximum(np.where(n.flat, below, t), n.lo), n.hi)
    t = np.where(q <= 0.0, n.lo, np.where(q >= 1.0, n.hi, t))
    lost = np.isnan(t)
    if np.count_nonzero(lost):  # about half the time of lost.any() on a few targets
        raise OutOfDomain(
            f"no finite quantile at mass fraction {float(np.broadcast_to(q, t.shape)[lost][0])!r}: "
            "the target is too small for the quantile kernel"
        )
    return t


def trig_mass(m, k, lo, hi):
    """Exact ``int_lo^hi cos^m sin^k dt`` on a valid needle: ``[lo, hi]`` at
    most pi long inside [0, pi/2], or [-pi/2, pi/2] for pure cosine, [0, pi]
    for pure sine, anywhere for the constant, with ``m`` and ``k``
    exponents and ``lo`` and ``hi`` angles; any other input raises
    OutOfDomain."""
    m, k = _check("exponent", m, "m"), _check("exponent", k, "k")
    return float(_checked_fold(m, k, _check("angle", lo, "lo"), _check("angle", hi, "hi")).mass)


def _trig_pdf(m, k, t, scale):
    """``scale cos^m(t) sin^k(t)`` with both factors clamped at 0: the one
    pdf formula of the trig family, behind both closed densities' ``pdf``
    (a ``SinAffineDensity`` is ``k = 0`` at ``t`` shifted by the phase) and
    the profile crossover slopes."""
    c = np.maximum(np.cos(t), 0.0)
    s = np.maximum(np.sin(t), 0.0)
    return scale * np.power(c, m) * np.power(s, k)


def _tabulate(grid, values):
    """The tabulated domain check, written once: ``grid`` and ``values`` as
    float64 copies (no caller's array is aliased) of ints or floats, by the
    ``reals`` kind of ``errors._KINDS``, 1-D of equal length >= 2,
    finite, the grid strictly increasing and the samples >= -1e-12 with
    rounding below 0 set to 0; any other input raises OutOfDomain.  Returns
    them with the cumulative trapezoid mass at each grid point."""
    g = np.array(_check("reals", grid, "grid"))
    v = np.array(_check("reals", values, "values"))
    if g.ndim != 1 or g.size < 2 or v.shape != g.shape:
        raise OutOfDomain("grid and values must be 1-D arrays of equal length >= 2")
    if not (np.all(np.isfinite(g)) and np.all(np.isfinite(v))):
        raise OutOfDomain("grid and values must be finite")
    if np.any(np.diff(g) <= 0):
        raise OutOfDomain("grid must be strictly increasing")
    if np.any(v < -1e-12):
        raise OutOfDomain("density samples must be nonnegative")
    v = np.where(v < 0.0, 0.0, v)  # not np.maximum, which turns -0.0 into 0.0
    # halved before they are added, so samples up to the float max keep a
    # finite mean; the cumulative mass never falls, so its last entry shows
    # any overflow (an infinite step times a zero mean shows as NaN)
    with np.errstate(over="ignore", invalid="ignore"):
        cum = np.concatenate([[0.0], np.cumsum((0.5 * v[1:] + 0.5 * v[:-1]) * np.diff(g))])
    if not cum[-1] < math.inf:
        raise OutOfDomain("the trapezoid mass of the samples overflows the float range")
    return g, v, cum


class _DensityBase:
    """Shared CDF/quantile/pdf plumbing; subclasses provide ``_cdf``,
    ``_quantile`` and ``_pdf`` on their own interval."""

    _offset = 0.0  # a closed family's needle record sits this far left of it

    @property
    def raw_mass(self):
        return self._raw_total

    def cdf(self, t):
        """Normalized mass of ``[lo, t]``, in [0, 1]; raises OutOfDomain for
        ``t`` more than 1e-9 outside the interval, NaN, or not ints or
        floats."""
        out = self._cdf(_check("abscissae", t, bound=self.interval))
        return out if out.shape else float(out)

    def pdf(self, t):
        """The density at ``t`` (the bare monomial or samples when ``norm``
        is None), by the abscissa rule of :meth:`cdf`."""
        out = self._pdf(_check("abscissae", t, bound=self.interval), 1.0 if self.norm is None else self.norm)
        return out if out.shape else float(out)

    def quantile(self, q):
        """Inverse CDF: the least ``t`` with ``cdf(t) >= q``; endpoints for q in {0, 1}."""
        q = _check("fractions", q, "mass fractions")
        t = np.minimum(np.maximum(self._quantile(q), self.interval.lo), self.interval.hi)
        t = np.where(q <= 0.0, self.interval.lo, np.where(q >= 1.0, self.interval.hi, t))
        return t if t.shape else float(t)


def _require_mass(total):
    """The mass floor, written once: every raw mass in ``total`` must be
    finite and above ``_MASS_FLOOR``, else the first one that is not raises
    ZeroMass."""
    total = np.asarray(total, dtype=float)
    ok = (total > _MASS_FLOOR) & (total < math.inf)
    if not ok.all():
        raise ZeroMass(f"density integrates to {total[~ok][0]:.3e}")


def _finalize(density, total):
    _require_mass(total)
    object.__setattr__(density, "_raw_total", float(total))


class _NeedleDensity(_DensityBase):
    """The closed families: ``__post_init__`` folds the exponents once, on
    the interval moved back by ``offset``, through the domain check of
    :func:`_checked_fold`; CDF, quantile and pdf read that fold, and
    ``to_dict`` and :func:`density_from_dict` the parameters in ``_fields``,
    each checked by its kind and stored as given."""

    def _build(self, m, k, offset):
        for name, kind in self._fields:
            _check(kind, getattr(self, name), name)
        _check("interval", self.interval)
        _check("norm", self.norm)
        needle = _checked_fold(m, k, self.interval.lo, self.interval.hi, offset)
        object.__setattr__(self, "_needle", needle)
        object.__setattr__(self, "_exponents", (m, k))
        object.__setattr__(self, "_offset", offset)
        _finalize(self, needle.mass)

    def _cdf(self, t):
        return _needle_cdf(self._needle, t - self._offset)

    def _quantile(self, q):
        return self._offset + _needle_quantile(self._needle, q)

    def _pdf(self, t, scale):
        return _trig_pdf(*self._exponents, t - self._offset, scale)

    def to_dict(self):
        params = {name: getattr(self, name) for name, _ in self._fields}
        return {"family": self.family, **params, "lo": self.interval.lo, "hi": self.interval.hi}


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
    _fields = (("m", "exponent"), ("k", "exponent"))

    def __post_init__(self):
        self._build(self.m, self.k, 0.0)


@dataclass(frozen=True)
class SinAffineDensity(_NeedleDensity):
    """Density proportional to ``(sin(phase) sin t + cos(phase) cos t)^power``.

    The affine form equals ``cos(t - phase)``, so the needle is
    ``cos^power`` on ``[lo - phase, hi - phase]`` and takes that needle's
    domain: a finite ``power >= 0``, and ``[lo - phase, hi - phase]`` inside
    ``[-pi/2, pi/2]`` (to 1e-9) unless ``power`` is 0.
    """

    phase: float
    power: float
    interval: Interval
    norm: float | None = None

    family = "affine"
    _fields = (("phase", "angle"), ("power", "exponent"))

    def __post_init__(self):
        self._build(self.power, 0.0, self.phase)


@dataclass(frozen=True, eq=False)
class TabulatedDensity(_DensityBase):
    """Piecewise-linear density samples on a strictly increasing grid.

    ``grid`` and ``values`` hold the samples once, as read-only float64
    copies of whatever array-like the caller passes.  A ``norm`` whose
    product with the largest sample is not finite raises OutOfDomain, so
    ``pdf`` never overflows.  Equality and hashing go by identity.
    """

    grid: np.ndarray
    values: np.ndarray
    norm: float | None = None

    family = "tabulated"

    def __post_init__(self):
        norm = _check("norm", self.norm)
        g, v, cum = _tabulate(self.grid, self.values)
        if norm is not None and not math.isfinite(norm * float(v.max())):
            raise OutOfDomain(f"norm times the largest sample must be finite, got norm={self.norm!r}")
        g.flags.writeable = v.flags.writeable = False
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "_cum", cum)
        object.__setattr__(self, "interval", Interval(float(g[0]), float(g[-1])))
        _finalize(self, cum[-1])

    def _cdf(self, t):
        # clamps are np.maximum/np.minimum: the bits of np.clip without its call
        # overhead (a -0.0 ``t - t0`` clamps to 0.0, not -0.0, and sums the same)
        idx = np.minimum(np.maximum(np.searchsorted(self.grid, t, side="right") - 1, 0), self.grid.size - 2)
        t0 = self.grid[idx]
        h = self.grid[idx + 1] - t0
        f0 = self.values[idx]
        f1 = self.values[idx + 1]
        s = np.minimum(np.maximum(t - t0, 0.0), h)
        out = (self._cum[idx] + f0 * s + 0.5 * (f1 - f0) * s * s / h) / self._raw_total
        return np.minimum(np.maximum(out, 0.0), 1.0)

    def _quantile(self, q, right=False):
        # the first segment whose right end reaches the target mass (so a zero
        # plateau starting there is never entered; where ``right`` holds, the
        # last one starting at or below it, so F(t) <= q and t ends the
        # plateau), then the stable root of f0 s + (f1 - f0) s^2 / (2 h) = r
        y = q * self._raw_total
        idx = np.where(right, np.searchsorted(self._cum, y, side="right"), np.searchsorted(self._cum, y))
        idx = np.minimum(np.maximum(idx - 1, 0), self.grid.size - 2)
        h = self.grid[idx + 1] - self.grid[idx]
        f0 = self.values[idx]
        r = np.maximum(y - self._cum[idx], 0.0)
        denom = f0 + np.sqrt(np.maximum(f0 * f0 + 2.0 * (self.values[idx + 1] - f0) * r / h, 0.0))
        s = np.divide(2.0 * r, denom, out=np.zeros_like(r), where=denom > 0.0)
        return self.grid[idx] + np.minimum(s, h)

    def _pdf(self, t, scale):
        return scale * np.interp(t, self.grid, self.values)

    def to_dict(self):
        return {
            "family": "tabulated",
            "lo": self.interval.lo,
            "hi": self.interval.hi,
            "grid": self.grid.tolist(),
            "values": self.values.tolist(),
        }


def normalize(density):
    """Return a copy whose ``pdf`` integrates to one.

    The raw mass is exact for trig/affine families (incomplete beta closed
    form); tabulated masses use the trapezoid rule.  A mass below the
    numeric floor has already raised :class:`ZeroMass` at construction.  A
    closed family's copy keeps the needle record it was built with.
    Anything but one of the library's densities raises OutOfDomain.
    """
    total = _check("density", density).raw_mass
    if density.family == "tabulated":
        return TabulatedDensity(grid=density.grid, values=density.values / total, norm=1.0)
    out = copy.copy(density)
    object.__setattr__(out, "norm", 1.0 / total)
    return out


def _field(rec, name, kind):
    """``rec[name]`` by ``kind``, a missing field read as None; the error
    of a field that breaks the kind's rule names it."""
    return _check(kind, rec.get(name), f"density field {name!r}")


def density_from_dict(rec):
    """Rebuild a normalized density from its JSON record.  A record that is
    not a mapping, a missing field, or one that breaks its kind (``lo``,
    ``hi`` and ``phase`` angles, ``m``, ``k`` and ``power`` exponents,
    ``grid`` and ``values`` ints or floats), raises ``OutOfDomain`` naming
    it."""
    if not isinstance(rec, Mapping):
        raise OutOfDomain(f"a density record must be a mapping, got {rec!r}")
    fam = rec.get("family")
    interval = Interval(_field(rec, "lo", "angle"), _field(rec, "hi", "angle"))
    if fam in ("trig", "affine"):
        cls = TrigDensity if fam == "trig" else SinAffineDensity
        d = cls(**{name: _field(rec, name, kind) for name, kind in cls._fields}, interval=interval)
    elif fam == "tabulated":
        grid, values = (_field(rec, name, "reals") for name in ("grid", "values"))
        d = TabulatedDensity(grid=grid, values=values)
        if interval != d.interval:
            raise OutOfDomain(
                f"lo/hi [{interval.lo:.6g}, {interval.hi:.6g}] must be the grid ends "
                f"[{d.interval.lo:.6g}, {d.interval.hi:.6g}]"
            )
    else:
        raise OutOfDomain(f"unknown density family: {fam!r}")
    return normalize(d)
