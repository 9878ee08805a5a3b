"""40-digit mpmath references for the benchmark's checked outputs.

Every function here works from the benchmark's own inputs and never calls
needle_iso, so a reference cannot share a defect with the code it judges.
Trigonometric masses use the exact incomplete-beta reduction, evaluated by
mpmath at 45 digits; :func:`self_check` confirms that reduction against
tanh-sinh quadrature.  Quantiles are found by safeguarded Newton iteration
on the exact CDF, tabulated quantiles by the exact root of the
piecewise-quadratic CDF.

References are cached by input in ``reference_cache.json`` next to this
file, so runs never pay for them inside or outside the timed loop.
Rebuild the cache with ``python bench/reference.py --rebuild`` from the
repository root; a run that meets an input the cache lacks computes it
after its timed loop.
"""

import bisect
import hashlib
import json
import math
import os
import sys

import mpmath
from mpmath import mp

DPS = 45
DIGITS = 40
# every reference value is formed at this precision; mpf arithmetic rounds to
# the context precision, so a lower global setting would round differences
mp.dps = DPS
CACHE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference_cache.json")


def _f(x):
    return x if isinstance(x, mpmath.mpf) else mp.mpf(float(x))


class _Smooth:
    """A density given by its raw antiderivative ``G`` and raw ``pdf``."""

    def quantiles(self, qs):
        """Inverse CDF at each mass fraction, by safeguarded Newton steps.

        Steps run at 20 digits until they settle, then at full precision,
        where Newton's quadratic convergence needs two or three more.
        """
        out = []
        for q in qs:
            t = None
            for dps in (20, DPS):
                with mp.workdps(dps):
                    t = self._newton(_f(q), t, mp.mpf(10) ** -(dps - 6))
            out.append(t)
        return out

    def _newton(self, q, start, tol):
        g_lo = self.G(self.lo)
        target = g_lo + q * (self.G(self.hi) - g_lo)
        a, b = self.lo, self.hi
        t = a + q * (b - a) if start is None else +start
        for _ in range(400):
            resid = self.G(t) - target
            if resid > 0:
                b = t
            else:
                a = t
            slope = self.pdf(t)
            nxt = t - resid / slope if slope > 0 else None
            if nxt is None or not (a < nxt < b):
                nxt = (a + b) / 2
            done = abs(nxt - t) <= tol or b - a <= tol
            t = nxt
            if done:
                return t
        raise RuntimeError("reference quantile did not converge")  # pragma: no cover

    def cdf(self, t):
        g_lo = self.G(self.lo)
        return (self.G(t) - g_lo) / (self.G(self.hi) - g_lo)


class QuarterTrig(_Smooth):
    """``cos^m sin^k`` on ``[lo, hi]`` inside ``[0, pi/2]``."""

    def __init__(self, m, k, lo, hi):
        self.m, self.k = _f(m), _f(k)
        self.lo, self.hi = _f(lo), _f(hi)
        self.a = (self.k + 1) / 2
        self.b = (self.m + 1) / 2

    def G(self, t):
        return mpmath.betainc(self.a, self.b, 0, mp.sin(t) ** 2) / 2

    def pdf(self, t):
        return mp.cos(t) ** self.m * mp.sin(t) ** self.k


class ShiftedCos(_Smooth):
    """``cos^p(t - shift)`` on ``[lo, hi]`` with ``|t - shift| <= pi/2``.

    Covers pure cosine needles (shift 0), sin-affine needles (shift =
    phase) and the sphere's radial profile ``sin^p`` (shift pi/2).
    """

    def __init__(self, p, shift, lo, hi):
        self.p = _f(p)
        self.shift = _f(shift)
        self.lo, self.hi = _f(lo), _f(hi)

    def G(self, t):
        u = t - self.shift
        half = mpmath.betainc(mp.mpf(1) / 2, (self.p + 1) / 2, 0, mp.sin(u) ** 2) / 2
        return half if u >= 0 else -half

    def pdf(self, t):
        c = mp.cos(t - self.shift)
        return c ** self.p if c > 0 else mp.zero


class Tabulated:
    """The piecewise-linear interpolant of samples, normalized exactly."""

    def __init__(self, grid, values):
        self.g = [_f(x) for x in grid]
        self.v = [_f(x) for x in values]
        cum = [mp.zero]
        for i in range(len(self.g) - 1):
            cum.append(cum[-1] + (self.v[i] + self.v[i + 1]) / 2 * (self.g[i + 1] - self.g[i]))
        self.cum = cum

    def quantiles(self, qs):
        out = []
        for q in qs:
            target = _f(q) * self.cum[-1]
            i = min(max(bisect.bisect_right(self.cum, target) - 1, 0), len(self.g) - 2)
            h = self.g[i + 1] - self.g[i]
            f0 = self.v[i]
            slope = (self.v[i + 1] - f0) / h
            r = target - self.cum[i]
            # root of f0 s + slope s^2 / 2 = r, in the cancellation-free form
            s = 2 * r / (f0 + mp.sqrt(f0 * f0 + 2 * slope * r))
            out.append(self.g[i] + s)
        return out


def sep(density, k1, k2):
    """Reference separation and its quantiles at (k1, 1-k2, k2, 1-k1)."""
    k1, k2 = _f(k1), _f(k2)
    q = density.quantiles([k1, 1 - k2, k2, 1 - k1])
    # the better of the two arrangements: k1 left of k2, or k2 left of k1
    return max(mp.zero, q[1] - q[0], q[3] - q[2]), q


def trig_needle(m, k, lo, hi):
    """The density of ``TrigDensity(m, k, [lo, hi])`` for the shapes the benchmark uses."""
    if lo >= 0.0 and hi <= math.pi / 2:
        return QuarterTrig(m, k, lo, hi)
    if k == 0:
        return ShiftedCos(m, 0.0, lo, hi)
    raise ValueError(f"no reference for cos^{m} sin^{k} on [{lo}, {hi}]")


def cross_grid(dim, max_total_power=None):
    """The (m, k) grid of the quarter-period needle bound."""
    low = max(dim - 1, 1)
    top = dim + 7 if max_total_power is None else int(max_total_power)
    return [(total - k, k) for total in range(low, top + 1) for k in range(total + 1)]


def cross_bound(dim, k1, k2, half_pi, max_total_power=None):
    """Max separation over the grid, and the needles within 1e-9 of it."""
    seps = {}
    for m, k in cross_grid(dim, max_total_power):
        seps[(m, k)] = sep(QuarterTrig(m, k, 0.0, half_pi), k1, k2)[0]
    best = max(seps.values())
    near = sorted([m, k] for (m, k), s in seps.items() if s >= best - mp.mpf("1e-9"))
    return best, near


def radial(a, b, diameter):
    """Radial profile ``sin^a cos^b`` on ``[0, diameter]`` (diameter pi or pi/2)."""
    if diameter > 2.0:
        return ShiftedCos(a, mp.pi / 2, 0.0, diameter)
    return QuarterTrig(b, a, 0.0, diameter)


def enlarged(a, b, diameter, v, eps):
    """Volume fraction of the eps-enlargement of the volume-v candidate."""
    d = radial(a, b, diameter)
    r = d.quantiles([v])[0] + _f(eps)
    return mp.one if r >= d.hi else d.cdf(r)


def crossover(a0, b0, a1, b1, diameter, eps, v_low, v_high):
    """Volume where candidates (a0, b0) and (a1, b1) enlarge equally."""
    def gap(v):
        return enlarged(a0, b0, diameter, v, eps) - enlarged(a1, b1, diameter, v, eps)

    return mp.findroot(gap, (_f(v_low), _f(v_high)), solver="anderson")


def text(x):
    """An mpf as a plain decimal string of ``DIGITS`` significant digits."""
    return mp.nstr(x, DIGITS, min_fixed=-mp.inf, max_fixed=mp.inf)


def abs_err(value, ref):
    """|value - ref| as a float, with ``ref`` a cached decimal string."""
    return float(abs(_f(value) - mp.mpf(ref)))


def array_sha(*arrays):
    h = hashlib.sha256()
    for arr in arrays:
        h.update(memoryview(arr).cast("B"))
    return h.hexdigest()


class Cache:
    """Reference values keyed by canonical input strings."""

    def __init__(self, path=CACHE_PATH):
        self.path = path
        self.misses = 0
        try:
            with open(path) as fh:
                self.data = json.load(fh)
        except FileNotFoundError:
            self.data = {}

    def get(self, key, compute):
        if key not in self.data:
            self.misses += 1
            self.data[key] = compute()
        return self.data[key]

    def save(self):
        """Write one reference per line, sorted by key, so diffs stay readable."""
        lines = [f"{json.dumps(k)}: {json.dumps(self.data[k])}" for k in sorted(self.data)]
        with open(self.path, "w") as fh:
            fh.write("{\n" + ",\n".join(lines) + "\n}\n")


def self_check():
    """Largest gap between the incomplete-beta CDFs and quadrature, at 45 digits."""
    worst = mp.zero
    cases = [
        (QuarterTrig(3.0, 2.5, 0.1, 1.4), 0.9),
        (QuarterTrig(0.0, 7.0, 0.0, 1.5707963267948966), 1.2),
        (ShiftedCos(4.5, 0.3, -1.0, 1.6), 0.75),
        (ShiftedCos(6.0, mp.pi / 2, 0.0, 3.141592653589793), 2.9),
    ]
    for d, t in cases:
        exact = mp.quad(d.pdf, [d.lo, _f(t)]) / mp.quad(d.pdf, [d.lo, d.hi])
        worst = max(worst, abs(d.cdf(_f(t)) - exact))
    return worst


if __name__ == "__main__":
    if sys.argv[1:] == ["--rebuild"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import workloads

        workloads.rebuild_reference_cache()
    elif sys.argv[1:] == ["--self-check"]:
        print(float(self_check()))
    else:
        sys.exit("usage: python bench/reference.py --rebuild | --self-check")
