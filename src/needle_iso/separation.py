"""Separation distance of a 1-D needle for a pair of mass thresholds.

``Sep(density, k1, k2)`` is the supremum of distances between two subsets
carrying masses at least ``k1`` and ``k2``.  For a full-support density on
an interval the supremum is attained by a pair of extreme sub-intervals, in
one of two arrangements (the ``k1`` mass sitting on the left or on the
right); the separation is the larger of the two gaps, which also makes the
value symmetric under swapping the masses.
"""

import math
from dataclasses import dataclass

import numpy as np

from .densities import Interval, TabulatedDensity, _needle_quantile, _require_mass, _tabulate
from .errors import _broadcast, _check


@dataclass(frozen=True)
class MassPair:
    """Two mass thresholds, each by the ``mass`` kind of ``errors._KINDS``
    (an int or a float in (0, 1]), stored as Python floats."""

    k1: float
    k2: float

    def __post_init__(self):
        object.__setattr__(self, "k1", _check("mass", self.k1, "k1"))
        object.__setattr__(self, "k2", _check("mass", self.k2, "k2"))

    @property
    def straddles_half(self):
        return min(self.k1, self.k2) <= 0.5 <= max(self.k1, self.k2)


def as_mass_pair(masses):
    """``masses`` as a :class:`MassPair`: one as is, or a pair ``(k1, k2)``
    by the ``mass pair`` kind and then its rule; anything that does not
    unpack to two values raises OutOfDomain."""
    return masses if isinstance(masses, MassPair) else MassPair(*_check("mass pair", masses, "masses"))


@dataclass(frozen=True, slots=True)
class SeparationResult:
    """Separation value plus the realizing extreme intervals.

    ``left_interval`` carries ``left_mass`` and ``right_interval`` carries
    ``right_mass``; ``(left_mass, right_mass)`` is ``(k1, k2)`` or
    ``(k2, k1)`` depending on which arrangement realizes the supremum.
    """

    sep: float
    left_interval: Interval
    right_interval: Interval
    left_mass: float
    right_mass: float

    def to_dict(self):
        return {
            "sep": self.sep,
            "left": [self.left_interval.lo, self.left_interval.hi],
            "right": [self.right_interval.lo, self.right_interval.hi],
            "left_mass": self.left_mass,
            "right_mass": self.right_mass,
        }


def _gap_rule(ends, k1, k2):
    """The gap rule of every separation: ``ends`` maps the masses
    ``(k1, 1-k2, k2, 1-k1)``, stacked on a leading axis of length 4 (any
    trailing shape; Python floats stack to four floats), to where the left
    intervals end (entries 0, 2) and the right ones start (1, 3).  Returns
    those points, whether ``k1`` sits on the left of the wider arrangement,
    and its gap clamped at zero."""
    t = ends(np.array([k1, 1.0 - k2, k2, 1.0 - k1]))
    gap_12, gap_21 = t[1] - t[0], t[3] - t[2]
    return t, gap_12 >= gap_21, np.maximum(np.maximum(gap_12, gap_21), 0.0)


def _needle_gaps(needle, k1, k2):
    """:func:`_gap_rule` on a needle record's closed-form quantiles, in its own
    frame (strictly increasing CDFs need no plateau correction).  The masses
    broadcast against the record's fields: ``(P, 1)`` masses over an ``(N,)``
    record give a ``(P, N)`` table from one quantile call.  Float masses on
    one needle (``sep_1d``'s path) stay floats: no 0-d array is made."""
    if not (isinstance(k1, float) and isinstance(k2, float) and needle.a.ndim == 0):
        k1, k2 = np.asarray(k1, dtype=float), np.asarray(k2, dtype=float)
        shape = np.broadcast(needle.a, k1, k2).shape
        # only when needed: np.broadcast_to's Python overhead rivals a whole scalar bound
        if k1.shape != shape or k2.shape != shape:
            k1, k2 = np.broadcast_to(k1, shape), np.broadcast_to(k2, shape)
    return _gap_rule(lambda q: _needle_quantile(needle, q), k1, k2)


# which of the gap rule's four targets start a right interval; read-only, so
# every scalar tabulated separation shares it
_RIGHT = np.array([False, True, False, True])
_RIGHT.flags.writeable = False


def _density_gaps(density, k1, k2):
    """:func:`_gap_rule` on one density over a mass axis: ``k1`` and ``k2``
    share one shape (any), and the ends come from one quantile call.  They
    fall ``density._offset`` short: a closed family works in its record's frame."""
    if not isinstance(density, TabulatedDensity):
        return _needle_gaps(density._needle, k1, k2)
    # only a tabulated CDF can be flat inside its interval: across a zero
    # plateau a right interval (entries 1, 3) starts at the plateau's end
    right = _RIGHT if isinstance(k1, float) else _RIGHT.reshape((4,) + (1,) * np.ndim(k1))
    return _gap_rule(lambda q: density._quantile(q, right=right), k1, k2)


def sep_1d(density, masses):
    """Separation distance of a needle, with the realizing intervals.

    The gap of the arrangement placing mass ``a`` on the left and ``b`` on
    the right runs from the least ``t`` with ``F(t) >= a`` to the largest
    ``t`` with ``F(t) <= 1 - b``; the result is the larger of the two
    arrangements, clamped at zero (the intervals are still reported at
    exact masses when they overlap, and always inside the interval).  A
    target the quantile kernel has no answer for raises OutOfDomain naming
    it, and so do a density that is not one of the library's and masses
    that are not a pair.
    """
    mp = as_mass_pair(masses)
    _check("density", density)
    # quantile-based extremality assumes the supremum is reached by extreme
    # intervals, which holds for the library's unimodal families; other
    # tabulated shapes need the brute-force route
    lo, hi = density.interval.lo, density.interval.hi
    t, k1_left, sep = _density_gaps(density, mp.k1, mp.k2)
    i = 0 if k1_left else 2  # the winning arrangement's two end points
    return SeparationResult(
        sep=float(sep),
        left_interval=Interval(lo, min(max(float(t[i]) + density._offset, math.nextafter(lo, hi)), hi)),
        right_interval=Interval(max(min(float(t[i + 1]) + density._offset, math.nextafter(hi, lo)), lo), hi),
        left_mass=mp.k1 if k1_left else mp.k2,
        right_mass=mp.k2 if k1_left else mp.k1,
    )


def batch_sep(density, k1, k2):
    """``sep_1d(density, (k1, k2)).sep`` over a batch of mass pairs of one
    needle: ``k1`` and ``k2`` broadcast, each in (0, 1], and the batch takes
    one quantile call.  Returns a float array of the broadcast shape, bit
    for bit the scalar seps; a target without a quantile raises
    OutOfDomain, as in ``sep_1d``, and so does a density that is not one of
    the library's."""
    _check("density", density)
    k1, k2 = _broadcast("k1 and k2", _check("masses", k1, "k1"), _check("masses", k2, "k2"))
    return _density_gaps(density, k1, k2)[2]


def _extreme_gap(grid, values, k1, k2):
    """The brute-force separation of one tabulated row: ``values`` sampled on
    ``grid``, through the tabulated domain check (a non-finite or negative
    sample raises OutOfDomain, a mass at the floor ZeroMass).  For each
    arrangement it keeps the shortest trapezoid prefix reaching one mass and
    the shortest suffix reaching the other, and returns the larger gap."""
    t, _, prefix = _tabulate(grid, values)
    total = prefix[-1]
    _require_mass(total)

    def arrangement(a, b):
        left_ok = prefix >= a * total
        right_ok = (total - prefix) >= b * total
        # masses lie in (0, 1], so both masks hold at least one True: the last
        # prefix is total >= fl(a * total), the first suffix total >= fl(b * total)
        i = int(np.argmax(left_ok))
        j = int(t.size - 1 - np.argmax(right_ok[::-1]))
        return max(0.0, float(t[j] - t[i]))

    return max(arrangement(k1, k2), arrangement(k2, k1))


def sep_1d_bruteforce(density, masses, grid_size=4096):
    """Grid-exhaustive oracle for :func:`sep_1d`.

    Scans grid prefixes and suffixes only: for each arrangement it keeps
    the shortest prefix reaching one mass and the shortest suffix reaching
    the other, and reports the larger gap.  It therefore assumes, like
    :func:`sep_1d`, that extreme intervals attain the supremum, and checks
    the quantile arithmetic rather than that reduction.  Agrees with the
    quantile route to within ``2 * length / grid_size``.  A ``grid_size``
    that is not an integer >= 64 raises ``OutOfDomain``, and so do a
    density that is not one of the library's and masses that are not a
    pair.
    """
    grid_size = _check("count", grid_size, "grid_size", bound=64)
    mp = as_mass_pair(masses)
    _check("density", density)
    if isinstance(density, TabulatedDensity) and len(density.grid) == grid_size + 1:
        t, v = density.grid, density.values
    else:
        t = density.interval.grid(grid_size + 1)
        v = density.pdf(t)
    return _extreme_gap(t, v, mp.k1, mp.k2)
