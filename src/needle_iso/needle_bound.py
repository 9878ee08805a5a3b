"""Needle separation bounds over the admissible comparison families.

For spheres the comparison needle is ``C cos^(n-1)`` on ``[-pi/2, pi/2]``;
for the diameter-pi/2 spaces the family is ``C cos^m sin^k`` on
``[0, pi/2]`` over integer exponents with ``m + k >= dim - 1``.  A seeded
random search over sin^p-affine needles provides the verification
counterpart.

Both bounds assume the mass pair straddles 1/2 (one mass at most 1/2, the
other at least 1/2); callers may force the computation anyway, in which
case the result is flagged as heuristic.
"""

import functools
from collections import namedtuple
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .cross_spaces import SPHERE, _integer
from .densities import HALF_PI, Interval, SinAffineDensity, _checked_fold, _fold, _needle_quantile, normalize
from .errors import HypothesisViolated, NotApplicable, OutOfDomain, _require_count
from .sampling import RngSpec, _affine_draws
from .separation import _as_masses, _needle_gaps, as_mass_pair

_TIE_TOL = 1e-12
# A grid's quantile table holds each needle's quantile at the masses j / 128,
# j = 0..128: exact in binary, so a target's bracket is the floor of 128 q.
_STEPS = 128
# How far a bracket's bounds are widened, in radians: a quantile inside its
# bracket lies between the tabulated ends up to the kernel's rounding, about
# 1e-14, so this slack is ample.
_SLACK = 1e-10


@dataclass(frozen=True, slots=True)
class NeedleBoundResult:
    """A needle separation bound together with the maximizing needle.

    ``params`` is a read-only mapping shared by every result of one sphere
    dimension, or of one space and power cap, and ``ties`` is shared by
    every result of one family and tie set: a kept result holds little more
    than its bound.
    """

    bound: float
    family: str  # "sphere-cos" | "trig"
    params: MappingProxyType
    ties: tuple
    hypothesis_satisfied: bool

    @property
    def argmax(self):
        return self.ties[0]

    def __reduce__(self):
        # a mappingproxy does not pickle: send a dict, rewrapped on load
        return _unpickle_result, (self.bound, self.family, dict(self.params), self.ties, self.hypothesis_satisfied)

    def to_dict(self):
        m, k = self.ties[0]
        rec = {
            "bound": self.bound,
            "family": self.family,
            "m": m,
            "k": k,
            "ties": [list(t) for t in self.ties],
            "hypothesis_satisfied": self.hypothesis_satisfied,
        }
        rec.update({k_: v for k_, v in self.params.items() if k_ not in rec})
        return rec


def _unpickle_result(bound, family, params, ties, hypothesis_satisfied):
    return NeedleBoundResult(bound, family, MappingProxyType(params), ties, hypothesis_satisfied)


def _straddling(mass_pairs, force, context):
    """The mass pairs as :class:`MassPair` records; one that does not straddle 1/2
    raises HypothesisViolated unless ``force``."""
    mps = [as_mass_pair(p) for p in mass_pairs]
    for mp in mps:
        if not (mp.straddles_half or force):
            raise HypothesisViolated(
                f"{context}: mass pair ({mp.k1}, {mp.k2}) must straddle 1/2 "
                "(pass force=True for a heuristic value)"
            )
    return mps


@functools.lru_cache(maxsize=128)
def _params(**labels):
    """The read-only ``params`` every result with these labels shares."""
    return MappingProxyType(labels)


# What every needle bound reads of its family: the sorted ``pairs``, the
# ``needle`` record of the folded ones, each pair's ``column`` in that record,
# the ``ties`` tuples met so far, by the bytes of their indices into ``pairs``,
# and the quantile ``table`` of the folded needles (None: evaluate them all).
_Family = namedtuple("_Family", "pairs needle column ties table")


def _family(pairs, folded, lo, hi):
    """The read-only family of needles ``cos^m sin^k`` on ``[lo, hi]`` for
    ``(m, k)`` in ``pairs``: one ``_fold`` of the ``folded`` pairs, and each
    pair reads its own column or, when only its mirror twin ``(k, m)`` is
    folded, the twin's."""
    where = {p: j for j, p in enumerate(folded)}
    column = np.array([where[p] if p in where else where[p[::-1]] for p in pairs])
    needle = _fold(*np.array(folded, dtype=float).T, lo, hi)
    for arr in (*needle, column):
        arr.flags.writeable = False
    return _Family(pairs, needle, column, {}, None)


@functools.lru_cache(maxsize=64)
def _sphere_family(n):
    """The n-sphere's one model needle ``cos^(n-1)`` on ``[-pi/2, pi/2]``."""
    return _family(((n - 1, 0),), ((n - 1, 0),), -HALF_PI, HALF_PI)


@functools.lru_cache(maxsize=32)
def _exponent_grid(low, top, diameter):
    """The grid of pairs ``(m, k)`` with ``low <= m + k <= top``, built once
    and read-only: one ``_fold`` of the ``m <= k`` half on ``[0, diameter]``
    serves every pair, since reflecting about pi/4 swaps ``m`` and ``k`` and
    the two arrangements of the gap rule, so ``sep(m, k) == sep(k, m)``.
    Its ``table`` holds each folded needle's quantile at the masses
    ``j / 128``, a (129 x needle) array from one quantile call."""
    pairs = tuple(sorted((total - k, k) for total in range(low, top + 1) for k in range(total + 1)))
    family = _family(pairs, tuple(p for p in pairs if p[0] <= p[1]), 0.0, diameter)
    table = _needle_quantile(family.needle, np.arange(_STEPS + 1)[:, None] / _STEPS)
    table.flags.writeable = False
    return family._replace(table=table)


def _candidates(table, k1, k2):
    """Which needles of a quantile ``table`` can reach the maximum separation
    at each mass pair ``(k1, k2)``, or tie with it: a (mass pair x needle)
    mask.  Each of the gap rule's four targets lies between two adjacent
    tabulated masses, so its quantile lies between their quantiles; that
    bounds each needle's separation above and below, each widened by the
    slack and clamped at 0.  A needle is dropped when its upper bound is
    below the row's best lower bound less the tie tolerance, so it is
    neither the maximum nor a tie.  The test is ``not (upper < threshold)``:
    a NaN anywhere keeps the needles it touches."""
    q = np.array([k1, 1.0 - k2, k2, 1.0 - k1])
    j = np.minimum((q * _STEPS).astype(np.intp), _STEPS - 1)
    below, above = table[j], table[j + 1]
    upper = np.maximum(np.maximum(above[1] - below[0], above[3] - below[2]) + _SLACK, 0.0)
    lower = np.maximum(np.maximum(below[1] - above[0], below[3] - above[2]) - _SLACK, 0.0)
    return ~(upper < np.max(lower, axis=1, keepdims=True) - _TIE_TOL)


def _family_seps(family, k1, k2):
    """The (mass pair x folded needle) table of separations at the masses
    ``k1``, ``k2`` (1-D): with a quantile table, only the :func:`_candidates`
    go through the kernel, on a sub-record of the fold, and every other
    entry is -inf; without one, every needle does.  Each entry has the bits
    of the full pass, since the kernel is elementwise."""
    if family.table is None:
        return _needle_gaps(family.needle, k1[:, None], k2[:, None])[2]
    rows, cols = np.nonzero(_candidates(family.table, k1, k2))
    # a list, not a generator: a tuple built from a generator is resized, so
    # the freed one never returns to the free list it would be reused from
    sub = family.needle._make([f[cols] for f in family.needle])
    seps = np.full((k1.size, family.table.shape[1]), -np.inf)
    seps[rows, cols] = _needle_gaps(sub, k1[rows], k2[rows])[2]
    return seps


def _family_bounds(family, name, params, mps):
    """The bound over ``family`` for each of the mass pairs ``mps``, in that
    order: :func:`_family_seps` gives the (mass pair x folded needle) table
    of separations, one fancy index spreads it onto every pair, and a row's
    ties are its entries within 1e-12 of its maximum, in family order, as
    the family's one tuple for that tie set (``pairs`` when all tie)."""
    k1 = np.array([mp.k1 for mp in mps])
    k2 = np.array([mp.k2 for mp in mps])
    seps = _family_seps(family, k1, k2)[:, family.column]
    best = np.max(seps, axis=1)
    results = []
    for row, b, mp in zip(seps, best, mps):
        hit = np.flatnonzero(row >= b - _TIE_TOL)
        ties = family.ties.get(key := hit.tobytes())
        if ties is None:  # setdefault is atomic: threads that race keep one tuple
            ties = family.pairs if hit.size == len(family.pairs) else tuple(family.pairs[j] for j in hit)
            ties = family.ties.setdefault(key, ties)
        results.append(NeedleBoundResult(float(b), name, params, ties, mp.straddles_half))
    return tuple(results)


def sphere_needle_bound(n, masses, force=False):
    """Needle separation distance for the n-sphere: sep of ``C cos^(n-1)``.

    Exact for straddling mass pairs; with ``force=True`` the same formula is
    evaluated for non-straddling pairs and flagged as heuristic.  An ``n``
    below 2 or not a finite integer (integer-valued floats pass) raises
    ``OutOfDomain``.  The needle is folded once per dimension and cached.
    """
    n = _integer(n, "sphere dimension")
    if n < 2:
        raise OutOfDomain(f"sphere dimension must be >= 2, got {n}")
    mps = _straddling([masses], force, "sphere needle bound")
    return _family_bounds(_sphere_family(n), "sphere-cos", _params(n=n, m=n - 1), mps)[0]


def cross_needle_bounds(space, mass_pairs, max_total_power=None, force=False):
    """:func:`cross_needle_bound` for each of ``mass_pairs``, as a tuple of
    results in that order; no result depends on the other pairs, bit for bit.

    Each grid's ``m <= k`` half is folded once per process and cached
    (:func:`_exponent_grid`), and mirrored onto the whole grid, so twins
    ``(m, k)`` and ``(k, m)`` carry the same bits.  The grid's cached
    quantile table brackets every needle's separation, and only the needles
    that can reach a pair's maximum or tie with it are evaluated
    (:func:`_candidates`): the bound and ties are those of the whole grid.
    """
    if space.family == SPHERE:
        raise NotApplicable("use sphere_needle_bound for spheres")
    if abs(space.diameter - HALF_PI) > 1e-12:
        raise NotApplicable("the trig-monomial grid applies to diameter pi/2 spaces")
    mps = _straddling(mass_pairs, force, "cross needle bound")
    low = max(space.dim - 1, 1)
    mtp = _integer(space.dim + 7 if max_total_power is None else max_total_power, "max_total_power")
    if mtp < low:
        raise OutOfDomain(
            f"max_total_power={mtp} is below the admissibility floor {low}"
        )
    grid = _exponent_grid(low, mtp, space.diameter)
    return _family_bounds(grid, "trig", _params(space=space.name, max_total_power=mtp), mps)


def cross_needle_bound(space, masses, max_total_power=None, force=False):
    """Max separation over ``C cos^m sin^k`` needles on ``[0, diameter]``.

    The integer grid runs over ``m, k >= 0`` with
    ``dim - 1 <= m + k <= max_total_power`` (default ``dim + 7``).  All
    maximizing pairs within 1e-12 are reported as ties, sorted.  A
    ``max_total_power`` that is not a finite integer (integer-valued floats
    pass) or is below ``max(dim - 1, 1)`` raises ``OutOfDomain``.
    """
    return cross_needle_bounds(space, [masses], max_total_power, force)[0]


def batch_trig_sep(m, k, lo, hi, k1, k2):
    """Separations for a batch of trig-monomial needles.

    ``sep_1d`` on the equivalent :class:`TrigDensity`, vectorized over
    needles; all arguments broadcast.  Every needle must lie in the
    constructor's domain (an invalid one raises ``OutOfDomain``, as
    ``TrigDensity`` does), and every mass in (0, 1].
    """
    return _needle_gaps(_checked_fold(m, k, lo, hi), *_as_masses(k1, k2))[2]


def batch_affine_sep(phase, power, lo, hi, k1, k2):
    """Separation distances for a batch of sin^p-affine needles.

    All arguments broadcast elementwise, and every mass must lie in (0, 1].
    ``sep_1d(SinAffineDensity(...), (k1, k2))`` vectorized over the batch:
    the needle is ``cos^power`` on the interval shifted by ``-phase``, and
    an invalid one raises ``OutOfDomain``, as ``SinAffineDensity`` does.
    """
    return _needle_gaps(_checked_fold(power, 0.0, lo, hi, phase), *_as_masses(k1, k2))[2]


def optimize_affine_family(interval_length_max, p_range, masses, samples, seed):
    """Seeded random search over valid sin^p-affine needles.

    Samples ``(sub-interval, p, phase)`` with the density positive on the
    open support and support length in ``[1e-3, interval_length_max]``;
    returns the best separation found.  Deterministic for a fixed seed: the
    supports ``[0, L]``, the power indices and the phases are drawn in that
    order, one array each, from ``RngSpec(seed).generator()``, the stream
    of ``Generator(PCG64(seed))``.  A length cap below 1e-3 or NaN, a
    ``samples`` that is not an integer >= 1, or a seed that is not an
    integer >= 0 raises ``OutOfDomain``.
    """
    _require_count(samples, "samples", 1)
    mp = as_mass_pair(masses)
    rng = RngSpec(seed).generator()
    lengths, powers, phases = _affine_draws(rng, samples, interval_length_max, p_range, 1e-3)
    los = np.zeros(samples)
    seps = batch_affine_sep(phases, powers, los, lengths, mp.k1, mp.k2)
    best_idx = int(np.argmax(seps))
    best_needle = normalize(
        SinAffineDensity(
            phase=float(phases[best_idx]),
            power=float(powers[best_idx]),
            interval=Interval(0.0, float(lengths[best_idx])),
        )
    )
    return {
        "best_sep": float(seps[best_idx]),
        "best_needle": best_needle,
        "all_samples": {
            "phase": phases,
            "power": powers,
            "lo": los,
            "hi": lengths,
            "sep": seps,
        },
    }


def bound_profile(bound_fn, mass_pairs):
    """Tabulate a needle bound over mass pairs, sorted by ``(k1, k2)``.

    ``bound_fn`` maps a :class:`MassPair` to a :class:`NeedleBoundResult`;
    each row records the bound and the (first) maximizing needle.
    """
    rows = []
    for pair in mass_pairs:
        mp = as_mass_pair(pair)
        rec = bound_fn(mp).to_dict()
        fields = {f: rec[f] for f in ("bound", "family", "m", "k")}
        rows.append({"k1": mp.k1, "k2": mp.k2} | fields)
    rows.sort(key=lambda r: (r["k1"], r["k2"]))
    return rows


def _csv_row(cells):
    """The one CSV row rule of every emitter: ``None`` is an empty cell, a
    string passes as is, a number is the ``repr`` of its Python value."""
    cells = (c.item() if isinstance(c, np.generic) else c for c in cells)
    return ",".join("" if c is None else c if isinstance(c, str) else repr(c) for c in cells) + "\n"


def _csv(fields, rows):
    """The one CSV table rule: a header of ``fields``, then one
    :func:`_csv_row` per row of cells."""
    return "".join([_csv_row(fields), *map(_csv_row, rows)])


def bound_profile_csv(rows):
    """CSV emission with the stable header ``k1,k2,bound,family,m,k``."""
    fields = ("k1", "k2", "bound", "family", "m", "k")
    return _csv(fields, ([r[f] for f in fields] for r in rows))
