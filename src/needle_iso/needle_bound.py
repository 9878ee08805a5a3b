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
import threading
from collections import namedtuple
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .cross_spaces import SPHERE
from .densities import HALF_PI, Interval, SinAffineDensity, _checked_fold, _fold, _needle_quantile, _take, normalize
from .errors import HypothesisViolated, NotApplicable, OutOfDomain, _broadcast, _check
from .sampling import RngSpec, _affine_draws
from .separation import _needle_gaps, as_mass_pair

_TIE_TOL = 1e-12
# The masses of a grid's quantile table, strictly increasing and all exact in
# binary: 0, the powers 2^-40 ... 2^-10, j / 512 for j = 1..511, their mirrors
# 1 - 2^-10 ... 1 - 2^-40, and 1.  The powers bracket the small targets of
# complement-reduced and forced mass pairs, and their mirrors the targets next
# to 1, which a uniform grid leaves in its first and last cells.
_MASSES = np.concatenate(
    [[0.0], 2.0 ** np.arange(-40, -9), np.arange(1, 512) / 512, 1.0 - 2.0 ** np.arange(-10, -41, -1), [1.0]]
)
_MASSES.flags.writeable = False
# How far a bracket's bounds are widened, in radians: a quantile inside its
# bracket lies between the tabulated ends up to the kernel's rounding, about
# 1e-14, so this slack is ample.
_SLACK = 1e-10
# The most needles a cross grid's folded ``m <= k`` half may hold, about 2^18
# on the whole grid: ``max_total_power`` up to 722 on spaces of dimension at
# most 16.  A larger grid raises OutOfDomain before it is built.
_MAX_FOLDED = 1 << 17
# The most folded needles the cached exponent grids hold together: two grids
# at the limit.  ``_grids`` maps ``(low, top)`` to its grid, least recently
# used first.
_CACHED_FOLDED = 1 << 18
_grids = {}
_grids_lock = threading.Lock()


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


# What the cross bound reads of an exponent grid: its sorted ``m <= k`` ``pairs``
# and their ``needle`` record, the ``ties`` met so far, by the bytes of their
# indices into ``pairs``, the quantile ``table`` and which rows are ``filled``.
_Grid = namedtuple("_Grid", "pairs needle ties table filled")


@functools.lru_cache(maxsize=64)
def _sphere_needle(n):
    """The n-sphere's one model needle ``cos^(n-1)`` on ``[-pi/2, pi/2]``,
    folded once, with the ``params`` and the one-pair ``ties`` that every
    result of that dimension shares."""
    return _fold(n - 1.0, 0.0, -HALF_PI, HALF_PI), _params(n=n, m=n - 1), ((n - 1, 0),)


def _exponent_grid(low, top):
    """The grid of pairs ``(m, k)`` with ``low <= m + k <= top``, built once
    as one read-only ``_fold`` of its ``m <= k`` half on ``[0, pi/2]``:
    reflecting about pi/4 swaps ``m``, ``k`` and the gap rule's two
    arrangements, so ``sep(m, k) == sep(k, m)`` and the half fixes every
    bound and tie.  Its ``table`` will hold each needle's quantile at the
    masses ``_MASSES``, a (575 x needle) array left empty here:
    :func:`_candidates` fills the rows it reads, on first use, and flags
    each in ``filled``.

    Grids are cached by folded needle count, not by entry count: a miss
    first drops the least recently used grids until the new grid's folded
    needles fit with theirs in ``_CACHED_FOLDED`` (or none is left), then
    builds it.  Lookups and builds hold one lock, so no grid is built twice
    at once."""
    key = (low, top)
    with _grids_lock:
        grid = _grids.pop(key, None)
        if grid is None:
            need = _folded_count(low, top)
            while _grids and need + sum(g.needle.a.size for g in _grids.values()) > _CACHED_FOLDED:
                del _grids[next(iter(_grids))]
            pairs = tuple(sorted((m, t - m) for t in range(low, top + 1) for m in range(t // 2 + 1)))
            needle = _fold(*np.array(pairs, dtype=float).T, 0.0, HALF_PI)
            table = np.empty((_MASSES.size, len(pairs)))
            grid = _Grid(pairs, needle, {}, table, np.zeros(_MASSES.size, dtype=bool))
        _grids[key] = grid  # the most recently used grid comes last
        return grid


_exponent_grid.cache_clear = _grids.clear


def _folded_count(low, top):
    """How many pairs ``m <= k`` have ``low <= m + k <= top``: a total ``t``
    has ``t // 2 + 1`` of them, and those of totals ``0 .. n`` sum to
    ``(n // 2) * ((n + 1) // 2) + n + 1``."""

    def upto(n):
        return (n // 2) * ((n + 1) // 2) + n + 1

    return upto(top) - upto(low - 1)


def _candidates(grid, k1, k2):
    """Which needles of ``grid``'s quantile table can reach the maximum
    separation at each mass pair ``(k1, k2)``, or tie with it: a (mass pair
    x needle) mask.  Each of the gap rule's four targets lies between two
    adjacent masses of ``_MASSES`` (one ``searchsorted``), so its quantile
    lies between their quantiles; that bounds each needle's separation above
    and below, each widened by the slack and clamped at 0.  A needle is
    dropped when its upper bound is below the row's best lower bound less
    the tie tolerance, so it is neither the maximum nor a tie.  The test is
    ``not (upper < threshold)``: a NaN anywhere keeps the needles it touches.

    The rows the brackets read that are not yet filled come from one
    quantile call; each is written before it is flagged, and only flagged
    rows are read.  Threads that fill a row at once write the same bits."""
    q = np.array([k1, 1.0 - k2, k2, 1.0 - k1])
    j = np.searchsorted(_MASSES[:-1], q, side="right") - 1  # a target of 1 takes the last bracket
    ends = np.concatenate([j, j + 1], axis=None)
    if not grid.filled[ends].all():
        missing = np.unique(ends[~grid.filled[ends]])
        grid.table[missing] = _needle_quantile(grid.needle, _MASSES[missing, None])
        grid.filled[missing] = True
    below, above = grid.table[j], grid.table[j + 1]
    upper = np.maximum(np.maximum(above[1] - below[0], above[3] - below[2]) + _SLACK, 0.0)
    lower = np.maximum(np.maximum(below[1] - above[0], below[3] - above[2]) - _SLACK, 0.0)
    return ~(upper < np.max(lower, axis=1, keepdims=True) - _TIE_TOL)


def _family_bounds(grid, params, mps):
    """The cross bound over ``grid`` for each of the mass pairs ``mps``, in
    that order, in passes of ``max(1, _MAX_FOLDED // folded)`` pairs: the
    temporaries are those of one grid at the limit, whatever the batch.  A
    pass sends its :func:`_candidates` through the kernel once; ``np.nonzero``
    lists them pair by pair, in runs none of which is empty (the needle with
    the pair's best lower bound stays).  A run's maximum is its pair's bound,
    with the bits of the whole grid, and its entries within 1e-12 of it, with
    their mirror twins, sorted, are the grid's one tuple for that tie set."""
    k1 = np.array([mp.k1 for mp in mps])
    k2 = np.array([mp.k2 for mp in mps])
    step = max(1, _MAX_FOLDED // len(grid.pairs))
    results = []
    for lo in range(0, len(mps), step):
        a, b = k1[lo : lo + step], k2[lo : lo + step]
        rows, cols = np.nonzero(_candidates(grid, a, b))
        seps = _needle_gaps(_take(grid.needle, cols), a[rows], b[rows])[2]
        runs = np.searchsorted(rows, np.arange(1, a.size))
        for run, at, mp in zip(np.split(seps, runs), np.split(cols, runs), mps[lo : lo + step]):
            best = np.max(run)
            hit = at[run >= best - _TIE_TOL]
            ties = grid.ties.get(key := hit.tobytes())
            if ties is None:  # setdefault is atomic: threads that race keep one tuple
                ties = tuple(sorted({twin for j in hit for twin in (grid.pairs[j], grid.pairs[j][::-1])}))
                ties = grid.ties.setdefault(key, ties)
            results.append(NeedleBoundResult(float(best), "trig", params, ties, mp.straddles_half))
    return tuple(results)


def sphere_needle_bound(n, masses, force=False):
    """Needle separation distance for the n-sphere: sep of ``C cos^(n-1)``.

    Exact for straddling mass pairs; with ``force=True`` the same formula is
    evaluated for non-straddling pairs and flagged as heuristic.  An ``n``
    below 2 or not a finite integer (integer-valued floats pass) raises
    ``OutOfDomain``.  The needle is folded once per dimension and cached;
    the bound takes ``sep_1d``'s one-needle path through the kernel.
    """
    n = _check("dimension", n, "sphere dimension")
    (mp,) = _straddling([masses], force, "sphere needle bound")
    return _sphere_bound(n, mp)


def _sphere_bound(n, mp):
    """The core of :func:`sphere_needle_bound` for a checked dimension ``n``
    and :class:`MassPair` ``mp``: the gap rule on the cached needle."""
    needle, params, ties = _sphere_needle(n)
    bound = float(_needle_gaps(needle, mp.k1, mp.k2)[2])
    return NeedleBoundResult(bound, "sphere-cos", params, ties, mp.straddles_half)


def cross_needle_bounds(space, mass_pairs, max_total_power=None, force=False):
    """:func:`cross_needle_bound` for each of ``mass_pairs``, as a tuple of
    results in that order; no result depends on the other pairs, bit for bit.

    Each grid's ``m <= k`` half is folded once per process and cached
    (:func:`_exponent_grid`), and its ties are mirrored onto the whole grid,
    so twins ``(m, k)`` and ``(k, m)`` carry the same bits.  The grid's cached
    quantile table brackets every needle's separation, and only the needles
    that can reach a pair's maximum or tie with it are evaluated
    (:func:`_candidates`; always the needle with the pair's best lower bound):
    the bound and ties are those of the whole grid.  Pairs go in passes of
    ``max(1, 2^17 // folded needles)``, so memory stays flat in the batch.
    """
    _check("space", space)
    if space.family == SPHERE:
        raise NotApplicable("use sphere_needle_bound for spheres")
    mps = _straddling(_check("mass pairs", mass_pairs, "mass_pairs"), force, "cross needle bound")
    mtp = None if max_total_power is None else _check("integer", max_total_power, "max_total_power")
    return _cross_bounds(space, mps, mtp)


def _cross_bounds(space, mps, mtp=None):
    """The core of :func:`cross_needle_bounds` for a checked cross ``space``,
    :class:`MassPair` records ``mps`` and an int power cap ``mtp`` (default
    ``dim + 7``): a cap below the admissibility floor or over the grid
    limit still raises OutOfDomain, before any grid is built."""
    low = max(space.dim - 1, 1)
    mtp = space.dim + 7 if mtp is None else mtp
    if mtp < low:
        raise OutOfDomain(
            f"max_total_power={mtp} is below the admissibility floor {low}"
        )
    if (folded := _folded_count(low, mtp)) > _MAX_FOLDED:
        raise OutOfDomain(
            f"max_total_power={mtp} folds {folded} needles on {space.name}, "
            f"over the grid limit of {_MAX_FOLDED}"
        )
    grid = _exponent_grid(low, mtp)
    return _family_bounds(grid, _params(space=space.name, max_total_power=mtp), mps)


def cross_needle_bound(space, masses, max_total_power=None, force=False):
    """Max separation over ``C cos^m sin^k`` needles on ``[0, diameter]``.

    The integer grid runs over ``m, k >= 0`` with
    ``dim - 1 <= m + k <= max_total_power`` (default ``dim + 7``).  All
    maximizing pairs within 1e-12 are reported as ties, sorted.  A
    ``max_total_power`` that is not a finite integer (integer-valued floats
    pass) or is below ``max(dim - 1, 1)`` raises ``OutOfDomain``, and so
    does a grid whose folded ``m <= k`` half would hold more than 2^17
    needles (about 2^18 on the whole grid, so ``max_total_power`` at most
    722 on spaces of dimension up to 16), before anything is built.  A
    ``space`` that is not a ``CrossSpace`` raises ``OutOfDomain``.
    """
    return cross_needle_bounds(space, [masses], max_total_power, force)[0]


def _batch_sep(m, k, lo, hi, offset, k1, k2):
    """The one body of both batch seps: the masses by the ``masses`` kind,
    the needles through the checked fold, everything broadcast, and the gap
    rule's separations from one quantile call, which raises OutOfDomain at
    a target without a quantile, as in ``sep_1d``."""
    k1, k2 = _check("masses", k1, "k1"), _check("masses", k2, "k2")
    needle = _checked_fold(m, k, lo, hi, offset)
    _, k1, k2 = _broadcast("needles and masses", needle.a, k1, k2)
    return _needle_gaps(needle, k1, k2)[2]


def batch_trig_sep(m, k, lo, hi, k1, k2):
    """Separations for a batch of trig-monomial needles.

    ``sep_1d`` on the equivalent :class:`TrigDensity`, vectorized over
    needles; all arguments broadcast.  Every needle must lie in the
    constructor's domain (an invalid one raises ``OutOfDomain``, as
    ``TrigDensity`` does), and every mass in (0, 1].
    """
    return _batch_sep(m, k, lo, hi, 0.0, k1, k2)


def batch_affine_sep(phase, power, lo, hi, k1, k2):
    """Separation distances for a batch of sin^p-affine needles.

    All arguments broadcast elementwise, and every mass must lie in (0, 1].
    ``sep_1d(SinAffineDensity(...), (k1, k2))`` vectorized over the batch:
    the needle is ``cos^power`` on the interval shifted by ``-phase``, and
    an invalid one raises ``OutOfDomain``, as ``SinAffineDensity`` does.
    """
    return _batch_sep(power, 0.0, lo, hi, phase, k1, k2)


def optimize_affine_family(interval_length_max, p_range, masses, samples, seed):
    """Seeded random search over valid sin^p-affine needles.

    Samples ``(sub-interval, p, phase)`` with the density positive on the
    open support and support length in ``[1e-3, interval_length_max]``;
    returns the best separation found.  Deterministic for a fixed seed: the
    supports ``[0, L]``, the power indices and the phases are drawn in that
    order, one array each, from ``RngSpec(seed).generator()``, the stream
    of ``Generator(PCG64(seed))``.  The inputs take the ``length`` (at
    least 1e-3), ``powers``, ``mass pair``, ``count`` and ``seed`` kinds.
    """
    samples = _check("count", samples, "samples", bound=1)
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
    A ``bound_fn`` that is not callable or ``mass_pairs`` that is not
    iterable raises OutOfDomain.
    """
    _check("callable", bound_fn, "bound_fn")
    rows = []
    for pair in _check("mass pairs", mass_pairs, "mass_pairs"):
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
