"""Candidate-comparison isoperimetry on the catalog spaces.

Given a volume fraction ``v`` and an enlargement radius ``epsilon``, every
catalog candidate is realized at volume ``v`` and enlarged by ``epsilon``;
the winner minimizes the enlarged volume.  Volumes above one half are
handled through the complementary problem: the optimal set is the
complement of an enlarged polar candidate, mirroring the symmetry of the
separation distance.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .cross_spaces import (
    SPHERE, _catalog_enlarged, _catalog_table, _enlarged_difference, catalog, polar_of, profile_quantile
)
from .errors import NotApplicable, OutOfDomain, _check
from .needle_bound import _cross_bounds, _csv, _sphere_bound
from .sampling import RngSpec, _mc_cap_masses
from .separation import MassPair, as_mass_pair

_TIE_TOL = 1e-10
_MASS_FLOOR = 1e-12
_RESOLUTION = 4.0 * np.finfo(float).eps


@dataclass(frozen=True)
class SolveRequest:
    """A solve's inputs, by the ``space``, ``volume`` and ``epsilon`` kinds
    of ``errors._KINDS``; ``v`` and ``epsilon`` are stored as Python floats."""

    space: object
    v: float
    epsilon: float

    def __post_init__(self):
        _check("space", self.space)
        object.__setattr__(self, "v", _check("volume", self.v, "volume fraction"))
        object.__setattr__(self, "epsilon", _check("epsilon", self.epsilon))


@dataclass(frozen=True)
class SolveResult:
    space: object
    v: float
    epsilon: float
    winner: object
    co_winners: tuple
    enlarged: float
    per_candidate: tuple  # ((candidate, enlarged volume), ...)
    complement_reduction: dict | None = None

    @functools.cached_property
    def needle_bound_check(self):
        """The needle check at the complement mass of the winner's
        enlargement, computed on first read and kept; a ``replace()`` copy
        derives its own."""
        return _needle_check(self.space, self.v, 1.0 - self.enlarged, self.epsilon)

    def to_dict(self):
        rec = {
            "space": self.space.name,
            "v": self.v,
            "epsilon": self.epsilon,
            "winner": self.winner.label,
            "enlarged": self.enlarged,
            "co_winners": [c.label for c in self.co_winners],
            "candidates": [
                {"label": c.label, "a": c.a, "b": c.b, "enlarged": e}
                for c, e in self.per_candidate
            ],
            "check": dict(self.needle_bound_check),
        }
        if self.complement_reduction is not None:
            rec["complement_reduction"] = dict(self.complement_reduction)
        return rec


def _needle_check(space, v, w, epsilon):
    """Needle bound at masses (v, w) compared against epsilon: the forced
    bound's core on the checked space, with the public bound's bits."""
    if w <= _MASS_FLOOR:
        return {"w": float(w), "bound": None, "residual": None, "note": "saturated"}
    mp = MassPair(v, w)
    if space.family == SPHERE:
        res = _sphere_bound(space.dim, mp)
    else:
        (res,) = _cross_bounds(space, [mp])
    return {
        "w": float(w),
        "bound": float(res.bound),
        "residual": float(abs(res.bound - epsilon)),
        "hypothesis_satisfied": res.hypothesis_satisfied,
    }


def _solve(req):
    """The candidate table at ``req.v``: every candidate's enlarged volume
    from one pass over the space's cached catalog record (the bits of
    :func:`enlarged_volume`), the winner by the profile's rule (the least
    value, the first candidate on exact ties) with its own value, and the
    co-winners within 1e-10 of it.  Above 1/2 the result also records the
    complementary construction.  The request's inputs are not checked
    again, and the needle check is left to the result's first read."""
    cands, values = _catalog_table(req.space, np.array(req.v), req.epsilon)
    rows = tuple(zip(cands, map(float, values)))
    winner, best = min(rows, key=lambda row: row[1])  # the first least one, as np.argmin
    reduction = None
    if req.v > 0.5:
        w = 1.0 - best
        construction = f"complement of the {req.epsilon}-enlargement of '{winner.polar_label}' at volume {w:.12g}"
        reduction = {"applied": True, "w": w, "construction": construction}
    return SolveResult(
        space=req.space,
        v=req.v,
        epsilon=req.epsilon,
        winner=winner,
        co_winners=tuple(c for c, e in rows if e <= best + _TIE_TOL),
        enlarged=best,
        per_candidate=rows,
        complement_reduction=reduction,
    )


def solve_isoperimetric(req):
    """Pick the candidate whose epsilon-enlargement has least volume.

    Requires ``v <= 1/2``; larger volumes go through
    :func:`solve_with_complement_reduction`.  Ties within 1e-10 are all
    reported as co-winners.
    """
    if req.v > 0.5:
        raise OutOfDomain(
            "solve_isoperimetric handles v <= 1/2; use "
            "solve_with_complement_reduction for larger volumes"
        )
    return _solve(req)


def solve_with_complement_reduction(space, v, epsilon):
    """Solve at any volume fraction, reducing v > 1/2 to the complement.

    Every volume takes the same candidate table as
    :func:`solve_isoperimetric`.  For ``v > 1/2`` the result also records
    the complementary construction: the enlargement leaves volume
    ``w = 1 - mu(A + epsilon)`` outside, and the optimal set is the
    complement of the epsilon-enlargement of the winner's polar candidate
    at volume ``w`` (the (k1, k2) symmetry of the separation distance).
    """
    return _solve(SolveRequest(space=space, v=v, epsilon=epsilon))


def _newton(fg, a, b, x=None, ftol=0.0):
    """A root of ``f`` in ``[a, b]``, across which ``f`` goes from ``<= 0``
    to ``> 0``; ``fg(x)`` returns ``f(x)`` and its slope.

    Safeguarded Newton (rtsafe): each evaluation moves the bracket's end on
    its side of the root to ``x``.  The next point is the Newton step, or
    the bracket's midpoint when that step leaves the bracket, the slope is
    0, or the step is not under half the one before last.  Starts at ``x``
    (default the midpoint).  Returns the first point with ``|f| <= ftol``
    (the rounding level of ``f``, past which steps only follow noise), or
    the point after the first step within 4 ulps of the bracket's scale.
    """
    x = 0.5 * (a + b) if x is None else x
    step = before = b - a
    while True:
        f, df = fg(x)
        if abs(f) <= ftol:
            return x
        if f < 0.0:
            a = x
        else:
            b = x
        newton = f / df if df else math.inf
        if not (a < x - newton < b) or abs(2.0 * newton) > abs(before):
            newton = x - 0.5 * (a + b)
        before, step = step, newton
        x -= step
        if abs(step) <= _RESOLUTION * max(abs(a), abs(b)):
            return x


def isoperimetric_profile_curve(space, epsilon, v_grid):
    """Winner and enlarged volume along a grid of volume fractions.

    The (candidate x v) table is one pass over the space's cached catalog
    record.  A winner change between consecutive grid points is refined by
    :func:`_newton` on the enlarged-volume difference, to float resolution
    in v, starting from the secant through the grid values; each step is
    one pass over the two candidates.  A cell whose upper-end values tie
    exactly (both enlargements saturated) has no sign change and reports no
    crossover.  An ``epsilon`` that is not a positive, finite scalar, a grid
    that is not 1-D, a volume outside (0, 1/2], NaN included, or a space
    that is not a ``CrossSpace`` raises ``OutOfDomain`` before any
    evaluation.
    """
    epsilon = _check("epsilon", epsilon)
    v_grid = sorted(_check("volume grid", v_grid).tolist())
    cands, table = _catalog_enlarged(space, np.array(v_grid), epsilon)

    # argmin keeps the first candidate on exact ties
    best = np.argmin(table, axis=0)
    rows = [
        {"v": v, "winner": cands[i].label, "enlarged": float(table[i, j])}
        for j, (v, i) in enumerate(zip(v_grid, best))
    ]

    crossovers = []
    for j in np.flatnonzero(best[1:] != best[:-1]):
        i_from, i_to = best[j], best[j + 1]
        low, high = table[i_from, j] - table[i_to, j], table[i_from, j + 1] - table[i_to, j + 1]
        if high <= 0.0:
            continue
        secant = v_grid[j] + (v_grid[j + 1] - v_grid[j]) * low / (low - high)
        # the enlarged volumes grow with v, so the upper end bounds their rounding
        ftol = _RESOLUTION * max(table[i_from, j + 1], table[i_to, j + 1])
        difference = _enlarged_difference(space, i_from, i_to, epsilon)
        crossovers.append(
            {
                "v_low": v_grid[j],
                "v_high": v_grid[j + 1],
                "v0": float(_newton(difference, v_grid[j], v_grid[j + 1], secant, ftol)),
                "from": cands[i_from].label,
                "to": cands[i_to].label,
            }
        )
    return {"rows": rows, "crossovers": crossovers}


def profile_curve_csv(result):
    """CSV emission with the stable header ``v,winner,enlarged``."""
    fields = ("v", "winner", "enlarged")
    return _csv(fields, ([r[f] for f in fields] for r in result["rows"]))


def check_main_inequality(space, masses, mc_samples=100000, seed=0, threads=1):
    """Antipodal-cap separation on a sphere against the needle bound.

    The witness pair is two caps of masses (k1, k2) at opposite centers;
    their geodesic gap is ``pi - r1 - r2`` from the cap quantiles.  A Monte
    Carlo oracle re-estimates both cap masses from one set of uniform sphere
    samples (stream 0 of ``seed``); each estimate must agree with its
    closed-form mass within three standard errors.
    """
    return _check_main_inequalities([space], [masses], mc_samples, seed, threads)[0][0]


def _check_main_inequalities(spaces, mass_pairs, mc_samples, seed, threads):
    """:func:`check_main_inequality` for each of ``spaces`` at each of
    ``mass_pairs``, as one list of reports per space, each report equal to
    the one-pair call: one quantile call per space gives every cap radius,
    and both caps of every space and pair share the draws of stream 0, one
    :func:`sampling._mc_cap_masses` call, which draws each chunk once at the
    widest sphere's width."""
    for space in spaces:
        _check("space", space)
        if space.family != SPHERE or space.dim not in (2, 3):
            raise NotApplicable("the antipodal-cap witness is implemented for S^2, S^3")
    mps = [as_mass_pair(p) for p in mass_pairs]
    targets = np.array([[mp.k1, mp.k2] for mp in mps]).reshape(-1, 2)
    radii = [profile_quantile(catalog(space)[0], space, targets) for space in spaces]
    dims = [space.dim for space in spaces]
    ests = _mc_cap_masses(dims, radii, mc_samples, RngSpec(seed), 0, threads)
    return [
        _main_inequality_reports(n, mps, r, est, mc_samples)
        for n, r, est in zip(dims, radii, ests)
    ]


def _main_inequality_reports(n, mps, radii, est, mc_samples):
    """The S^n report of each of ``mps``, from its cap ``radii`` (pair x
    cap) and the Monte Carlo estimate ``est`` of each, of the same shape."""
    reports = []
    for i, mp in enumerate(mps):
        gap = max(0.0, math.pi - float(radii[i, 0]) - float(radii[i, 1]))
        bound = _sphere_bound(n, mp).bound
        mc = {}
        within = True
        for cap, (tag, target) in enumerate([("cap1", mp.k1), ("cap2", mp.k2)]):
            estimate = float(est["estimate"][i, cap])
            dev = abs(estimate - target)
            band = 3.0 * math.sqrt(target * (1.0 - target) / mc_samples)
            mc[tag] = {
                "radius": float(radii[i, cap]),
                "closed_form": target,
                "estimate": estimate,
                "stderr": float(est["stderr"][i, cap]),
                "within_3_sigma": bool(dev <= band),
            }
            within = within and dev <= band
        reports.append({
            "sep_estimate": gap,
            "bound": float(bound),
            "residual": float(abs(gap - bound)) if gap > 0 else float(bound),
            "ok": bool(gap <= bound + 1e-9),
            "mc": mc,
            "mc_within_3_sigma": bool(within),
        })
    return reports


def check_realization(space, candidate, masses):
    """Distance between a candidate pair at given masses vs the needle bound.

    The pair is the volume-k1 tube of ``candidate`` and the volume-k2 tube
    of its polar; their distance is ``diameter - Q(cand, k1) - Q(polar, k2)``.
    ``realizes`` records whether that distance matches the grid needle bound
    to 1e-8 (reported per case; no global claim).
    """
    _check("space", space)
    if space.family == SPHERE:
        raise NotApplicable("use check_main_inequality for spheres")
    mp = as_mass_pair(masses)
    polar = polar_of(candidate, space)
    q1 = float(profile_quantile(candidate, space, mp.k1))
    q2 = float(profile_quantile(polar, space, mp.k2))
    distance = space.diameter - q1 - q2
    bound = _cross_bounds(space, [mp])[0].bound
    realizes = bool(distance >= 0 and abs(distance - bound) < 1e-8)
    return {
        "distance": float(distance),
        "bound": float(bound),
        "realizes": realizes,
        "candidate": candidate.label,
        "polar": polar.label,
    }
