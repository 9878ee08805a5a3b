"""Candidate-comparison isoperimetry on the catalog spaces.

Given a volume fraction ``v`` and an enlargement radius ``epsilon``, every
catalog candidate is realized at volume ``v`` and enlarged by ``epsilon``;
the winner minimizes the enlarged volume.  Volumes above one half are
handled through the complementary problem: the optimal set is the
complement of an enlarged polar candidate, mirroring the symmetry of the
separation distance.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import quadrature
from .cross_spaces import (
    SPHERE,
    catalog,
    enlarged_volume,
    polar_of,
    profile_quantile,
)
from .errors import NotApplicable, OutOfDomain
from .needle_bound import cross_needle_bound, sphere_needle_bound
from .sampling import RngSpec, mc_cap_mass
from .separation import MassPair, as_mass_pair

_TIE_TOL = 1e-10
_MASS_FLOOR = 1e-12


@dataclass(frozen=True)
class SolveRequest:
    space: object
    v: float
    epsilon: float

    def __post_init__(self):
        if not (0.0 < self.v < 1.0):
            raise OutOfDomain(f"volume fraction must be in (0,1), got {self.v}")
        if not (0.0 < self.epsilon < math.inf):
            raise OutOfDomain(f"epsilon must be positive and finite, got {self.epsilon}")


@dataclass(frozen=True)
class SolveResult:
    space: object
    v: float
    epsilon: float
    winner: object
    co_winners: tuple
    enlarged: float
    per_candidate: tuple  # ((candidate, enlarged volume), ...)
    needle_bound_check: dict
    complement_reduction: dict | None = None

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
            "check": self.needle_bound_check,
        }
        if self.complement_reduction is not None:
            rec["complement_reduction"] = self.complement_reduction
        return rec


def _needle_check(space, v, w, epsilon):
    """Needle bound at masses (v, w) compared against epsilon."""
    if w <= _MASS_FLOOR:
        return {"w": float(w), "bound": None, "residual": None, "note": "saturated"}
    masses = MassPair(min(v, 1.0), min(w, 1.0))
    if space.family == SPHERE:
        res = sphere_needle_bound(space.dim, masses, force=True)
    else:
        res = cross_needle_bound(space, masses, force=True)
    return {
        "w": float(w),
        "bound": float(res.bound),
        "residual": float(abs(res.bound - epsilon)),
        "hypothesis_satisfied": res.hypothesis_satisfied,
    }


def _solve(req):
    """The candidate table at ``req.v``: one :func:`enlarged_volume` call per
    candidate, the least value, its co-winners within 1e-10, and the needle
    check at the complement mass of the winner's enlargement."""
    rows = tuple((c, enlarged_volume(c, req.space, req.v, req.epsilon)) for c in catalog(req.space))
    best = min(e for _, e in rows)
    co = tuple(c for c, e in rows if e <= best + _TIE_TOL)
    return SolveResult(
        space=req.space,
        v=req.v,
        epsilon=req.epsilon,
        winner=co[0],
        co_winners=co,
        enlarged=float(best),
        per_candidate=rows,
        needle_bound_check=_needle_check(req.space, req.v, 1.0 - best, req.epsilon),
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
    res = _solve(SolveRequest(space=space, v=v, epsilon=epsilon))
    if v <= 0.5:
        return res
    try:
        polar_label = polar_of(res.winner, space).label
    except NotApplicable:
        polar_label = res.winner.label
    w = 1.0 - res.enlarged
    return replace(res, complement_reduction={
        "applied": True,
        "w": float(w),
        "construction": (
            f"complement of the {epsilon}-enlargement of '{polar_label}' "
            f"at volume {w:.12g}"
        ),
    })


def _bisect(f, a, b, tol):
    """Bisect ``[a, b]``, across which ``f`` goes from ``<= 0`` to ``> 0``,
    down to width ``tol``; returns the midpoint of the last bracket."""
    while b - a > tol:
        mid = 0.5 * (a + b)
        if f(mid) <= 0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def _quadrature_enlarged(cand, space, v, epsilon, atol):
    """Enlarged volume via adaptive quadrature only (no closed forms): the
    radius of volume ``v`` by bisection on the quadrature CDF."""
    a, b = cand.a, cand.b

    def raw(t):
        return np.sin(t) ** a * np.cos(t) ** b

    total = quadrature.integrate(raw, 0.0, space.diameter, atol=atol)

    def cdf(t):
        return quadrature.integrate(raw, 0.0, t, atol=atol) / total

    r = _bisect(lambda t: cdf(t) - v, 0.0, space.diameter, 1e-14)
    return cdf(min(r + epsilon, space.diameter))


def isoperimetric_profile_curve(space, epsilon, v_grid, quadrature_atol=None):
    """Winner and enlarged volume along a grid of volume fractions.

    Winner transitions between consecutive grid points are refined by
    bisection on the enlarged-volume difference to 1e-6 in v.  With
    ``quadrature_atol`` set, profile evaluations use the adaptive
    Gauss-Legendre route at that tolerance instead of the closed forms
    (slower; used by stability checks).
    """
    v_grid = sorted(float(v) for v in v_grid)
    if not v_grid or v_grid[0] <= 0 or v_grid[-1] > 0.5 + 1e-12:
        raise OutOfDomain("the volume grid must lie in (0, 1/2]")
    cands = catalog(space)

    if quadrature_atol is None:
        def enlarged(cand, v):
            return enlarged_volume(cand, space, v, epsilon)
    else:
        # the reference route finds one root per volume
        def enlarged(cand, v):
            return np.vectorize(
                lambda x: _quadrature_enlarged(cand, space, x, epsilon, quadrature_atol),
                otypes=[float],
            )(v)

    # (candidate x v) table; argmin keeps the first candidate on exact ties
    table = np.array([enlarged(c, np.array(v_grid)) for c in cands])
    best = np.argmin(table, axis=0)
    rows = [
        {"v": v, "winner": cands[i].label, "enlarged": float(table[i, j])}
        for j, (v, i) in enumerate(zip(v_grid, best))
    ]

    crossovers = []
    for j in np.flatnonzero(best[1:] != best[:-1]):
        c_from, c_to = cands[best[j]], cands[best[j + 1]]
        v0 = _bisect(
            lambda v: enlarged(c_from, v) - enlarged(c_to, v), v_grid[j], v_grid[j + 1], 1e-6
        )
        crossovers.append(
            {
                "v_low": v_grid[j],
                "v_high": v_grid[j + 1],
                "v0": v0,
                "from": c_from.label,
                "to": c_to.label,
            }
        )
    return {"rows": rows, "crossovers": crossovers}


def profile_curve_csv(result):
    """CSV emission with the stable header ``v,winner,enlarged``."""
    lines = ["v,winner,enlarged"]
    for r in result["rows"]:
        lines.append(f"{r['v']!r},{r['winner']},{r['enlarged']!r}")
    return "\n".join(lines) + "\n"


def check_main_inequality(space, masses, mc_samples=100000, seed=0, threads=1):
    """Antipodal-cap separation on a sphere against the needle bound.

    The witness pair is two caps of masses (k1, k2) at opposite centers;
    their geodesic gap is ``pi - r1 - r2`` from the cap quantiles.  A Monte
    Carlo oracle re-estimates the cap masses from uniform sphere samples and
    must agree with the closed-form masses within three standard errors.
    """
    if space.family != SPHERE or space.dim not in (2, 3):
        raise NotApplicable("the antipodal-cap witness is implemented for S^2, S^3")
    mp = as_mass_pair(masses)
    n = space.dim
    ball = catalog(space)[0]
    r1, r2 = (float(r) for r in profile_quantile(ball, space, [mp.k1, mp.k2]))
    gap = max(0.0, math.pi - r1 - r2)
    bound = sphere_needle_bound(n, mp, force=True).bound
    ok = gap <= bound + 1e-9
    mc = {}
    within = True
    for stream, (tag, radius, target) in enumerate(
        [("cap1", r1, mp.k1), ("cap2", r2, mp.k2)]
    ):
        est = mc_cap_mass(n, radius, mc_samples, RngSpec(seed), stream=stream, threads=threads)
        dev = abs(est["estimate"] - target)
        band = 3.0 * math.sqrt(target * (1.0 - target) / mc_samples)
        mc[tag] = {
            "radius": radius,
            "closed_form": target,
            "estimate": est["estimate"],
            "stderr": est["stderr"],
            "within_3_sigma": bool(dev <= band),
        }
        within = within and dev <= band
    return {
        "sep_estimate": gap,
        "bound": float(bound),
        "residual": float(abs(gap - bound)) if gap > 0 else float(bound),
        "ok": bool(ok),
        "mc": mc,
        "mc_within_3_sigma": bool(within),
    }


def check_realization(space, candidate, masses):
    """Distance between a candidate pair at given masses vs the needle bound.

    The pair is the volume-k1 tube of ``candidate`` and the volume-k2 tube
    of its polar; their distance is ``diameter - Q(cand, k1) - Q(polar, k2)``.
    ``realizes`` records whether that distance matches the grid needle bound
    to 1e-8 (reported per case; no global claim).
    """
    if space.family == SPHERE:
        raise NotApplicable("use check_main_inequality for spheres")
    mp = as_mass_pair(masses)
    polar = polar_of(candidate, space)
    q1 = float(profile_quantile(candidate, space, mp.k1))
    q2 = float(profile_quantile(polar, space, mp.k2))
    distance = space.diameter - q1 - q2
    bound = cross_needle_bound(space, mp, force=True).bound
    realizes = bool(distance >= 0 and abs(distance - bound) < 1e-8)
    return {
        "distance": float(distance),
        "bound": float(bound),
        "realizes": realizes,
        "candidate": candidate.label,
        "polar": polar.label,
    }
