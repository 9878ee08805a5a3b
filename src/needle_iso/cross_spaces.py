"""Compact rank one symmetric spaces and their radial volume profiles.

Each space carries a catalog of radially symmetric candidate sets: the
intrinsic ball and the tubes around the standard chain of totally geodesic
submanifolds.  A candidate with exponents ``(a, b)`` has radial volume
density proportional to ``sin^a(t) cos^b(t)`` on ``[0, diameter]``; its
polar dual (the candidate seen from maximal distance) swaps the exponents.

Metric normalization: projective spaces and the Cayley plane are scaled to
diameter pi/2 (sectional curvature in [1, 4], constant 1 for the real
projective family); spheres have curvature 1 and diameter pi.
"""

import math
from dataclasses import dataclass

import numpy as np

from .densities import Interval, TrigDensity, normalize
from .errors import NotApplicable, OutOfDomain

HALF_PI = math.pi / 2.0

SPHERE = "sphere"
REAL_PROJECTIVE = "real-projective"
COMPLEX_PROJECTIVE = "complex-projective"
QUATERNIONIC_PROJECTIVE = "quaternionic-projective"
CAYLEY_PLANE = "cayley-plane"


@dataclass(frozen=True)
class Candidate:
    """A radially symmetric candidate set identified by its radial exponents."""

    label: str
    a: float  # sine exponent
    b: float  # cosine exponent
    polar_label: str

    @property
    def exponents(self):
        return (self.a, self.b)

    def to_dict(self):
        return {"label": self.label, "a": self.a, "b": self.b, "polar": self.polar_label}


@dataclass(frozen=True)
class CrossSpace:
    """Descriptor of a compact rank one symmetric space."""

    family: str
    index: int  # projective dimension over the base field; n for spheres
    dim: int  # real dimension
    diameter: float
    ball_exponents: tuple

    @classmethod
    def sphere(cls, n):
        if n < 2:
            raise OutOfDomain("spheres require n >= 2")
        return cls(SPHERE, n, n, math.pi, (n - 1, 0))

    @classmethod
    def real_projective(cls, n):
        if n < 2:
            raise OutOfDomain("real projective spaces require n >= 2")
        return cls(REAL_PROJECTIVE, n, n, HALF_PI, (n - 1, 0))

    @classmethod
    def complex_projective(cls, n):
        if n < 1:
            raise OutOfDomain("complex projective spaces require n >= 1")
        return cls(COMPLEX_PROJECTIVE, n, 2 * n, HALF_PI, (2 * n - 1, 1))

    @classmethod
    def quaternionic_projective(cls, n):
        if n < 1:
            raise OutOfDomain("quaternionic projective spaces require n >= 1")
        return cls(QUATERNIONIC_PROJECTIVE, n, 4 * n, HALF_PI, (4 * n - 1, 3))

    @classmethod
    def cayley_plane(cls):
        return cls(CAYLEY_PLANE, 2, 16, HALF_PI, (15, 7))

    @property
    def name(self):
        short = {
            SPHERE: "s",
            REAL_PROJECTIVE: "rp",
            COMPLEX_PROJECTIVE: "cp",
            QUATERNIONIC_PROJECTIVE: "hp",
            CAYLEY_PLANE: "cap",
        }[self.family]
        return f"{short}{self.index}"


_SPACE_PATTERNS = {
    "s": CrossSpace.sphere,
    "rp": CrossSpace.real_projective,
    "cp": CrossSpace.complex_projective,
    "hp": CrossSpace.quaternionic_projective,
}


def space_by_name(name):
    """Parse names like ``s2``, ``rp3``, ``cp2``, ``hp1``, ``cap2``."""
    name = name.strip().lower()
    if name == "cap2":
        return CrossSpace.cayley_plane()
    for prefix, ctor in sorted(_SPACE_PATTERNS.items(), key=lambda kv: -len(kv[0])):
        if name.startswith(prefix) and name[len(prefix):].isdigit():
            return ctor(int(name[len(prefix):]))
    raise OutOfDomain(f"unknown space name: {name!r}")


def catalog(space):
    """Ball plus tubes around the standard totally geodesic chain.

    Exponent rules for tubes around the codimension chain (1 <= j <= n-1):
    RP^n > RP^j -> (n-j-1, j); CP^n > CP^j -> (2(n-j)-1, 2j+1);
    HP^n > HP^j -> (4(n-j)-1, 4j+3); CaP^2 > CaP^1 -> (7, 15).  Spheres have
    only the ball.  Labels of polar duals follow the (a, b) -> (b, a) swap.
    """
    fam, n = space.family, space.index
    entries = []
    if fam == SPHERE:
        entries.append(("ball", space.ball_exponents, "ball"))
    elif fam == REAL_PROJECTIVE:
        entries.append(("ball", (n - 1, 0), f"tube around RP^{n-1}"))
        for j in range(1, n):
            polar = "ball" if n - j - 1 == 0 else f"tube around RP^{n-j-1}"
            entries.append((f"tube around RP^{j}", (n - j - 1, j), polar))
    elif fam == COMPLEX_PROJECTIVE:
        entries.append(("ball", (2 * n - 1, 1), "ball" if n == 1 else f"tube around CP^{n-1}"))
        for j in range(1, n):
            polar = "ball" if n - j - 1 == 0 else f"tube around CP^{n-j-1}"
            entries.append((f"tube around CP^{j}", (2 * (n - j) - 1, 2 * j + 1), polar))
    elif fam == QUATERNIONIC_PROJECTIVE:
        entries.append(("ball", (4 * n - 1, 3), "ball" if n == 1 else f"tube around HP^{n-1}"))
        for j in range(1, n):
            polar = "ball" if n - j - 1 == 0 else f"tube around HP^{n-j-1}"
            entries.append((f"tube around HP^{j}", (4 * (n - j) - 1, 4 * j + 3), polar))
    elif fam == CAYLEY_PLANE:
        entries.append(("ball", (15, 7), "tube around CaP^1"))
        entries.append(("tube around CaP^1", (7, 15), "ball"))
    else:  # pragma: no cover
        raise NotApplicable(f"unknown family {fam!r}")
    return [Candidate(label, float(a), float(b), polar) for label, (a, b), polar in entries]


def radial_density(candidate, space):
    """The normalized radial profile sin^a cos^b on [0, diameter]."""
    return normalize(
        TrigDensity(
            m=candidate.b, k=candidate.a, interval=Interval(0.0, space.diameter)
        )
    )


def profile_cdf(candidate, space, r):
    """Fraction of the space's volume within distance ``r`` of the core."""
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < -1e-12) or np.any(r_arr > space.diameter + 1e-12):
        raise OutOfDomain(f"radius outside [0, {space.diameter:.6g}]")
    return radial_density(candidate, space).cdf(np.clip(r_arr, 0.0, space.diameter))


def profile_quantile(candidate, space, v):
    """Radius at which the candidate encloses volume fraction ``v``."""
    return radial_density(candidate, space).quantile(v)


def enlarged_volume(candidate, space, v, epsilon):
    """Volume fraction of the epsilon-enlargement of the volume-v candidate.

    The epsilon-neighborhood of the radius-r tube is the radius-(r+epsilon)
    tube, so the enlargement saturates at the diameter.  An array ``v`` takes
    one quantile and one CDF call; a scalar ``v`` gives a float.
    """
    if not (0.0 < epsilon < math.inf):
        raise OutOfDomain(f"epsilon must be positive and finite, got {epsilon}")
    density = radial_density(candidate, space)
    return density.cdf(np.minimum(density.quantile(v) + epsilon, space.diameter))


def polar_of(candidate, space):
    """The catalog candidate with swapped exponents (t -> diameter - t)."""
    if space.family == SPHERE:
        raise NotApplicable("polar duality is defined for diameter pi/2 spaces only")
    swapped = (candidate.b, candidate.a)
    for other in catalog(space):
        if other.exponents == swapped:
            return other
    raise NotApplicable(
        f"no catalog polar for exponents {candidate.exponents} in {space.name}"
    )


def catalog_to_dict(space):
    return {
        "space": space.name,
        "dim": space.dim,
        "diameter": space.diameter,
        "candidates": [c.to_dict() for c in catalog(space)],
    }
