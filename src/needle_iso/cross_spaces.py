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

# family -> (name prefix, symbol, s, least index, plural): s = 1, 2, 4, 8 is
# the real dimension of the field K, so KP^n has real dimension s n
_FAMILIES = {
    SPHERE: ("s", "S", 1, 2, "spheres"),
    REAL_PROJECTIVE: ("rp", "RP", 1, 2, "real projective spaces"),
    COMPLEX_PROJECTIVE: ("cp", "CP", 2, 1, "complex projective spaces"),
    QUATERNIONIC_PROJECTIVE: ("hp", "HP", 4, 1, "quaternionic projective spaces"),
    CAYLEY_PLANE: ("cap", "CaP", 8, 2, "Cayley planes"),  # CaP^2 only
}


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
    def _of(cls, family, n):
        _, _, s, least, plural = _FAMILIES[family]
        if n < least:
            raise OutOfDomain(f"{plural} require n >= {least}")
        return cls(family, n, s * n, math.pi if family == SPHERE else HALF_PI, (s * n - 1, s - 1))

    @classmethod
    def sphere(cls, n):
        return cls._of(SPHERE, n)

    @classmethod
    def real_projective(cls, n):
        return cls._of(REAL_PROJECTIVE, n)

    @classmethod
    def complex_projective(cls, n):
        return cls._of(COMPLEX_PROJECTIVE, n)

    @classmethod
    def quaternionic_projective(cls, n):
        return cls._of(QUATERNIONIC_PROJECTIVE, n)

    @classmethod
    def cayley_plane(cls):
        return cls._of(CAYLEY_PLANE, 2)

    @property
    def name(self):
        return f"{_FAMILIES[self.family][0]}{self.index}"


def space_by_name(name):
    """Parse names like ``s2``, ``rp3``, ``cp2``, ``hp1``, ``cap2``."""
    name = name.strip().lower()
    prefix = name.rstrip("0123456789")
    digits = name[len(prefix):]
    for family, row in _FAMILIES.items():
        if row[0] == prefix and digits and (family != CAYLEY_PLANE or digits == "2"):
            return CrossSpace._of(family, int(digits))
    raise OutOfDomain(f"unknown space name: {name!r}")


def catalog(space):
    """Ball plus tubes around the standard totally geodesic chain.

    Candidate ``j = 0..n-1`` of KP^n is the ball (j = 0) or the tube around
    KP^j, with exponents ``(s(n-j)-1, s(j+1)-1)``; its polar dual is
    candidate ``n-1-j``, with the exponents swapped.  The rule covers RP^n,
    CP^n, HP^n and CaP^2 (ball (15, 7), tube around CaP^1 (7, 15)).  Spheres
    have only the ball.
    """
    _, symbol, s, _, _ = _FAMILIES[space.family]
    n = space.index
    if space.family == SPHERE:
        a, b = space.ball_exponents
        return [Candidate("ball", float(a), float(b), "ball")]

    def label(j):
        return "ball" if j == 0 else f"tube around {symbol}^{j}"

    return [
        Candidate(label(j), float(s * (n - j) - 1), float(s * (j + 1) - 1), label(n - 1 - j))
        for j in range(n)
    ]


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
