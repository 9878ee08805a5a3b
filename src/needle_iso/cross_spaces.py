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

import functools
import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .densities import (
    HALF_PI,
    Interval,
    TrigDensity,
    _checked_fold,
    _fold,
    _needle_cdf,
    _needle_quantile,
    _take,
    _trig_pdf,
    normalize,
)
from .errors import NotApplicable, OutOfDomain, _check

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
    """A radially symmetric candidate set identified by its radial
    exponents, each an exponent (a finite int or float >= 0) stored as
    given."""

    label: str
    a: float  # sine exponent
    b: float  # cosine exponent
    polar_label: str

    def __post_init__(self):
        _check("exponent", self.a, "a")
        _check("exponent", self.b, "b")

    @property
    def exponents(self):
        return (self.a, self.b)

    def to_dict(self):
        return {"label": self.label, "a": self.a, "b": self.b, "polar": self.polar_label}


@dataclass(frozen=True)
class CrossSpace:
    """A compact rank one symmetric space, fixed by its family (a key of
    ``_FAMILIES``) and its index, from which its real dimension ``s n`` and
    its diameter (pi for spheres, pi/2 otherwise) follow."""

    family: str
    index: int  # projective dimension over the base field; n for spheres
    dim: int = field(init=False)  # real dimension
    diameter: float = field(init=False)

    def __post_init__(self):
        if not isinstance(self.family, str) or self.family not in _FAMILIES:
            raise OutOfDomain(f"family must be one of {', '.join(_FAMILIES)}, got {self.family!r}")
        _, _, s, least, plural = _FAMILIES[self.family]
        n = _check("integer", self.index, "n")
        if n < least or self.family == CAYLEY_PLANE and n != least:
            raise OutOfDomain(f"{plural} require n {'=' if self.family == CAYLEY_PLANE else '>='} {least}, got {n}")
        object.__setattr__(self, "index", n)
        object.__setattr__(self, "dim", s * n)
        object.__setattr__(self, "diameter", math.pi if self.family == SPHERE else HALF_PI)

    @classmethod
    def sphere(cls, n):
        return cls(SPHERE, n)

    @classmethod
    def real_projective(cls, n):
        return cls(REAL_PROJECTIVE, n)

    @classmethod
    def complex_projective(cls, n):
        return cls(COMPLEX_PROJECTIVE, n)

    @classmethod
    def quaternionic_projective(cls, n):
        return cls(QUATERNIONIC_PROJECTIVE, n)

    @classmethod
    def cayley_plane(cls):
        return cls(CAYLEY_PLANE, 2)

    @property
    def name(self):
        return f"{_FAMILIES[self.family][0]}{self.index}"


def space_by_name(name):
    """Parse names like ``s2``, ``rp3``, ``cp2``, ``hp1``, ``cap2``."""
    name = _check("space name", name).lower()
    prefix = name.rstrip("0123456789")
    digits = name[len(prefix):]
    for family, row in _FAMILIES.items():
        if row[0] == prefix and digits:
            return CrossSpace(family, int(digits))
    raise OutOfDomain(f"unknown space name: {name!r}")


def catalog(space):
    """Ball plus tubes around the standard totally geodesic chain.

    Candidate ``j = 0..n-1`` of KP^n is the ball (j = 0) or the tube around
    KP^j, with exponents ``(s(n-j)-1, s(j+1)-1)``; its polar dual is
    candidate ``n-1-j``, with the exponents swapped.  The rule covers RP^n,
    CP^n, HP^n and CaP^2 (ball (15, 7), tube around CaP^1 (7, 15)), and
    S^n takes its row ``j = 0``, the ball.  A ``space`` that is not a
    :class:`CrossSpace` raises OutOfDomain; so, through this, does every
    entry point that reads the space's catalog record.
    """
    _check("space", space)
    _, symbol, s, _, _ = _FAMILIES[space.family]
    n = space.index
    rows = 1 if space.family == SPHERE else n

    def label(j):
        return "ball" if j == 0 else f"tube around {symbol}^{j}"

    return [
        Candidate(label(j), float(s * (n - j) - 1), float(s * (j + 1) - 1), label(rows - 1 - j))
        for j in range(rows)
    ]


# What every profile reads of a space: the catalog, its needle record and each row.
_Record = namedtuple("_Record", "candidates needle rows")


def _record(space):
    """The space's catalog record, built once and read-only: one ``_fold`` of
    all candidates' ``(b, a)`` on ``[0, diameter]``, whose (candidate x 1)
    fields broadcast against a row of volumes, and each candidate's row.
    An unhashable ``space`` (a list, a dict) raises OutOfDomain, not the
    cache's TypeError."""
    try:
        return _cached_record(space)
    except TypeError:
        _check("space", space)
        raise


@functools.lru_cache(maxsize=32)
def _cached_record(space):
    cands = tuple(catalog(space))
    needle = _fold(*_exponent_columns(cands), 0.0, space.diameter)
    return _Record(cands, needle, {c: _take(needle, (i, 0)) for i, c in enumerate(cands)})


def _exponent_columns(cands):
    """The cosine and sine exponents ``(b, a)`` as (candidate x 1) columns."""
    return np.array([[c.b] for c in cands]), np.array([[c.a] for c in cands])


def _row(candidate, space):
    """The candidate's needle record: its row of the space's catalog record,
    or, for a candidate outside the catalog, its own checked fold; anything
    that is not a :class:`Candidate` raises OutOfDomain."""
    _check("candidate", candidate)
    row = _record(space).rows.get(candidate)
    if row is None:
        return _checked_fold(candidate.b, candidate.a, 0.0, space.diameter)
    return row


def radial_density(candidate, space):
    """A fresh normalized radial profile sin^a cos^b on [0, diameter]."""
    _check("space", space)
    _check("candidate", candidate)
    return normalize(TrigDensity(m=candidate.b, k=candidate.a, interval=Interval(0.0, space.diameter)))


def profile_cdf(candidate, space, r):
    """Fraction of the space's volume within distance ``r`` of the core;
    exactly 0 at ``r = 0`` and exactly 1 at the diameter."""
    _check("space", space)
    out = _needle_cdf(_row(candidate, space), _check("radii", r, "radius", bound=space.diameter))
    return out if out.shape else float(out)


def profile_quantile(candidate, space, v):
    """Radius enclosing volume fraction ``v``: exactly 0 at 0, the diameter at 1."""
    out = _needle_quantile(_row(candidate, space), _check("fractions", v, "mass fractions"))
    return out if out.shape else float(out)


def _enlarge(needle, v, epsilon):
    """``F(min(Q(v) + epsilon, hi))`` for every needle row at once,
    broadcast between the needle's fields and ``v``: one quantile and one
    CDF pass.  Returns it with the radii ``Q(v)`` and ``min(Q(v) + epsilon,
    hi)``."""
    t = _needle_quantile(needle, v)
    r = np.minimum(t + epsilon, needle.hi)
    return _needle_cdf(needle, r), t, r


def enlarged_volume(candidate, space, v, epsilon):
    """Volume fraction of the epsilon-enlargement of the volume-v candidate.

    The epsilon-neighborhood of the radius-r tube is the radius-(r+epsilon)
    tube, so the enlargement saturates at the diameter, where it is exactly
    1.  One quantile and one CDF pass over the candidate's row of the
    space's catalog record; the values have the bits of that row in the
    batched catalog pass of ``solve`` and ``profile``.  A scalar ``v``
    gives a float.
    """
    epsilon = _check("epsilon", epsilon)
    out = _enlarge(_row(candidate, space), _check("fractions", v, "mass fractions"), epsilon)[0]
    return out if out.shape else float(out)


def _catalog_enlarged(space, v, epsilon):
    """Every catalog candidate's :func:`enlarged_volume` at ``v`` from one
    pass over the space's catalog record: the candidates, and their values
    as a (candidate x ``v``) array of shape ``(len(catalog),) + shape(v)``."""
    epsilon = _check("epsilon", epsilon)
    return _catalog_table(space, _check("fractions", v, "mass fractions"), epsilon)


def _catalog_table(space, v, epsilon):
    """The body of :func:`_catalog_enlarged` for a float64 array ``v`` and a
    float ``epsilon`` already checked; ``space`` is checked only when its
    record is built."""
    rec = _record(space)
    out = _enlarge(rec.needle, v.reshape(1, -1), epsilon)[0]
    return rec.candidates, out.reshape((-1,) + v.shape)


def _enlarged_difference(space, i, j, epsilon):
    """``f(v) -> (E_i(v) - E_j(v), E_i'(v) - E_j'(v))`` for catalog rows ``i``
    and ``j``, each call one pass over the two rows.  The slope of an
    enlargement is ``f_c(r) / f_c(Q_c(v))``, ``r = min(Q_c(v) + epsilon,
    diameter)``, with ``f_c`` the radial density (its normalization
    cancels), and 0 once the enlargement saturates."""
    rec = _record(space)
    needle = _take(rec.needle, [i, j])
    cosine, sine = _exponent_columns([rec.candidates[i], rec.candidates[j]])

    def diff(v):
        e, t, r = _enlarge(needle, v, epsilon)
        ratio = _trig_pdf(cosine, sine, r, 1.0) / _trig_pdf(cosine, sine, t, 1.0)
        s = np.where(r >= space.diameter, 0.0, ratio)
        return float(e[0, 0] - e[1, 0]), float(s[0, 0] - s[1, 0])

    return diff


def polar_of(candidate, space):
    """The catalog candidate with swapped exponents (t -> diameter - t)."""
    _check("space", space)
    _check("candidate", candidate)
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
    cands = catalog(space)
    return {
        "space": space.name,
        "dim": space.dim,
        "diameter": space.diameter,
        "candidates": [c.to_dict() for c in cands],
    }
