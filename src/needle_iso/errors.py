"""Semantic exception hierarchy shared across the library, and the one
check of a count argument, of a real scalar argument and of a real array
argument."""

import numpy as np


class NeedleIsoError(ValueError):
    """Base class for all domain errors raised by this package."""


class ZeroMass(NeedleIsoError):
    """A density integrates to (numerically) zero and cannot be normalized."""


class OutOfDomain(NeedleIsoError):
    """An abscissa, mass fraction or interval lies outside the valid domain."""


class InvalidOrder(NeedleIsoError):
    """Concavity order must be strictly positive."""


class InvalidMass(NeedleIsoError):
    """Mass thresholds must lie in (0, 1]."""


class NonIntegerPower(NeedleIsoError):
    """Binomial decomposition requires an integer power."""


class HypothesisViolated(NeedleIsoError):
    """A mass pair does not straddle 1/2 as the needle bounds require."""


class PreconditionFailed(NeedleIsoError):
    """A verified precondition (concavity, location of maximum) does not hold."""


class NotApplicable(NeedleIsoError):
    """The requested operation is undefined for this space family."""


class QuadratureError(NeedleIsoError):
    """Adaptive quadrature failed to reach the requested tolerance."""


def _require_count(value, name, least):
    """Raise OutOfDomain unless ``value`` is an integer (Python or numpy, not
    a bool, not an integer-valued float) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise OutOfDomain(f"{name} must be an integer >= {least}, got {value!r}")


def _real_scalar(value, name):
    """``value`` as a Python float: an int or a float (Python or numpy,
    not a bool, not an array), else OutOfDomain."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise OutOfDomain(f"{name} must be an int or a float, got {value!r}")
    return float(value)


def _real_array(value, name):
    """``value`` as a float64 array: ints or floats (Python or numpy, any
    shape; numeric dtype kinds ``i``, ``u`` and ``f``), else OutOfDomain --
    so a bool, a string, None, a ragged sequence or an object array is never
    read as a number."""
    try:
        arr = np.asarray(value)
    except ValueError:  # a ragged sequence
        raise OutOfDomain(f"{name} must be ints or floats, got {value!r}") from None
    if arr.dtype.kind not in "iuf":
        raise OutOfDomain(f"{name} must be ints or floats, got dtype {arr.dtype}")
    return arr.astype(float, copy=False)
