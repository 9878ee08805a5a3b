"""Semantic exception hierarchy shared across the library, and its input
policy: one table, ``_KINDS``, from each parameter kind to its rule, its
error type and its message, which :func:`_check` applies to an argument."""

import math
import sys

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


_REALS = (int, float, np.integer, np.floating)


def _real_scalar(value):
    """``value`` as a Python float: an int or a float (Python or numpy, not
    a bool, not an array), else TypeError."""
    if type(value) is float:
        return value
    if isinstance(value, bool) or not isinstance(value, _REALS):
        raise TypeError
    return float(value)


def _real_array(value):
    """``value`` as a float64 array: ints or floats (Python or numpy, any
    shape; numeric dtype kinds ``i``, ``u`` and ``f``), else TypeError, or
    ValueError for a ragged sequence -- so a bool, a string, None or an
    object array is never read as a number, nor is a sequence holding one
    (numpy reads ``[True, 1]`` as ints)."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "iuf" or arr.ndim and not isinstance(value, np.ndarray) and _holds_bool(value):
        raise TypeError
    return arr.astype(float, copy=False)


def _holds_bool(seq):
    """Whether a sequence (nested or not) holds a bool: a Python or numpy
    bool, or a bool array."""
    items = np.asarray(seq, dtype=object).flat
    return any(isinstance(x, bool) or getattr(x, "dtype", None) == bool for x in items)


def _require_count(value):
    """``value`` as an int: an integer (Python or numpy, not a bool, not an
    integer-valued float), else TypeError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError
    return int(value)


def _integer(value):
    """``value`` as an int: an int or a finite integer-valued float (Python
    or numpy, not a bool), else TypeError or ValueError."""
    x = _real_scalar(value)
    if not x.is_integer():  # nor is an infinity or NaN
        raise ValueError
    return int(x)


def _instance(module, name):
    """A read passing an instance of the library class ``module.name`` as
    it is, else TypeError.  The class is looked up on each read: every
    module imports this one before it defines its classes."""
    module = f"{__package__}.{module}"

    def read(value):
        if not isinstance(value, getattr(sys.modules[module], name)):
            raise TypeError
        return value

    return read


def _any(x):
    return True


# kind -> (read, test, error, rule, message).  ``read`` takes the argument
# as the library uses it, raising TypeError or ValueError for one it cannot
# read; ``test`` says whether that value keeps the rule, given the ``bound``
# the caller names for some kinds (a least value, an interval, a diameter
# or a shape).  An argument the row cannot read raises OutOfDomain, one
# that fails the test the row's error; both carry the row's message, by
# default "{name} must be {rule}, got {value!r}", formatted with the name,
# the value and the bound.  An "int or float" is Python's or numpy's, never
# a bool, a string, None or an array; "ints or floats" are an array of
# them, never ragged or holding a bool.
_MASS = "mass must be in (0,1], got {name}={value!r}"
_KINDS = {
    "real": (_real_scalar, _any, OutOfDomain, "an int or a float", None),
    "reals": (_real_array, _any, OutOfDomain, "ints or floats", None),
    "angle": (_real_scalar, math.isfinite, OutOfDomain, "a finite int or float", None),
    "exponent": (_real_scalar, lambda x: 0.0 <= x < math.inf, OutOfDomain, "a finite, nonnegative int or float", None),
    "order": (_real_scalar, lambda x: 0.0 < x < math.inf and 1.0 / x < math.inf, InvalidOrder,
              "a finite, positive int or float with a finite reciprocal", None),
    "epsilon": (_real_scalar, lambda x: 0.0 < x < math.inf, OutOfDomain, "a positive, finite int or float", None),
    "norm": (lambda x: x if x is None else _real_scalar(x), lambda x: x is None or 0.0 < x < math.inf, OutOfDomain,
             "None or a positive, finite int or float", None),
    "length": (_real_scalar, lambda x, least: x >= least, OutOfDomain, "an int or a float >= {bound}", None),
    "mass": (_real_scalar, lambda x: 0.0 < x <= 1.0, InvalidMass, "an int or a float in (0, 1]", _MASS),
    "masses": (_real_array, lambda x: bool(np.all((x > 0.0) & (x <= 1.0))), InvalidMass,
               "ints or floats in (0, 1]", _MASS),
    "volume": (_real_scalar, lambda x: 0.0 < x < 1.0, OutOfDomain, "an int or a float in (0, 1)", None),
    "fractions": (_real_array, lambda x: bool(np.all((x >= -1e-12) & (x <= 1.0 + 1e-12))), OutOfDomain,
                  "ints or floats in [0, 1] to 1e-12", None),
    "volume grid": (_real_array, lambda x: x.ndim == 1 and x.size > 0 and bool(np.all((x > 0.0) & (x <= 0.5 + 1e-12))),
                    OutOfDomain, "a nonempty 1-D sequence of ints or floats in (0, 1/2] to 1e-12", None),
    "abscissae": (_real_array, lambda x, iv: bool(np.all((x >= iv.lo - 1e-9) & (x <= iv.hi + 1e-9))),
                  OutOfDomain, "ints or floats in [{bound.lo}, {bound.hi}] to 1e-9", None),
    "radii": (_real_array, lambda x, diameter: bool(np.all((x >= -1e-12) & (x <= diameter + 1e-12))), OutOfDomain,
              "ints or floats in [0, {bound}] to 1e-12", None),
    "samples": (_real_array, lambda x, shape: x.shape == shape and bool(np.isfinite(x).all()), OutOfDomain,
                "finite ints or floats, one per grid point", None),
    "powers": (lambda x: _real_array(sorted(x)), lambda x: x.ndim == 1 and x.size > 0, OutOfDomain,
               "a nonempty flat sequence of ints or floats", None),
    "count": (_require_count, lambda x, least: x >= least, OutOfDomain, "an integer >= {bound}", None),
    "integer": (_integer, _any, OutOfDomain, "an int or an integer-valued float", None),
    "dimension": (_integer, lambda x: x >= 2, OutOfDomain, "an int or an integer-valued float >= 2", None),
    "integer text": (int, _any, OutOfDomain, "an integer", None),
    "mass pair": (tuple, lambda x: len(x) == 2, OutOfDomain, "a MassPair or a pair (k1, k2)", None),
    "mass pairs": (list, _any, OutOfDomain, "an iterable of mass pairs", None),
    "space name": (str.strip, _any, OutOfDomain, "a string", None),
    "space": (_instance("cross_spaces", "CrossSpace"), _any, OutOfDomain,
              "a CrossSpace (parse names with space_by_name)", None),
    "candidate": (_instance("cross_spaces", "Candidate"), _any, OutOfDomain, "a Candidate",
                  "expected a Candidate, got {value!r}; take candidates from catalog"),
    "interval": (_instance("densities", "Interval"), _any, OutOfDomain, "an Interval", None),
    "density": (_instance("densities", "_DensityBase"), _any, OutOfDomain,
                "a TrigDensity, SinAffineDensity or TabulatedDensity", None),
    "callable": (lambda f: f, callable, OutOfDomain, "a callable", None),
}


def _check(kind, value, name=None, bound=None):
    """``value`` by the rule of ``kind`` in ``_KINDS``, as the library uses
    it (a float, a float64 array, an int, or the value itself), against
    the ``bound`` the kind names if any: one the row cannot read raises
    OutOfDomain, one outside its rule the row's error, each with the row's
    message naming ``name`` (default: the kind)."""
    read, test, error, rule, message = _KINDS[kind]
    try:
        x = read(value)
    except (TypeError, ValueError):
        error = OutOfDomain
    else:
        if test(x) if bound is None else test(x, bound):
            return x
    message = message or "{name} must be " + rule + ", got {value!r}"
    raise error(message.format(name=name or kind, value=value, bound=bound))


def _broadcast(name, *arrays):
    """``arrays`` broadcast against each other, else OutOfDomain: the one
    shape rule tying array parameters together."""
    try:
        return np.broadcast_arrays(*arrays)
    except ValueError:
        raise OutOfDomain(f"{name} must broadcast together, got shapes {[np.shape(a) for a in arrays]}") from None
