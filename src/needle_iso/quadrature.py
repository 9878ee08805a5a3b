"""Adaptive Gauss-Legendre quadrature for smooth integrands on closed intervals.

This is the generic integration engine of the package.  Trigonometric
monomial masses also have closed forms via the incomplete beta function
(see :mod:`needle_iso.densities`); this module is the independent route used
for arbitrary integrands and for cross-checking the closed forms.  One
integrand call per panel serves both rules: ``f`` is evaluated once on the
10-point and the 21-point nodes together, and each rule reads its slice.
"""

import functools
import math

import numpy as np

from .errors import OutOfDomain, QuadratureError, _check

_MAX_PANELS = 4000


@functools.cache
def _rule():
    """The 10-point then the 21-point Gauss-Legendre nodes on [-1, 1] as one
    array, and the weights of each rule."""
    x10, w10 = np.polynomial.legendre.leggauss(10)
    x21, w21 = np.polynomial.legendre.leggauss(21)
    return np.concatenate([x10, x21]), w10, w21


def integrate(f, a, b, atol=1e-12):
    """Integrate ``f`` over ``[a, b]`` to absolute tolerance ``atol``.

    ``f`` must accept numpy arrays and act elementwise.  Panels are bisected
    until the difference between a 10-point and a 21-point Gauss-Legendre
    rule falls under the panel's share of the tolerance; the recursion
    grades the mesh automatically near endpoint singularities of the
    derivatives.  Raises ``OutOfDomain``, before any panel, for an ``f``
    that is not callable, for a bound that breaks the ``angle`` kind (a
    finite int or float; a bool, a string or an array is not a bound) and
    for an ``atol`` that breaks the ``epsilon`` kind (a finite int or float
    above 0), and at the first
    panel for an ``f`` whose result is not an array of ints or floats shaped
    like its argument; raises :class:`QuadratureError` at a panel whose
    nodes overflow (bounds near the float limit) or whose rule sum is not
    finite (a NaN or an infinity at a node), and after 4000 panel splits.
    """
    _check("callable", f, "integrand")
    lo, hi = _check("angle", a, "lower bound"), _check("angle", b, "upper bound")
    tol = _check("epsilon", atol, "atol")
    if lo == hi:
        return 0.0
    if hi < lo:
        return -integrate(f, hi, lo, atol=tol)
    x, w10, w21 = _rule()
    stack = [(lo, hi, tol)]
    total = 0.0
    panels = 0
    checked = False
    while stack:
        a0, b0, tol0 = stack.pop()
        half, mid = 0.5 * (b0 - a0), 0.5 * (a0 + b0)
        if not math.isfinite(mid + half):
            raise QuadratureError(f"the nodes of [{a0!r}, {b0!r}] overflow")
        fx = f(mid + half * x)
        # the first panel's values must be ints or floats shaped like the nodes
        if not checked and (got := _check("reals", fx, "integrand values").shape) != x.shape:
            raise OutOfDomain(f"the integrand must return an array shaped like its argument, {x.shape}, got {got}")
        checked = True
        coarse = half * float(np.dot(w10, fx[:10]))
        fine = half * float(np.dot(w21, fx[10:]))
        if not (math.isfinite(coarse) and math.isfinite(fine)):
            raise QuadratureError(f"the integrand is not finite at a node of [{a0!r}, {b0!r}]")
        if abs(fine - coarse) <= max(tol0, 1e-16 * abs(fine)) or (b0 - a0) < 1e-14:
            total += fine
            continue
        panels += 1
        if panels > _MAX_PANELS:
            raise QuadratureError(f"failed to reach atol={atol} after {_MAX_PANELS} panel splits")
        stack.append((a0, mid, 0.5 * tol0))
        stack.append((mid, b0, 0.5 * tol0))
    return total
