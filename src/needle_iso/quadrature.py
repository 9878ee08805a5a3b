"""Adaptive Gauss-Legendre quadrature for smooth integrands on closed intervals.

This is the generic integration engine of the package.  Trigonometric
monomial masses also have closed forms via the incomplete beta function
(see :mod:`needle_iso.densities`); this module is the independent route used
for arbitrary integrands and for cross-checking the closed forms.
"""

import numpy as np

from .errors import QuadratureError

_NODE_CACHE: dict = {}
_MAX_PANELS = 4000


def _nodes(order):
    if order not in _NODE_CACHE:
        _NODE_CACHE[order] = np.polynomial.legendre.leggauss(order)
    return _NODE_CACHE[order]


def _panel(f, a, b, order):
    x, w = _nodes(order)
    half = 0.5 * (b - a)
    return half * float(np.dot(w, f(0.5 * (a + b) + half * x)))


def integrate(f, a, b, atol=1e-12):
    """Integrate ``f`` over ``[a, b]`` to absolute tolerance ``atol``.

    ``f`` must accept numpy arrays.  Panels are bisected until the
    difference between a 10-point and a 21-point Gauss-Legendre rule falls
    under the panel's share of the tolerance; the recursion grades the mesh
    automatically near endpoint singularities of the derivatives.  Raises
    :class:`QuadratureError` after 4000 panel splits.
    """
    if a == b:
        return 0.0
    if b < a:
        return -integrate(f, b, a, atol=atol)
    stack = [(float(a), float(b), float(atol))]
    total = 0.0
    panels = 0
    while stack:
        a0, b0, tol0 = stack.pop()
        coarse = _panel(f, a0, b0, 10)
        fine = _panel(f, a0, b0, 21)
        if abs(fine - coarse) <= max(tol0, 1e-16 * abs(fine)) or (b0 - a0) < 1e-14:
            total += fine
            continue
        panels += 1
        if panels > _MAX_PANELS:
            raise QuadratureError(f"failed to reach atol={atol} after {_MAX_PANELS} panel splits")
        mid = 0.5 * (a0 + b0)
        stack.append((a0, mid, 0.5 * tol0))
        stack.append((mid, b0, 0.5 * tol0))
    return total
