import math

import numpy as np
import pytest

from needle_iso import (
    Interval,
    OutOfDomain,
    QuadratureError,
    SinAffineDensity,
    TrigDensity,
    binomial_decompose,
    integrate,
    normalize,
)


def _two_call_integrate(f, a, b, atol):
    """The adaptive rule written with one integrand call per rule and panel:
    a 10-point then a 21-point Gauss-Legendre panel, each on its own nodes.
    Kept as the reference ``integrate`` must agree with, bit for bit."""

    def panel(a, b, order):
        x, w = np.polynomial.legendre.leggauss(order)
        half = 0.5 * (b - a)
        return half * float(np.dot(w, f(0.5 * (a + b) + half * x)))

    if a == b:
        return 0.0
    if b < a:
        return -_two_call_integrate(f, b, a, atol)
    stack = [(float(a), float(b), float(atol))]
    total = 0.0
    panels = 0
    while stack:
        a0, b0, tol0 = stack.pop()
        coarse = panel(a0, b0, 10)
        fine = panel(a0, b0, 21)
        if abs(fine - coarse) <= max(tol0, 1e-16 * abs(fine)) or (b0 - a0) < 1e-14:
            total += fine
            continue
        panels += 1
        if panels > 4000:
            raise QuadratureError("failed to reach atol")
        mid = 0.5 * (a0 + b0)
        stack.append((a0, mid, 0.5 * tol0))
        stack.append((mid, b0, 0.5 * tol0))
    return total


def _counted(f):
    """``f`` and the list its calls append to."""
    calls = []

    def wrapper(t):
        calls.append(t.size)
        return f(t)

    return wrapper, calls


def _trig(m, k, lo, hi):
    return normalize(TrigDensity(m=m, k=k, interval=Interval(lo, hi))).pdf


def _binomial_term():
    # the cos^1 sin^3 term of a sin^4-affine needle, with its coefficient
    needle = SinAffineDensity(phase=1.2, power=4.0, interval=Interval(0.1, 2.5))
    ((coef, (m, k)),) = [c for c in binomial_decompose(needle).components if c[1] == (1.0, 3.0)]
    return lambda t: coef * np.cos(t) ** m * np.sin(t) ** k


_CASES = {
    "cos2_sin3": (_trig(2.0, 3.0, 0.0, math.pi / 2), 0.0, math.pi / 2, 1e-13),
    "cos0.5_sin7.5": (_trig(0.5, 7.5, 0.2, 1.4), 0.2, 1.4, 1e-13),
    "cos15_sin7": (_trig(15.0, 7.0, 0.0, math.pi / 2), 0.0, 0.9, 1e-12),
    "binomial_term": (_binomial_term(), 0.1, 2.5, 1e-13),
    "reversed": (_trig(3.0, 1.0, 0.0, math.pi / 2), 1.2, 0.3, 1e-13),
    "sqrt_kink": (lambda t: np.sqrt(np.abs(t - 1.0 / 3.0)), 0.0, 1.0, 1e-14),
}


class TestOneCallPerPanel:
    @pytest.mark.parametrize("case", sorted(_CASES))
    def test_matches_the_two_call_rule_bit_for_bit(self, case):
        f, a, b, atol = _CASES[case]
        one, one_calls = _counted(f)
        two, two_calls = _counted(f)
        assert integrate(one, a, b, atol=atol) == _two_call_integrate(two, a, b, atol)
        # one call on all 31 nodes where the reference makes a 10- and a 21-node call
        assert one_calls == [31] * (len(two_calls) // 2)
        assert two_calls == [10, 21] * len(one_calls)

    def test_the_kink_forces_deep_splits(self):
        f, a, b, atol = _CASES["sqrt_kink"]
        counted, calls = _counted(f)
        integrate(counted, a, b, atol=atol)
        assert len(calls) > 100

    def test_split_limit_still_raises(self):
        # about 16,000 periods need more than the 4000 panel splits allowed
        def f(t):
            return np.sin(1e4 * t)

        with pytest.raises(QuadratureError):
            _two_call_integrate(f, 0.0, 10.0, 1e-13)
        with pytest.raises(QuadratureError, match="after 4000 panel splits"):
            integrate(f, 0.0, 10.0, atol=1e-13)


class TestInputRule:
    @staticmethod
    def _never_called(t):
        raise AssertionError("a panel ran")

    @pytest.mark.parametrize(
        "a,b",
        [(0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0), (0.0, math.nan), ("0", "1"), ("0", 1.0),
         (True, 1.0), (None, 1.0), (np.array([0.0]), 1.0), (0.0, np.float64(math.inf))],
    )
    def test_bounds_must_be_finite_ints_or_floats(self, a, b):
        # (0, inf) used to warn from numpy, then spin 4000 splits; strings read as numbers
        with pytest.raises(OutOfDomain):
            integrate(self._never_called, a, b)

    @pytest.mark.parametrize("atol", [0.0, -1e-12, math.nan, math.inf, "1e-12", True, None])
    def test_atol_must_be_finite_and_above_zero(self, atol):
        # NaN and 0.0 used to spin 4000 splits before raising QuadratureError
        with pytest.raises(OutOfDomain, match="atol"):
            integrate(self._never_called, 0.0, 1.0, atol=atol)

    def test_ints_and_numpy_scalars_are_bounds(self):
        f, _, b, atol = _CASES["cos2_sin3"]
        assert integrate(f, 0, np.float64(b), atol=np.float64(atol)) == integrate(f, 0.0, b, atol=atol)
        assert integrate(f, np.int64(1), 1) == 0.0

    @pytest.mark.parametrize(
        "f",
        [lambda t: 1.0, lambda t: np.ones(3), lambda t: np.ones((31, 1)), lambda t: None,
         lambda t: np.full(t.shape, "1"), lambda t: t > 0.5, lambda t: t + 0j, lambda t: [t, t]],
        ids=["scalar", "short", "column", "none", "strings", "bools", "complex", "two-rows"],
    )
    def test_integrand_must_return_ints_or_floats_shaped_like_its_argument(self, f):
        # the scalar once raised a bare TypeError and the short array a bare ValueError
        counted, calls = _counted(f)
        with pytest.raises(OutOfDomain, match="integrand"):
            integrate(counted, 0.0, 1.0)
        assert calls == [31]

    def test_int_and_list_results_pass(self):
        assert integrate(lambda t: np.ones(t.shape, dtype=int), 0.0, 2.0) == integrate(np.ones_like, 0.0, 2.0)
        assert integrate(lambda t: list(2.0 * t), 0.0, 1.0) == integrate(lambda t: 2.0 * t, 0.0, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_panel_raises_at_once(self, bad):
        # a NaN integrand once ran 4000 panel splits before its QuadratureError
        counted, calls = _counted(lambda t: np.where(t > 0.7, bad, t))
        with pytest.raises(QuadratureError, match="not finite"):
            integrate(counted, 0.0, 1.0)
        assert calls == [31]
