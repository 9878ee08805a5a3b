"""40-digit mpmath references shared by the tests: the enlarged volume of a
catalog candidate and the crossover of two candidates' enlarged volumes.

A test-side helper, not part of the library: it adds no public name and no
import cost to ``needle_iso``.
"""

import mpmath


def _mp_enlarged(cand, v, eps):
    """40-digit enlarged volume on a diameter-pi/2 space: the radial CDF is
    the regularized incomplete beta ``I(sin^2 t; (a+1)/2, (b+1)/2)``, and
    the radius of volume v its bracketed root."""
    half_pi = mpmath.pi / 2

    def cdf(t):
        return mpmath.betainc((cand.a + 1) / 2, (cand.b + 1) / 2, 0, mpmath.sin(t) ** 2, regularized=True)

    t = mpmath.findroot(lambda t: cdf(t) - v, (mpmath.mpf(0), half_pi), solver="anderson")
    return cdf(min(t + eps, half_pi))


def _mp_crossover(c_from, c_to, eps, v_low, v_high):
    """The volume in ``[v_low, v_high]`` where the two candidates' enlarged
    volumes cross, as a 40-digit root."""
    with mpmath.workdps(40):
        return mpmath.findroot(
            lambda v: _mp_enlarged(c_from, v, eps) - _mp_enlarged(c_to, v, eps),
            (mpmath.mpf(v_low), mpmath.mpf(v_high)),
            solver="anderson",
        )
