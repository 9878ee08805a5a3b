"""Property-suite driver: every module-level invariant behind one runner.

``run_property_suite`` executes a named set of seeded checks and returns a
machine-readable report.  Reports are byte-stable: identical
``RngSpec`` inputs give identical reports regardless of thread count,
because every randomized check derives its draws from fixed substreams of
the base seed (never from the schedule).

Two checks (``needle.cross_dominance``, ``needle.component_bound``) and one
leg of ``density.order_reduction`` encode claimed properties of the
quarter-period comparison family that this package's own oracles refute;
they are kept faithful to the configured claims and report the violations
they find.  See README "Findings".
"""

import functools
import json
import math

import numpy as np

from . import quadrature
from .concavity import MARGIN_TOL, _binomial_rows, _product_margin
from .cross_spaces import (
    CrossSpace,
    _enlarge,
    _record,
    _row,
    catalog,
    enlarged_volume,
    polar_of,
    profile_cdf,
    profile_quantile,
)
from .densities import (
    HALF_PI,
    _checked_fold,
    _frame,
    _needle_cdf,
    _needle_quantile,
    _require_mass,
    _trig_pdf,
)
from .errors import OutOfDomain, _check
from .needle_bound import (
    _sphere_needle,
    batch_affine_sep,
    batch_trig_sep,
    cross_needle_bounds,
)
from .sampling import _affine_draws, as_rng_spec
# sep_1d stays bound here: the benchmark's tracer test checks that every
# module binding it sees one wrapper
from .separation import _extreme_gap, _needle_gaps, sep_1d  # noqa: F401
from .solver import (
    SolveRequest,
    _check_main_inequalities,
    check_main_inequality,
    check_realization,
    solve_isoperimetric,
    solve_with_complement_reduction,
)

_DOM_TOL = 1e-10


def _violations(margin, **columns):
    """The one violation rule of the dominance checks: how many entries of
    ``margin`` exceed ``_DOM_TOL``, and the record of the first largest --
    each column's entry there as a Python scalar, plus ``"margin"`` -- or
    None when none does."""
    count = int(np.count_nonzero(margin > _DOM_TOL))
    if not count:
        return count, None
    w = int(np.argmax(margin))
    return count, {**{name: col[w].item() for name, col in columns.items()}, "margin": margin[w].item()}


def _trig_draw(gen, max_exp=5, min_length=0.3, integer_only=True):
    """A random trig needle ``(m, k, lo, hi)`` on a random sub-interval of its
    fold's domain (of [0, 1] for the constant), at least ``min_length``
    long.  The exponents are Python ints, unless ``integer_only`` is false:
    then 30% of the draws add a real part to both."""
    m = int(gen.integers(0, max_exp + 1))
    k = int(gen.integers(0, max_exp + 1))
    if not integer_only and gen.uniform() < 0.3:
        m += float(gen.uniform(0, 1))
        k += float(gen.uniform(0, 1))
    _, shift, mirrored, flat = _frame(m, k)
    start, span = (0.0, 1.0) if flat else (-shift, HALF_PI * (1 + mirrored))
    length = gen.uniform(min_length, min(span, math.pi))
    lo = start + gen.uniform(0.0, span - length)
    return m, k, lo, lo + length


def _trig_rows(gen, count, masses, **draw):
    """``count`` needles of :func:`_trig_draw`, each followed by what
    ``masses(gen)`` draws for it, as the float columns ``m, k, lo, hi,
    *masses``."""
    return np.array([(*_trig_draw(gen, **draw), *masses(gen)) for _ in range(count)]).T


def _straddling_pair(gen, lo=0.05, hi=0.95):
    return float(gen.uniform(lo, 0.5)), float(gen.uniform(0.5, hi))


# ---------------------------------------------------------------------------
# density suite
# ---------------------------------------------------------------------------


def _check_normalization_cross_check(ctx):
    """8 trig needles, then 4 affine ones (one ``_affine_draws`` draw each,
    kept below the mass floor), as rows ``cos^m sin^k`` on ``[lo, hi]``
    moved back by ``offset``; quadrature weighs each normalized pdf."""
    gen = ctx.spec.generator(10)
    trig = _trig_rows(gen, 8, lambda gen: (), integer_only=False)
    draws = [_affine_draws(gen, 1, math.pi, range(1, 7), 1e-3) for _ in range(4)]
    length, power, phase = np.concatenate(draws, axis=1)
    rows = np.concatenate([[*trig, np.zeros(8)], [power, *np.zeros((2, 4)), length, phase]], axis=1)
    mass = _checked_fold(*rows).mass
    _require_mass(mass[:8])
    worst = 0.0
    for (m, k, lo, hi, offset), norm in zip(rows.T, 1.0 / mass):
        total = quadrature.integrate(lambda t: _trig_pdf(m, k, t - offset, norm), lo, hi, atol=1e-13)
        worst = max(worst, abs(total - 1.0))
    return {"passed": worst < 1e-10, "details": {"max_unit_mass_error": worst}}


def _trig_needles(gen, **draw):
    """8 :func:`_trig_draw` needles: the exponents as (needle x 1) columns
    ``m, k`` and the checked fold, above the mass floor."""
    m, k, lo, hi = _trig_rows(gen, 8, lambda gen: (), **draw)[..., None]
    needle = _checked_fold(m, k, lo, hi)
    _require_mass(needle.mass)
    return m, k, needle


def _check_quantile_cdf_round_trip(ctx):
    needle = _trig_needles(ctx.spec.generator(11), integer_only=False)[-1]
    q = np.linspace(0.0, 1.0, 1000)
    worst = float(np.max(np.abs(_needle_cdf(needle, _needle_quantile(needle, q)) - q)))
    return {"passed": worst < 1e-9, "details": {"max_round_trip_error": worst}}


def _check_cdf_monotone_lipschitz(ctx):
    m, k, needle = _trig_needles(ctx.spec.generator(12))
    t = np.linspace(needle.lo[:, 0], needle.hi[:, 0], 512, axis=1)
    df = np.diff(_needle_cdf(needle, t))
    # per-segment mass bounded by the local sup of the density; the 3-point
    # segment max under-reads the true sup by O(dt^2), hence the small
    # relative inflation
    norm = 1.0 / needle.mass
    ends = _trig_pdf(m, k, t, norm)
    mids = _trig_pdf(m, k, 0.5 * (t[:, :-1] + t[:, 1:]), norm)
    seg_peak = np.maximum(np.maximum(ends[:, :-1], ends[:, 1:]), mids)
    slack = np.max(np.abs(df) - seg_peak * np.diff(t) * (1 + 1e-6) - 1e-9, axis=1)
    ok = not (np.any(df < -1e-12) or np.any(slack > 0))
    return {"passed": ok, "details": {"max_lipschitz_slack": float(np.max(slack))}}


def _check_order_reduction(ctx):
    """Faithful check of the configured claim: passing at order c implies
    passing at every integer order below c.  The package's own oracles
    refute this (pure cosine powers pin their order from below), so this
    check honestly reports the violations it finds.  One call of the exact
    margin decides every (needle, order), so a violation narrower than a
    grid step counts."""
    gen = ctx.spec.generator(13)
    needles = [_trig_draw(gen, max_exp=4, min_length=0.6) for _ in range(100)]
    rows = [((m / n, k / n), lo, hi) for m, k, lo, hi in needles for n in range(1, m + k + 1)]
    weights, lo, hi = zip(*rows)
    margin, _ = _product_margin(weights, [(0.0, HALF_PI)], lo, hi)
    verdicts = iter(margin <= MARGIN_TOL)
    violations = 0
    example = None
    for m, k, lo, hi in needles:
        passing = [n for n in range(1, m + k + 1) if next(verdicts)]
        top = max(passing, default=0)
        missing = [s for s in range(1, top) if s not in passing]
        if missing:
            violations += 1
            if example is None:
                example = {
                    "m": m,
                    "k": k,
                    "lo": lo,
                    "hi": hi,
                    "passes_at": top,
                    "fails_at": missing[:3],
                }
    return {
        "passed": violations == 0,
        "details": {"violations": violations, "example": example},
    }


def _check_order_reduction_within_family_band(ctx):
    """Provable part of order reduction for trig monomials: every order in
    [max(m,k), m+k] passes on any valid interval, since there all three
    coefficients of ``h`` in sin^4, sin^2 cos^2 and cos^4 are nonpositive."""
    gen = ctx.spec.generator(14)
    rows = []
    for _ in range(40):
        m = int(gen.integers(1, 5))
        k = int(gen.integers(1, 5))
        length = gen.uniform(0.4, HALF_PI)
        lo = gen.uniform(0.0, HALF_PI - length)
        rows += [((m / n, k / n), lo, lo + length) for n in range(max(m, k), m + k + 1)]
    weights, lo, hi = zip(*rows)
    margin, _ = _product_margin(weights, [(0.0, HALF_PI)], lo, hi)
    failures = int(np.sum(margin > MARGIN_TOL))
    return {"passed": failures == 0, "details": {"failures": failures}}


def _check_product_closure(ctx):
    """A product of sin-concave needles is sin-concave at the summed order;
    each product is three shifted-cosine factors (an absent one has weight
    0), and one call of the exact margin decides all 60."""
    gen = ctx.spec.generator(15)
    rows = []
    for _ in range(60):
        length = gen.uniform(0.4, HALF_PI)
        lo = gen.uniform(0.0, HALF_PI - length)
        hi = lo + length
        p1 = int(gen.integers(1, 5))
        ph1 = gen.uniform(hi - HALF_PI, lo + HALF_PI)
        if gen.uniform() < 0.5:
            p2 = int(gen.integers(1, 5))
            powers, phases = (p1, p2, 0), (ph1, gen.uniform(hi - HALF_PI, lo + HALF_PI), 0.0)
        else:
            m2 = int(gen.integers(0, 3))
            k2 = int(gen.integers(0, 3))
            if m2 + k2 == 0:
                m2 = 1
            powers, phases = (p1, m2, k2), (ph1, 0.0, HALF_PI)
        rows.append((np.array(powers) / sum(powers), phases, lo, hi))
    margin, _ = _product_margin(*zip(*rows))
    failures = int(np.sum(margin > MARGIN_TOL))
    return {"passed": failures == 0, "details": {"failures": failures}}


def _check_binomial_reconstruction(ctx):
    """13 sin-affine needles ``cos^p(t - phase)``, ``p`` = 0 to 12, each on
    a random sub-interval of [0, pi/2] with its phase in [0, pi/2]
    (nonnegative coefficients), as rows: one checked fold normalizes them,
    and each expansion is checked against its normalized pdf pointwise and
    by the sum of its component masses."""
    gen = ctx.spec.generator(16)
    draws = []
    for p in range(0, 13):
        length = gen.uniform(0.5, HALF_PI)
        lo = gen.uniform(0.0, HALF_PI - length)
        draws.append((gen.uniform(0.0, HALF_PI), p, lo, lo + length))
    phase, power, lo, hi = np.array(draws).T
    mass = _checked_fold(power, 0.0, lo, hi, phase).mass
    _require_mass(mass)
    norm = 1.0 / mass
    worst_err = 0.0
    worst_mass = 0.0
    for dec, p, ph, scale in zip(_binomial_rows(phase, power, lo, hi, norm), power, phase, norm):
        worst_err = max(worst_err, dec.max_reconstruction_error(lambda t: _trig_pdf(p, 0.0, t - ph, scale)))
        worst_mass = max(worst_mass, abs(sum(dec.masses) - 1.0))
    return {
        "passed": worst_err < 1e-10 and worst_mass < 1e-9,
        "details": {
            "max_pointwise_error": worst_err,
            "max_mass_defect": worst_mass,
        },
    }


# ---------------------------------------------------------------------------
# separation suite
# ---------------------------------------------------------------------------


def _check_mass_swap_symmetry(ctx):
    gen = ctx.spec.generator(20)
    m, k, lo, hi, k1, k2 = _trig_rows(
        gen, 30, lambda gen: (gen.uniform(0.05, 0.95), gen.uniform(0.05, 0.95))
    )
    forward, backward = batch_trig_sep(m, k, lo, hi, [k1, k2], [k2, k1])
    return {"passed": bool(np.all(forward == backward)), "details": {}}


def _check_mass_monotonicity(ctx):
    gen = ctx.spec.generator(21)
    # axes: the needle, which mass runs along the grid (k1, then k2), the
    # other's fixed value (0.2, then 0.5), and the grid
    m, k, lo, hi = _trig_rows(gen, 6, lambda gen: ())[..., None, None, None]
    running, fixed = np.broadcast_arrays(np.linspace(0.05, 0.9, 12), [[0.2], [0.5]])
    seps = batch_trig_sep(m, k, lo, hi, [running, fixed], [fixed, running])
    return {"passed": not np.any(np.diff(seps) > 1e-12), "details": {}}


def _complementary_pair(gen):
    k1 = gen.uniform(0.1, 0.9)
    return k1, gen.uniform(1.0 - k1, 1.0)


def _check_complementary_masses_zero(ctx):
    gen = ctx.spec.generator(22)
    seps = batch_trig_sep(*_trig_rows(gen, 20, _complementary_pair))
    return {"passed": bool(np.all(seps == 0.0)), "details": {}}


def _check_bruteforce_agreement(ctx):
    """The exact seps of one batch call against the brute-force scan of each
    needle's normalized samples, one needle at a time (a block of all rows
    would hold every grid at once)."""
    gen = ctx.spec.generator(23)
    grid_size = 4096
    rows = _trig_rows(
        gen, 50, lambda gen: _straddling_pair(gen, lo=0.1, hi=0.9), max_exp=6, min_length=0.4
    )
    exact = batch_trig_sep(*rows)
    mass = _checked_fold(*rows[:4]).mass
    _require_mass(mass)
    worst = 0.0
    ok = True
    for (m, k, lo, hi, k1, k2), norm, sep in zip(rows.T, 1.0 / mass, exact):
        t = np.linspace(lo, hi, grid_size + 1)
        brute = _extreme_gap(t, _trig_pdf(m, k, t, norm), k1, k2)
        tol = 2.0 * (hi - lo) / grid_size
        err = abs(float(sep) - brute)
        worst = max(worst, err - tol)
        if err > tol:
            ok = False
    return {"passed": ok, "details": {"worst_excess_over_tolerance": worst}}


def _check_reflection_invariance(ctx):
    gen = ctx.spec.generator(24)
    rows = []  # (length, power, phase, k1, k2) per needle on [0, length], in draw order
    for _ in range(30):
        draws = _affine_draws(gen, 1, math.pi, range(1, 6), 1e-3)
        rows.append(np.concatenate([*draws, gen.uniform(0.05, 0.95, 2)]))
    length, power, phase, k1, k2 = np.array(rows).T
    # row 0 the needles, row 1 their mirrors about the interval midpoint
    seps = batch_affine_sep(np.array([phase, length - phase]), power, 0.0, length, k1, k2)
    worst = float(np.max(np.abs(seps[0] - seps[1])))
    return {"passed": worst < 1e-9, "details": {"max_reflection_error": worst}}


# ---------------------------------------------------------------------------
# needle suite
# ---------------------------------------------------------------------------


def _check_sphere_dominance(ctx):
    gen = ctx.spec.generator(30)
    count = 1000
    details = {}
    violations = 0
    # sin^(n-1)-affine needles against the cos^(n-1) needle on the half
    # period, the sphere bound's cached record; higher powers are not
    # sin^(n-1)-concave and can beat the bound
    for n in (2, 3):
        lengths, powers, phases = _affine_draws(gen, count, math.pi, [n - 1], 0.05)
        k1 = gen.uniform(0.02, 0.5, count)
        k2 = gen.uniform(0.5, 1.0 - k1)  # k1 + k2 < 1: both sides separate
        needle_seps = batch_affine_sep(phases, powers, 0.0, lengths, k1, k2)
        bound_seps = _needle_gaps(_sphere_needle(n)[0], k1, k2)[2]
        margin = needle_seps - bound_seps
        violations += _violations(margin)[0]
        details[f"max_margin_n{n}"] = float(np.max(margin))
    return {
        "passed": violations == 0,
        "details": {"needles_per_dimension": count, "violations": violations, **details},
    }


def _check_cross_dominance(ctx):
    """Faithful check of the configured claim that the cos^m sin^k family on
    [0, pi/2] dominates every sin^p-affine needle of support <= pi/2.  The
    package's oracles refute the claim near k2 = 1/2; violations are
    reported honestly."""
    gen = ctx.spec.generator(31)
    space = CrossSpace.complex_projective(1)
    pool_k1 = gen.uniform(0.05, 0.5, 20)
    pool_k2 = gen.uniform(0.5, 1.0 - pool_k1)  # below 0.95, and k1 + k2 < 1
    bounds = np.array(
        [res.bound for res in cross_needle_bounds(space, zip(pool_k1, pool_k2), max_total_power=8)]
    )
    count = 1000
    lengths, powers, phases = _affine_draws(gen, count, HALF_PI, range(1, 9), 0.05)
    idx = gen.integers(0, 20, count)
    seps = batch_affine_sep(phases, powers, 0.0, lengths, pool_k1[idx], pool_k2[idx])
    violations, worst = _violations(
        seps - bounds[idx], phase=phases, power=powers, length=lengths,
        k1=pool_k1[idx], k2=pool_k2[idx], sep=seps, bound=bounds[idx],
    )
    return {
        "passed": violations == 0,
        "details": {"needles": count, "violations": violations, "worst": worst},
    }


def _check_component_bound(ctx):
    """Faithful check of the configured claim that an affine needle with
    nonnegative binomial coefficients separates no better than its best
    decomposition component; refuted by symmetric-peak needles, reported
    honestly."""
    gen = ctx.spec.generator(32)
    needles, components, starts = [], [], []
    for _ in range(100):
        length = float(gen.uniform(0.3, HALF_PI))
        power = int(gen.integers(1, 7))
        phase = float(gen.uniform(0.0, HALF_PI))
        k1, k2 = _straddling_pair(gen)
        needles.append((phase, power, length, k1, k2))
        starts.append(len(components))
        # cos^p(t - phase) expands into the monomials cos^(p - i) sin^i
        components += [(power - i, i, length, k1, k2) for i in range(power + 1)]
    # the needles in one batch and all components in another; a needle's
    # best is the max over its own run of components
    m, k, hi, k1, k2 = np.array(components).T
    best = np.maximum.reduceat(batch_trig_sep(m, k, 0.0, hi, k1, k2), starts)
    phase, power, length, k1, k2 = np.array(needles).T
    needle_seps = batch_affine_sep(phase, power, 0.0, length, k1, k2)
    violations, worst = _violations(
        needle_seps - best, phase=phase, power=power.astype(int), length=length,
        k1=k1, k2=k2, needle_sep=needle_seps, best_component_sep=best,
    )
    return {
        "passed": violations == 0,
        "details": {"violations": violations, "worst": worst},
    }


def _check_power_monotonicity_observation(ctx):
    """Numerical observation (logged, never asserted): per-(m,k) separation
    shrinks as m+k grows with the m/k ratio fixed."""
    bases = np.array([(1, 0), (0, 1), (1, 1), (2, 1)])
    scaled = bases[:, :, None] * np.arange(1, 6)  # (base, m or k, scale)
    seqs = batch_trig_sep(scaled[:, 0], scaled[:, 1], 0.0, HALF_PI, 0.3, 0.6)
    data = {f"{m}:{k}": seq for (m, k), seq in zip(bases.tolist(), seqs.tolist())}
    monotone = not np.any(np.diff(seqs, axis=1) > 1e-12)
    return {
        "passed": True,
        "details": {"observed_monotone": monotone, "sequences": data},
    }


def _check_sphere_bound_dimension_monotone(ctx):
    # the sphere bound of S^n, n = 2..10, at three straddling pairs: one row each
    k1, k2 = np.array([[0.2], [0.3], [0.5]]), np.array([[0.5], [0.7], [0.5]])
    seqs = batch_affine_sep(0.0, np.arange(1.0, 10.0), -HALF_PI, HALF_PI, k1, k2)
    return {"passed": not np.any(np.diff(seqs, axis=1) > 1e-12), "details": {}}


# ---------------------------------------------------------------------------
# spaces suite
# ---------------------------------------------------------------------------


def _suite_spaces():
    spaces = [CrossSpace.real_projective(n) for n in range(2, 9)]
    spaces += [CrossSpace.complex_projective(n) for n in range(1, 4)]
    spaces += [CrossSpace.quaternionic_projective(n) for n in range(1, 4)]
    spaces.append(CrossSpace.cayley_plane())
    return spaces


def _check_polar_duality_identity(ctx):
    """One CDF pass over each space's cached catalog record at ``r`` and
    ``pi/2 - r``; a candidate's polar row is taken by its catalog index."""
    worst = 0.0
    r = np.linspace(0.0, HALF_PI, 257)
    for space in _suite_spaces():
        rec = _record(space)
        polar = [rec.candidates.index(polar_of(c, space)) for c in rec.candidates]
        near, far = _needle_cdf(rec.needle, np.array([r, HALF_PI - r])[:, None])
        worst = max(worst, float(np.max(np.abs(near + far[polar] - 1.0))))
    return {"passed": worst < _DOM_TOL, "details": {"max_duality_error": worst}}


def _check_low_dim_sphere_coincidence(ctx):
    r = np.linspace(0.0, HALF_PI, 1000)
    cp1 = CrossSpace.complex_projective(1)
    err_cp1 = np.max(
        np.abs(profile_cdf(catalog(cp1)[0], cp1, r) - 0.5 * (1.0 - np.cos(2 * r)))
    )
    hp1 = CrossSpace.quaternionic_projective(1)
    c = np.cos(2 * r)
    s4_cap = (2.0 - 3.0 * c + c**3) / 4.0
    err_hp1 = np.max(np.abs(profile_cdf(catalog(hp1)[0], hp1, r) - s4_cap))
    cap2 = CrossSpace.cayley_plane()
    ball, tube = catalog(cap2)
    err_cap = np.max(
        np.abs(
            profile_cdf(tube, cap2, r) + profile_cdf(ball, cap2, HALF_PI - r) - 1.0
        )
    )
    worst = float(max(err_cp1, err_hp1, err_cap))
    return {
        "passed": worst < 1e-9,
        "details": {
            "cp1_vs_s2": float(err_cp1),
            "hp1_vs_s4": float(err_hp1),
            "cap1_complement_consistency": float(err_cap),
        },
    }


def _check_exponent_admissibility(ctx):
    ok = True
    for space in _suite_spaces() + [CrossSpace.sphere(n) for n in (2, 3, 7)]:
        for cand in catalog(space):
            if cand.a + cand.b < space.dim - 1:
                ok = False
    return {"passed": ok, "details": {}}


def _check_profile_monotone_inverse(ctx):
    """One CDF pass over each space's cached catalog record on a radius grid,
    and one quantile pass on a volume grid that its CDF must invert."""
    worst = 0.0
    ok = True
    v = np.linspace(0.0, 1.0, 201)
    for space in _suite_spaces()[:6] + [CrossSpace.sphere(3)]:
        needle = _record(space).needle
        f = _needle_cdf(needle, np.linspace(0.0, space.diameter, 201))
        df = np.diff(f)
        # strict increase wherever the increments are representable
        interior = (f[:, :-1] > 1e-9) & (f[:, 1:] < 1 - 1e-9)
        ok = ok and not (np.any(df < 0) or np.any(df[interior] <= 0))
        worst = max(worst, float(np.max(np.abs(_needle_cdf(needle, _needle_quantile(needle, v)) - v))))
    return {
        "passed": ok and worst < 1e-9,
        "details": {"max_inverse_error": worst},
    }


# ---------------------------------------------------------------------------
# solver suite
# ---------------------------------------------------------------------------


def _solver_spaces():
    return [
        CrossSpace.sphere(2),
        CrossSpace.real_projective(3),
        CrossSpace.complex_projective(2),
        CrossSpace.quaternionic_projective(2),
        CrossSpace.cayley_plane(),
    ]


def _check_winner_in_catalog(ctx):
    ok = True
    for space in _solver_spaces():
        labels = {c.label for c in catalog(space)}
        for v in (0.1, 0.3, 0.5):
            for eps in (0.05, 0.2):
                res = solve_isoperimetric(SolveRequest(space, v, eps))
                if res.winner.label not in labels or not res.co_winners:
                    ok = False
    return {"passed": ok, "details": {}}


def _polar_enlarged(cand, space, v, eps):
    """Volume of the eps-enlargement of the volume-v candidate, from its
    polar's own profile: the enlargement's complement is the polar tube of
    radius ``Q_polar(1 - v) - eps``."""
    p = polar_of(cand, space)
    return 1.0 - profile_cdf(p, space, max(profile_quantile(p, space, 1.0 - v) - eps, 0.0))


def _check_complement_reduction_duality(ctx):
    ok = True
    worst = 0.0
    for space in [CrossSpace.real_projective(3), CrossSpace.complex_projective(2)]:
        for v in (0.55, 0.7):
            eps = 0.05
            res = solve_with_complement_reduction(space, v, eps)
            direct = min(_polar_enlarged(c, space, v, eps) for c in catalog(space))
            worst = max(worst, abs(res.enlarged - direct))
            if abs(res.enlarged - direct) > 1e-10:
                ok = False
            dual = solve_isoperimetric(SolveRequest(space, 1.0 - res.enlarged, eps))
            polar_labels = {polar_of(c, space).label for c in res.co_winners}
            if not polar_labels & {c.label for c in dual.co_winners}:
                ok = False
    return {"passed": ok, "details": {"max_direct_gap": worst}}


def _check_enlargement_monotonicity(ctx):
    ok = True
    eps_grid = np.linspace(0.02, 0.3, 8)
    for space in [CrossSpace.real_projective(3), CrossSpace.complex_projective(2)]:
        for cand in catalog(space):
            # the epsilon sweep in one pass: the bits of enlarged_volume at each epsilon
            vals = _enlarge(_row(cand, space), 0.3, eps_grid)[0]
            if np.any(np.diff(vals) <= 1e-12):
                ok = False
            vals = enlarged_volume(cand, space, np.linspace(0.05, 0.45, 8), 0.05)
            if np.any(np.diff(vals) <= 1e-12):
                ok = False
    return {"passed": ok, "details": {}}


def _check_needle_bound_consistency(ctx):
    ok = True
    worst_sphere = 0.0
    realized = 0
    skipped = 0
    for n in (2, 3, 7):
        space = CrossSpace.sphere(n)
        for v in (0.1, 0.3, 0.5):
            res = solve_isoperimetric(SolveRequest(space, v, 0.1))
            check = res.needle_bound_check
            worst_sphere = max(worst_sphere, check["residual"])
            if check["residual"] >= 1e-6:
                ok = False
    for space in [CrossSpace.real_projective(3), CrossSpace.complex_projective(2)]:
        for v in (0.2, 0.4):
            res = solve_isoperimetric(SolveRequest(space, v, 0.05))
            check = res.needle_bound_check
            real = check_realization(space, res.winner, (v, check["w"]))
            if real["realizes"]:
                realized += 1
                if check["residual"] >= 1e-6:
                    ok = False
            else:
                skipped += 1
    return {
        "passed": ok,
        "details": {
            "max_sphere_residual": worst_sphere,
            "cross_realized": realized,
            "cross_not_realized": skipped,
        },
    }


# the mass pairs of the sphere Monte Carlo checks
_MC_PAIRS = ((0.3, 0.5), (0.25, 0.5))


def _check_request_determinism(ctx):
    """Each request solved twice gives the same JSON, and the public S^2
    call at (0.3, 0.5), drawing each chunk of stream 0 at its own width for
    both caps, reports what the shared S^2 + S^3 batch of ``ctx`` does for
    that pair from its own draws of stream 0 at the S^3 width on
    ``ctx.threads`` threads.  The public call runs on one thread, or on two
    when ``ctx.threads`` is 1, so the two sides never share a thread count."""
    reqs = [
        (CrossSpace.real_projective(3), 0.3, 0.05),
        (CrossSpace.sphere(2), 0.25, 0.2),
    ]
    ok = True
    for space, v, eps in reqs:
        a = json.dumps(solve_isoperimetric(SolveRequest(space, v, eps)).to_dict(), sort_keys=True)
        b = json.dumps(solve_isoperimetric(SolveRequest(space, v, eps)).to_dict(), sort_keys=True)
        if a != b:
            ok = False
    one = check_main_inequality(
        CrossSpace.sphere(2), _MC_PAIRS[0], mc_samples=ctx.mc_samples, seed=ctx.spec.seed,
        threads=2 if ctx.threads == 1 else 1,
    )
    if json.dumps(one, sort_keys=True) != json.dumps(ctx.sphere_caps[2][0], sort_keys=True):
        ok = False
    return {"passed": ok, "details": {}}


def _check_main_inequality_mc(ctx):
    ok = True
    results = {}
    for n, reps in ctx.sphere_caps.items():
        for mp, rep in zip(_MC_PAIRS, reps):
            key = f"s{n}_{mp[0]}_{mp[1]}"
            results[key] = {
                "sep": rep["sep_estimate"],
                "bound": rep["bound"],
                "ok": rep["ok"],
                "mc_ok": rep["mc_within_3_sigma"],
            }
            if not (rep["ok"] and rep["mc_within_3_sigma"]):
                ok = False
            if abs(rep["sep_estimate"] - rep["bound"]) > 1e-9:
                ok = False
    return {"passed": ok, "details": results}


# ---------------------------------------------------------------------------
# registry, coverage manifest, runner
# ---------------------------------------------------------------------------


class _Ctx:
    """One suite run's inputs, and what its checks share within that run."""

    def __init__(self, spec, threads, mc_samples):
        self.spec = spec
        self.threads = threads
        self.mc_samples = mc_samples

    @functools.cached_property
    def sphere_caps(self):
        """``{2: reports, 3: reports}``: the antipodal-cap reports of S^2 and
        S^3 at each of ``_MC_PAIRS``, from one batch on first read, which
        draws every chunk of stream 0 once for both caps of both spheres."""
        spheres = [CrossSpace.sphere(2), CrossSpace.sphere(3)]
        reports = _check_main_inequalities(spheres, _MC_PAIRS, self.mc_samples, self.spec.seed, self.threads)
        return dict(zip((2, 3), reports))


# check name -> check; a check's suite is the prefix of its name
_CHECKS = {
    "density.normalization_cross_check": _check_normalization_cross_check,
    "density.quantile_cdf_round_trip": _check_quantile_cdf_round_trip,
    "density.cdf_monotone_lipschitz": _check_cdf_monotone_lipschitz,
    "density.order_reduction": _check_order_reduction,
    "density.order_reduction_within_family_band": _check_order_reduction_within_family_band,
    "density.product_closure": _check_product_closure,
    "density.binomial_reconstruction": _check_binomial_reconstruction,
    "separation.mass_swap_symmetry": _check_mass_swap_symmetry,
    "separation.mass_monotonicity": _check_mass_monotonicity,
    "separation.complementary_masses_zero": _check_complementary_masses_zero,
    "separation.bruteforce_agreement": _check_bruteforce_agreement,
    "separation.reflection_invariance": _check_reflection_invariance,
    "needle.sphere_dominance": _check_sphere_dominance,
    "needle.cross_dominance": _check_cross_dominance,
    "needle.component_bound": _check_component_bound,
    "needle.power_monotonicity_observation": _check_power_monotonicity_observation,
    "needle.sphere_bound_dimension_monotone": _check_sphere_bound_dimension_monotone,
    "spaces.polar_duality_identity": _check_polar_duality_identity,
    "spaces.low_dim_sphere_coincidence": _check_low_dim_sphere_coincidence,
    "spaces.exponent_admissibility": _check_exponent_admissibility,
    "spaces.profile_monotone_inverse": _check_profile_monotone_inverse,
    "solver.winner_in_catalog": _check_winner_in_catalog,
    "solver.complement_reduction_duality": _check_complement_reduction_duality,
    "solver.enlargement_monotonicity": _check_enlargement_monotonicity,
    "solver.needle_bound_consistency": _check_needle_bound_consistency,
    "solver.request_determinism": _check_request_determinism,
    "solver.main_inequality_mc": _check_main_inequality_mc,
}

SUITE_NAMES = ("density", "separation", "needle", "spaces", "solver", "all")


def suite_check_names(suite):
    if suite not in SUITE_NAMES:
        raise OutOfDomain(f"unknown suite {suite!r}; choose from {SUITE_NAMES}")
    return [name for name in _CHECKS if suite == "all" or name.split(".")[0] == suite]


def run_property_suite(suite, rng, threads=1, mc_samples=100000):
    """Run a named invariant suite; the report is byte-stable per seed.

    The report never contains wall-clock data or the thread count, so runs
    with different parallelism compare equal byte-for-byte.  ``rng`` is an
    ``RngSpec`` or a seed; a seed that is not an integer >= 0 (Python or
    numpy, not a bool), and a ``threads`` or ``mc_samples`` that is not an
    integer >= 1, raise ``OutOfDomain``.
    """
    threads = _check("count", threads, "threads", bound=1)
    mc_samples = _check("count", mc_samples, "mc_samples", bound=1)
    spec = as_rng_spec(rng)
    ctx = _Ctx(spec, threads, mc_samples)
    checks = []
    for name in suite_check_names(suite):
        out = _CHECKS[name](ctx)
        checks.append({"name": name, "passed": bool(out["passed"]), "details": out["details"]})
    failures = [c["name"] for c in checks if not c["passed"]]
    return {
        "suite": suite,
        "seed": spec.seed,
        "algorithm": spec.algorithm,
        "mc_samples": mc_samples,
        "checks": checks,
        "pass_count": len(checks) - len(failures),
        "fail_count": len(failures),
        "failures": failures,
    }


def report_to_json(report):
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
