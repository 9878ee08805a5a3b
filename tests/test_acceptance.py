"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every expected value is produced by an oracle that is independent of the
code path under test: hand-derived antiderivatives, brentq inversion of
closed forms, adaptive quadrature, 40-digit mpmath references,
grid-exhaustive search, or Monte Carlo sampling.  Run with
``pytest tests/test_acceptance.py -v -s``.

Criterion 4 checks a finding: the quarter-period trig family does not
dominate all admissible affine needles, and the needles that beat it have an
interior maximum (see README "Findings" and
demos/05_dominance_counterexample.py).
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import brentq

from needle_iso import (
    CrossSpace,
    Interval,
    SinAffineDensity,
    TrigDensity,
    batch_affine_sep,
    catalog,
    check_comparison_lemma,
    cross_needle_bound,
    is_sin_concave,
    isoperimetric_profile_curve,
    mc_cap_mass,
    normalize,
    profile_cdf,
    profile_quantile,
    RngSpec,
    sep_1d,
    sep_1d_bruteforce,
    solve_isoperimetric,
    SolveRequest,
    sphere_needle_bound,
)
from mp_reference import _mp_crossover

HALF_PI = math.pi / 2

# frozen after the first build; regression-checked below at 1e-6
RP3_CROSSOVER_V0 = 0.3952163696289063


def _criterion(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {status}: {detail}")
    return ok


def _sphere_cap_fraction(n):
    """Hand-derived normalized cap antiderivatives for n in {2, 3, 7}."""
    if n == 2:
        return lambda t: (1.0 - math.cos(t)) / 2.0
    if n == 3:
        return lambda t: (t - math.sin(t) * math.cos(t)) / math.pi
    if n == 7:
        total = 5.0 * math.pi / 16.0

        def raw(t):
            return (
                10.0 * t
                - 7.5 * math.sin(2 * t)
                + 1.5 * math.sin(4 * t)
                - math.sin(6 * t) / 6.0
            ) / 32.0

        return lambda t: raw(t) / total
    raise AssertionError(n)


def test_criterion_01_sphere_isoperimetry():
    worst = 0.0
    winners_ok = True
    for n in (2, 3, 7):
        space = CrossSpace.sphere(n)
        F = _sphere_cap_fraction(n)
        for v in np.linspace(0.05, 0.5, 10):
            for eps in np.linspace(0.02, 0.6, 10):
                res = solve_isoperimetric(SolveRequest(space, float(v), float(eps)))
                winners_ok &= res.winner.label == "ball"
                r = brentq(lambda t: F(t) - v, 1e-12, math.pi - 1e-12, xtol=1e-15)
                expect = F(min(r + eps, math.pi))
                worst = max(worst, abs(res.enlarged - expect))
    ok = winners_ok and worst < 1e-9
    assert _criterion(
        1, ok, f"ball wins on all sphere grids; max cap-value error {worst:.2e}"
    )


def test_criterion_02_antipodal_caps_realize_the_sphere_bound():
    s2 = CrossSpace.sphere(2)
    worst = 0.0
    for k1 in np.linspace(0.05, 0.5, 10):
        for k2 in np.linspace(0.5, 0.95, 10):
            r1 = math.acos(1 - 2 * k1)
            r2 = math.acos(1 - 2 * k2)
            gap = max(0.0, math.pi - r1 - r2)
            bound = sphere_needle_bound(2, (float(k1), float(k2))).bound
            worst = max(worst, abs(gap - bound))
    mc_ok = True
    ball = catalog(s2)[0]
    kappas = list(np.linspace(0.05, 0.5, 10)) + list(np.linspace(0.5, 0.95, 10))
    for i, kv in enumerate(kappas):
        radius = float(profile_quantile(ball, s2, float(kv)))
        est = mc_cap_mass(2, radius, 100000, RngSpec(42), stream=i)
        band = 3.0 * math.sqrt(kv * (1 - kv) / 100000)
        mc_ok &= abs(est["estimate"] - kv) <= band
    ok = worst < 1e-9 and mc_ok
    assert _criterion(
        2, ok, f"max |cap gap - bound| {worst:.2e}; Monte Carlo within 3 sigma: {mc_ok}"
    )


def _sample_needle_batch(seed, count, length_cap, p_lo, p_hi):
    gen = RngSpec(seed).generator()
    lengths = gen.uniform(0.05, length_cap, count)
    powers = gen.integers(p_lo, p_hi + 1, count).astype(float)
    phases = gen.uniform(lengths - HALF_PI, HALF_PI)
    k1 = gen.uniform(0.02, 0.5, count)
    # k2 < 1 - k1, so every pair has a positive separation to compare
    k2 = gen.uniform(0.5, 1.0 - k1)
    return phases, powers, lengths, k1, k2


def test_criterion_03_half_period_dominance():
    # sin^1-affine needles only: higher powers are not sin^1-concave, and the
    # n = 2 bound does not cover them (README "Findings")
    phases, powers, lengths, k1, k2 = _sample_needle_batch(1301, 1000, math.pi, 1, 1)
    needle_seps = batch_affine_sep(phases, powers, 0.0, lengths, k1, k2)
    bound_seps = batch_affine_sep(0.0, 1.0, -HALF_PI, HALF_PI, k1, k2)
    margins = needle_seps - bound_seps
    violations = int(np.count_nonzero(margins > 1e-10))
    ok = violations == 0
    assert _criterion(
        3,
        ok,
        f"1000 random affine needles vs half-period cosine bound: "
        f"{violations} violations (max margin {float(margins.max()):.2e})",
    )


def test_criterion_04_quarter_period_dominance():
    # Finding: the quarter-period family does not dominate.  Violators are
    # shifted cosines with an interior maximum on a near-full quarter-period
    # support at k2 near 1/2; the closed-form instance cos(t - pi/4) on
    # [0, pi/2] at (0.25, 0.5) separates 0.361367 > 0.324463.
    space = CrossSpace.complex_projective(1)
    phases, powers, lengths, k1, k2 = _sample_needle_batch(1404, 1000, HALF_PI, 1, 8)
    seps = batch_affine_sep(phases, powers, 0.0, lengths, k1, k2)
    bounds = np.array(
        [
            cross_needle_bound(space, (float(a), float(b)), max_total_power=8).bound
            for a, b in zip(k1, k2)
        ]
    )
    margins = seps - bounds
    bad = margins > 1e-10
    violations = int(np.count_nonzero(bad))
    interior = bool(np.all((phases[bad] > 0.0) & (phases[bad] < lengths[bad])))
    w = int(np.argmax(margins))
    # grid-exhaustive oracle on the worst violator, which under-reads by at
    # most two grid steps
    worst = normalize(
        SinAffineDensity(
            phase=float(phases[w]),
            power=float(powers[w]),
            interval=Interval(0.0, float(lengths[w])),
        )
    )
    grid_size = 4096
    brute = sep_1d_bruteforce(worst, (float(k1[w]), float(k2[w])), grid_size=grid_size)
    brute_ok = (
        abs(brute - seps[w]) <= 2.0 * lengths[w] / grid_size and brute > bounds[w] + 1e-3
    )
    detail = (
        f"1000 random affine needles vs cos^m sin^k grid (m+k <= 8): "
        f"{violations} violations, all with an interior maximum: {interior}; worst: "
        f"phase={phases[w]:.4f}, p={int(powers[w])}, length={lengths[w]:.4f}, "
        f"masses=({k1[w]:.3f},{k2[w]:.3f}), sep={seps[w]:.6f} (brute force "
        f"{brute:.6f}) vs bound={bounds[w]:.6f}"
    )
    ok = violations > 0 and interior and brute_ok
    assert _criterion(4, ok, detail), detail


def _concave_density_with_max_at_zero(gen):
    """Product of shifted cosine powers, decreasing from t = 0."""
    order = int(gen.integers(1, 6))
    if order > 1 and gen.uniform() < 0.5:
        split = int(gen.integers(1, order))
        parts = [(split, float(gen.uniform(-0.6, 0.0))),
                 (order - split, float(gen.uniform(-0.6, 0.0)))]
    else:
        parts = [(order, float(gen.uniform(-0.6, 0.0)))]
    tau_cap = min(HALF_PI + phi for _, phi in parts) - 0.05
    tau = float(gen.uniform(0.3, max(0.31, tau_cap)))

    def f(t):
        t = np.asarray(t, dtype=float)
        out = np.ones_like(t)
        for a, phi in parts:
            out = out * np.cos(t - phi) ** a
        return out

    return f, order, tau


def test_criterion_05_cosine_envelope_comparison():
    gen = RngSpec(1505).generator()
    pointwise_failures = 0
    ratio_failures = 0
    for _ in range(100):
        f, order, tau = _concave_density_with_max_at_zero(gen)
        eps = float(gen.uniform(0.15 * tau, 0.85 * tau))
        for k in (0, 1, 2, 5):
            rep = check_comparison_lemma(
                f, order, eps, k, interval=Interval(0.0, tau), grid_size=512
            )
            if not rep.pointwise_ok:
                pointwise_failures += 1
            if not rep.ratio_ok:
                ratio_failures += 1
    ok = pointwise_failures == 0 and ratio_failures == 0
    assert _criterion(
        5,
        ok,
        f"100 concave densities x k in (0,1,2,5): {pointwise_failures} pointwise "
        f"and {ratio_failures} ratio failures",
    )


def test_criterion_06_concavity_classifier_worked_examples():
    full = Interval(-HALF_PI, HALF_PI)
    accepted = all(
        is_sin_concave(
            normalize(TrigDensity(m=n - 1, k=0, interval=full)), n - 1
        )
        for n in range(2, 11)
    )
    rejected = all(
        not is_sin_concave(lambda t, n=n: np.sin(t) ** n, n, interval=full)
        for n in range(2, 11)
    )
    ok = accepted and rejected
    assert _criterion(
        6, ok, f"cos^(n-1) accepted: {accepted}; sin^n rejected: {rejected} (n=2..10)"
    )


def test_criterion_07_product_closure():
    gen = RngSpec(1707).generator()
    failures = 0
    for _ in range(100):
        length = float(gen.uniform(0.4, HALF_PI))
        lo = float(gen.uniform(0.0, HALF_PI - length))
        iv = Interval(lo, lo + length)
        p1 = int(gen.integers(1, 5))
        f = SinAffineDensity(
            phase=float(gen.uniform(iv.hi - HALF_PI, iv.lo + HALF_PI)),
            power=p1,
            interval=iv,
        )
        if gen.uniform() < 0.5:
            p2 = int(gen.integers(1, 5))
            g = SinAffineDensity(
                phase=float(gen.uniform(iv.hi - HALF_PI, iv.lo + HALF_PI)),
                power=p2,
                interval=iv,
            )
        else:
            m2, k2 = int(gen.integers(0, 3)), int(gen.integers(1, 3))
            p2 = m2 + k2
            g = TrigDensity(m=m2, k=k2, interval=iv)
        if not is_sin_concave(
            lambda t: np.asarray(f.pdf(t)) * np.asarray(g.pdf(t)),
            p1 + p2,
            interval=iv,
            grid_size=512,
        ):
            failures += 1
    ok = failures == 0
    assert _criterion(7, ok, f"100 seeded products at summed order: {failures} failures")


def test_criterion_08_exponent_table_oracle():
    r = np.linspace(0.0, HALF_PI, 1000)
    cp1 = CrossSpace.complex_projective(1)
    err_cp1 = float(
        np.max(np.abs(profile_cdf(catalog(cp1)[0], cp1, r) - (1 - np.cos(2 * r)) / 2))
    )
    hp1 = CrossSpace.quaternionic_projective(1)
    c = np.cos(2 * r)
    err_hp1 = float(
        np.max(np.abs(profile_cdf(catalog(hp1)[0], hp1, r) - (2 - 3 * c + c**3) / 4))
    )
    cap2 = CrossSpace.cayley_plane()
    ball, tube = catalog(cap2)
    err_cap = float(
        np.max(
            np.abs(
                profile_cdf(tube, cap2, r) + profile_cdf(ball, cap2, HALF_PI - r) - 1.0
            )
        )
    )
    worst = max(err_cp1, err_hp1, err_cap)
    ok = worst < 1e-9
    assert _criterion(
        8,
        ok,
        f"CP1-vs-S2 {err_cp1:.2e}, HP1-vs-S4 {err_hp1:.2e}, "
        f"CaP1-complement {err_cap:.2e}",
    )


def test_criterion_09_duality_identity():
    from needle_iso import polar_of

    spaces = (
        [CrossSpace.real_projective(n) for n in range(2, 9)]
        + [CrossSpace.complex_projective(n) for n in range(1, 4)]
        + [CrossSpace.quaternionic_projective(n) for n in range(1, 4)]
        + [CrossSpace.cayley_plane()]
    )
    r = np.linspace(0.0, HALF_PI, 512)
    worst = 0.0
    for space in spaces:
        for cand in catalog(space):
            polar = polar_of(cand, space)
            total = profile_cdf(cand, space, r) + profile_cdf(polar, space, HALF_PI - r)
            worst = max(worst, float(np.max(np.abs(total - 1.0))))
    ok = worst < 1e-10
    assert _criterion(9, ok, f"max duality defect over all catalogs {worst:.2e}")


def test_criterion_10_bruteforce_oracle_agreement():
    gen = RngSpec(1010).generator()
    grid_size = 4096
    worst_ratio = 0.0
    ok = True
    for _ in range(50):
        m = int(gen.integers(0, 6))
        k = int(gen.integers(0, 6))
        if m > 0 and k > 0:
            lo, span = 0.0, HALF_PI
        elif k > 0:
            lo, span = 0.0, math.pi
        elif m > 0:
            lo, span = -HALF_PI, math.pi
        else:
            lo, span = 0.0, 1.0
        length = float(gen.uniform(0.4, span))
        start = lo + float(gen.uniform(0.0, span - length))
        d = normalize(TrigDensity(m=m, k=k, interval=Interval(start, start + length)))
        mp = (float(gen.uniform(0.1, 0.5)), float(gen.uniform(0.5, 0.9)))
        exact = sep_1d(d, mp).sep
        brute = sep_1d_bruteforce(d, mp, grid_size=grid_size)
        tol = 2.0 * (d.interval.hi - d.interval.lo) / grid_size
        worst_ratio = max(worst_ratio, abs(exact - brute) / tol)
        ok &= abs(exact - brute) <= tol
    assert _criterion(
        10, ok, f"50 densities, grid 4096: worst error = {worst_ratio:.2f} x tolerance"
    )


def test_criterion_11_rp3_crossover():
    rp3 = CrossSpace.real_projective(3)
    out = isoperimetric_profile_curve(rp3, 0.05, np.linspace(0.005, 0.5, 100))
    one = len(out["crossovers"]) == 1
    v0 = out["crossovers"][0]["v0"]
    doubled = isoperimetric_profile_curve(rp3, 0.05, np.linspace(0.0025, 0.5, 200))
    v0_dense = doubled["crossovers"][0]["v0"]
    cross = out["crossovers"][0]
    cands = {c.label: c for c in catalog(rp3)}
    ref = float(_mp_crossover(cands[cross["from"]], cands[cross["to"]], 0.05, cross["v_low"], cross["v_high"]))
    deviations = [abs(x - RP3_CROSSOVER_V0) for x in (v0, v0_dense)]
    ok = one and 0 < v0 < 0.5 and max(deviations) < 1e-6 and abs(v0 - ref) < 1e-12
    assert _criterion(
        11,
        ok,
        f"single ball/tube crossover at v0={v0:.7f}; {abs(v0 - ref):.1e} from the 40-digit "
        f"mpmath root, stability spread {max(deviations):.2e} (grid doubling)",
    )


def test_criterion_12_verify_determinism():
    cmd = [sys.executable, "-m", "needle_iso", "verify", "--suite", "all", "--seed", "42"]
    runs = [
        subprocess.run(cmd, capture_output=True),
        subprocess.run(cmd, capture_output=True),
        subprocess.run(cmd + ["--threads", "4"], capture_output=True),
    ]
    outs = [r.stdout for r in runs]
    identical = outs[0] == outs[1] == outs[2]
    report = json.loads(outs[0])
    ok = identical and report["suite"] == "all" and report["seed"] == 42
    assert _criterion(
        12,
        ok,
        f"byte-identical reports across two runs and thread counts 1/4: {identical} "
        f"({len(outs[0])} bytes, {report['fail_count']} known findings reported)",
    )
