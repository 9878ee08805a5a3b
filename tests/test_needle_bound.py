import copy
import gc
import hashlib
import math
import pickle
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.optimize import brentq

from needle_iso import (
    CrossSpace,
    HypothesisViolated,
    Interval,
    InvalidMass,
    MassPair,
    NotApplicable,
    OutOfDomain,
    SinAffineDensity,
    TrigDensity,
    batch_affine_sep,
    batch_sep,
    batch_trig_sep,
    binomial_decompose,
    bound_profile,
    bound_profile_csv,
    catalog,
    cross_needle_bound,
    cross_needle_bounds,
    enlarged_volume,
    is_sin_concave,
    isoperimetric_profile_curve,
    normalize,
    optimize_affine_family,
    profile_quantile,
    sep_1d,
    sep_1d_bruteforce,
    solve_with_complement_reduction,
    space_by_name,
    sphere_needle_bound,
)
from needle_iso import densities, needle_bound
from needle_iso.densities import _take
from needle_iso.needle_bound import _candidates, _csv, _csv_row, _exponent_grid, _family_bounds, _params
from needle_iso.separation import _needle_gaps

HALF_PI = math.pi / 2
CP1 = CrossSpace.complex_projective(1)


class TestSphereBound:
    def test_medians_give_zero(self):
        assert sphere_needle_bound(2, (0.5, 0.5)).bound == 0.0

    def test_quarter_half_closed_form(self):
        # oracle: quantiles of (1 + sin t)/2 at 0.25 and 0.5 -> pi/6
        res = sphere_needle_bound(2, (0.25, 0.5))
        assert res.bound == pytest.approx(math.pi / 6, abs=1e-9)
        assert res.hypothesis_satisfied

    def test_straddle_hypothesis_enforced(self):
        with pytest.raises(HypothesisViolated):
            sphere_needle_bound(2, (0.25, 0.25))

    def test_forced_non_straddling_value(self):
        res = sphere_needle_bound(2, (0.25, 0.25), force=True)
        assert res.bound == pytest.approx(math.pi / 3, abs=1e-9)
        assert not res.hypothesis_satisfied

    def test_bound_equals_sep_of_reported_needle(self):
        res = sphere_needle_bound(4, (0.3, 0.6))
        m, k = res.ties[0]
        needle = normalize(TrigDensity(m=m, k=k, interval=Interval(-HALF_PI, HALF_PI)))
        assert res.bound == pytest.approx(sep_1d(needle, (0.3, 0.6)).sep, abs=1e-9)

    def test_nonincreasing_in_dimension(self):
        for mp in [(0.2, 0.5), (0.3, 0.7)]:
            seq = [sphere_needle_bound(n, mp).bound for n in range(2, 11)]
            assert all(a >= b - 1e-12 for a, b in zip(seq, seq[1:]))

    def test_dimension_floor(self):
        with pytest.raises(OutOfDomain):
            sphere_needle_bound(1, (0.3, 0.5))

    @pytest.mark.parametrize("n", [2.5, math.nan, math.inf])
    def test_dimension_must_be_a_finite_integer(self, n):
        # 2.5 used to return the cos^1.5 bound, and NaN or inf a NaN bound
        with pytest.raises(OutOfDomain):
            sphere_needle_bound(n, (0.3, 0.6))

    def test_integer_valued_float_dimension_accepted(self):
        a = sphere_needle_bound(3.0, (0.3, 0.6))
        assert a == sphere_needle_bound(3, (0.3, 0.6))
        assert type(a.params["n"]) is int


class TestCrossBound:
    def test_cp1_quarter_masses(self):
        # oracle: invert F = sin t and F = 1 - cos t at 0.25 / 0.75;
        # both mirror needles tie at asin(3/4) - asin(1/4)
        res = cross_needle_bound(CP1, (0.25, 0.25), max_total_power=9, force=True)
        expect = math.asin(0.75) - math.asin(0.25)
        assert res.bound == pytest.approx(expect, abs=1e-9)
        assert res.ties == ((0, 1), (1, 0))

    def test_medians_give_zero(self):
        for space in [CP1, CrossSpace.real_projective(3), CrossSpace.cayley_plane()]:
            assert cross_needle_bound(space, (0.5, 0.5)).bound == pytest.approx(
                0.0, abs=1e-12
            )

    def test_rp3_argmax_at_admissibility_floor(self):
        res = cross_needle_bound(CrossSpace.real_projective(3), (0.2, 0.5), max_total_power=10)
        assert res.ties == ((0, 2), (2, 0))
        assert res.bound == pytest.approx(0.3415640573884551, abs=1e-9)

    def test_bound_equals_sep_of_reported_needle(self):
        space = CrossSpace.complex_projective(2)
        res = cross_needle_bound(space, (0.3, 0.5))
        m, k = res.ties[0]
        needle = normalize(TrigDensity(m=m, k=k, interval=Interval(0.0, HALF_PI)))
        assert res.bound == pytest.approx(sep_1d(needle, (0.3, 0.5)).sep, abs=1e-9)

    def test_sphere_routed_elsewhere(self):
        with pytest.raises(NotApplicable):
            cross_needle_bound(CrossSpace.sphere(2), (0.3, 0.5))

    def test_power_cap_below_floor(self):
        with pytest.raises(OutOfDomain):
            cross_needle_bound(CrossSpace.cayley_plane(), (0.3, 0.5), max_total_power=8)

    @pytest.mark.parametrize("top", [2.7, math.nan, math.inf, -math.inf])
    def test_power_cap_must_be_a_finite_integer(self, top):
        # 2.7 used to run silently as 2, and NaN raised a bare ValueError
        with pytest.raises(OutOfDomain):
            cross_needle_bound(CP1, (0.3, 0.5), max_total_power=top)

    def test_integer_valued_float_power_cap_accepted(self):
        a = cross_needle_bound(CP1, (0.3, 0.5), max_total_power=8.0)
        assert a == cross_needle_bound(CP1, (0.3, 0.5), max_total_power=8)
        assert type(a.params["max_total_power"]) is int

    def test_folded_count_is_the_folded_half(self):
        for low in (1, 2, 3, 7, 15):
            for top in range(low, low + 30):
                pairs = sorted((t - k, k) for t in range(low, top + 1) for k in range(t + 1))
                folded = tuple(p for p in pairs if p[0] <= p[1])
                assert _exponent_grid(low, top).pairs == folded
                assert needle_bound._folded_count(low, top) == len(folded)

    @pytest.mark.parametrize(
        "space, top, builds",
        [
            ("rp3", 10**4, False),
            ("rp3", 723, False),
            ("cap2", 723, False),
            ("rp30000", None, False),
            ("rp3", 722, True),
            ("cap2", 722, True),
            ("rp29122", None, True),
        ],
    )
    def test_grid_over_the_limit_raises_before_it_is_built(self, monkeypatch, space, top, builds):
        # rp3 at max_total_power 10**4 folds 25M needles: it must never reach the build
        class Built(Exception):
            pass

        def build(*args):
            raise Built

        monkeypatch.setattr(needle_bound, "_exponent_grid", build)
        space = space_by_name(space)
        low = max(space.dim - 1, 1)
        folded = needle_bound._folded_count(low, space.dim + 7 if top is None else top)
        assert (folded <= needle_bound._MAX_FOLDED) is builds
        with pytest.raises(Built if builds else OutOfDomain, match=None if builds else "grid limit of 131072"):
            cross_needle_bound(space, (0.3, 0.6), max_total_power=top)

    def test_grid_cache_keeps_every_default_grid(self):
        _exponent_grid.cache_clear()
        names = [f"rp{n}" for n in range(2, 11)] + [f"cp{n}" for n in range(1, 6)] + ["hp2", "hp3", "cap2"]
        keys = [(max(s.dim - 1, 1), s.dim + 7) for s in map(space_by_name, names)]
        grids = [_exponent_grid(*key) for key in keys]
        assert grids[-1].needle.a.size == 92  # cap2
        assert sum(g.needle.a.size for g in grids) <= needle_bound._CACHED_FOLDED
        assert all(_exponent_grid(*key) is g for key, g in zip(keys, grids))

    def test_grid_cache_drops_the_least_recently_used_past_its_budget(self, monkeypatch):
        # the budget counts folded needles: grids a and b fit, and a new grid
        # c makes room by dropping b, the least recently used
        a, b, c = (2, 20), (3, 20), (4, 20)
        size = {key: needle_bound._folded_count(*key) for key in (a, b, c)}
        assert (size[a], size[b], size[c]) == (119, 117, 115)
        monkeypatch.setattr(needle_bound, "_CACHED_FOLDED", size[a] + size[b])
        _exponent_grid.cache_clear()
        ga, gb = _exponent_grid(*a), _exponent_grid(*b)
        assert _exponent_grid(*a) is ga  # now b is the least recently used
        gc_ = _exponent_grid(*c)
        assert _exponent_grid(*a) is ga and _exponent_grid(*c) is gc_
        assert _exponent_grid(*b) is not gb  # rebuilt, which drops a, now the least recent
        assert list(needle_bound._grids) == [c, b]

    @pytest.mark.parametrize("budget", [1 << 18, 300])
    def test_grid_cache_is_thread_safe(self, monkeypatch, budget):
        # threads looking grids up in clashing orders get the right grid each
        # time and never hold more than the budget; under the default budget,
        # nothing is dropped and every thread gets the one grid per key
        keys = [(low, 20) for low in range(2, 8)]
        monkeypatch.setattr(needle_bound, "_CACHED_FOLDED", budget)
        _exponent_grid.cache_clear()

        def look(i):
            order = keys[i % len(keys) :] + keys[: i % len(keys)]
            return [(key, _exponent_grid(*key)) for key in order * 5]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(look, i) for i in range(8)]
                seen = [pair for f in futures for pair in f.result(timeout=60)]
        finally:
            sys.setswitchinterval(interval)
        for (low, top), grid in seen:
            assert min(map(sum, grid.pairs)) == low and max(map(sum, grid.pairs)) == top
        assert sum(g.needle.a.size for g in needle_bound._grids.values()) <= budget
        if budget == 1 << 18:
            assert all(grid is needle_bound._grids[key] for key, grid in seen)


class TestCrossBoundPairAxis:
    @pytest.mark.parametrize(
        "space, top, passes",
        [
            (CP1, 8, None),
            (CrossSpace.real_projective(3), None, None),
            (CrossSpace.complex_projective(2), None, None),
            (CrossSpace.quaternionic_projective(2), None, None),
            (CrossSpace.cayley_plane(), None, None),
            (CrossSpace.real_projective(3), 40, 3),
        ],
        ids=["cp1-8", "rp3", "cp2", "hp2", "cap2", "rp3-40-passes"],
    )
    def test_matches_one_call_per_pair(self, space, top, passes):
        # 27 pairs are one pass on every default grid; ``passes`` whole passes
        # and one pair left over split a batch on rp3's 439 folded needles
        n = 24
        if passes is not None:
            step = needle_bound._MAX_FOLDED // len(_exponent_grid(max(space.dim - 1, 1), top).pairs)
            n = passes * step + 1 - 3
        gen = np.random.Generator(np.random.PCG64(13))
        k1 = gen.uniform(0.02, 0.5, n)
        pairs = list(zip(k1, gen.uniform(0.5, 1.0 - k1))) + [(0.25, 0.75), (0.5, 0.5), (0.3, 0.5)]
        many = cross_needle_bounds(space, pairs, max_total_power=top)
        assert len(many) == len(pairs)
        for pair, res in zip(pairs, many):
            one = cross_needle_bound(space, pair, max_total_power=top)
            assert res.bound.hex() == one.bound.hex()  # bitwise, not approx
            assert res.ties == one.ties
            assert res == one

    def test_peak_memory_is_one_pass_whatever_the_batch(self):
        # rp3's grid to power 40 folds 439 needles, so a pass takes 298 pairs.
        # Pairs with k1 + k2 >= 1 separate by 0 at every needle and keep them
        # all, so the pass of 298 such pairs bounds any pass; batches of two
        # and four passes peak under it, and no higher for the longer batch
        rp3 = space_by_name("rp3")
        grid = _exponent_grid(2, 40)
        step = needle_bound._MAX_FOLDED // len(grid.pairs)
        assert step == 298
        gen = np.random.Generator(np.random.PCG64(41))
        k1, k2 = gen.uniform(0.0, 0.5, 4 * step), gen.uniform(0.5, 1.0, 4 * step)
        assert 0.4 < np.mean(k1 + k2 >= 1.0) < 0.6
        _candidates(grid, k1, k2)  # fills the quantile rows these pairs read

        def peak(pairs):
            tracemalloc.start()
            try:
                assert len(cross_needle_bounds(rp3, pairs, max_total_power=40)) == len(pairs)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one_pass = peak([(0.3, 0.8)] * step)
        pairs = list(zip(k1, k2))
        two, four = peak(pairs[: 2 * step]), peak(pairs)
        assert max(two, four) <= 1.1 * one_pass
        assert four <= 1.2 * two

    def test_hypothesis_flag_per_pair(self):
        many = cross_needle_bounds(CP1, [(0.3, 0.5), (0.2, 0.3)], force=True)
        assert [r.hypothesis_satisfied for r in many] == [True, False]
        with pytest.raises(HypothesisViolated):
            cross_needle_bounds(CP1, [(0.3, 0.5), (0.2, 0.3)])

    def test_no_pairs_no_results(self):
        assert cross_needle_bounds(CP1, []) == ()


MIRROR_SPACES = [f"rp{n}" for n in range(3, 11)] + [f"cp{n}" for n in range(1, 6)] + ["hp2", "hp3", "cap2"]


class TestCrossBoundMirror:
    """The grid's ``m <= k`` half serves its mirror twins: each bound is its
    own argmax's separation bit for bit, and the ties are those of the whole
    grid evaluated needle by needle."""

    @pytest.mark.parametrize("name", MIRROR_SPACES)
    def test_bound_is_its_argmax_sep_and_ties_match_full_grid(self, name):
        space = space_by_name(name)
        gen = np.random.Generator(np.random.PCG64(17))
        k1 = gen.uniform(0.02, 0.5, 40)
        k2 = gen.uniform(0.5, 1.0, 40)
        swap = gen.random(40) < 0.5
        k1, k2 = np.where(swap, k2, k1), np.where(swap, k1, k2)
        results = cross_needle_bounds(space, zip(k1, k2))
        top = results[0].params["max_total_power"]
        low = max(space.dim - 1, 1)
        pairs = sorted((t - k, k) for t in range(low, top + 1) for k in range(t + 1))
        m, k = np.array(pairs, dtype=float).T
        full = batch_trig_sep(m, k, 0.0, HALF_PI, k1[:, None], k2[:, None])
        for res, a, b, row in zip(results, k1, k2, full):
            assert res.bound == float(batch_trig_sep(*res.ties[0], 0.0, HALF_PI, a, b))
            best = row.max()
            assert res.ties == tuple(pairs[j] for j in np.flatnonzero(row >= best - 1e-12))
            assert abs(res.bound - best) <= 1e-15

    def test_twins_share_one_value(self):
        res = cross_needle_bound(CrossSpace.real_projective(3), (0.2, 0.5), max_total_power=10)
        assert res.ties == ((0, 2), (2, 0))
        assert res.bound == float(batch_trig_sep(0, 2, 0.0, HALF_PI, 0.2, 0.5))


# every grid the library builds by default, and cp1's capped grid of the
# cross-dominance check
DEFAULT_GRIDS = (
    [(f"rp{n}", None) for n in range(2, 11)]
    + [(f"cp{n}", None) for n in range(1, 6)]
    + [(f"hp{n}", None) for n in range(1, 4)]
    + [("cap2", None), ("cp1", 8)]
)


def _pruning_masses(seed):
    """Over 1000 mass pairs: straddling ones in both orders, complementary
    ones exact and one ulp off each way, forced non-straddling ones, pairs
    at the masses 1e-12 and 1.0, and pairs whose targets lie in the table's
    fine tails or on its masses: two closing checks of catalog solves after
    complement reduction, (2^-40, 0.7) and (1/512, 0.6)."""
    gen = np.random.Generator(np.random.PCG64(seed))
    a, b = np.maximum(gen.uniform(0.0, 0.5, 400), 1e-12), gen.uniform(0.5, 1.0, 400)
    swap = gen.random(400) < 0.5
    c = gen.uniform(0.001, 0.999, 100)
    d = 1.0 - c
    below = gen.uniform(1e-6, 0.5, (2, 100))
    above = gen.uniform(np.nextafter(0.5, 1.0), 1.0, (2, 100))
    u = gen.uniform(1e-6, 1.0, 50)
    edge = np.array([1e-12, 0.5, 1.0])
    tail = np.array([(0.907472, 0.0002593510477524319), (0.036984, 0.9531846193906083), (2.0**-40, 0.7),
                     (1 / 512, 0.6)]).T
    k1 = [np.where(swap, b, a), c, c, c, *below[:1], *above[:1], np.full(50, 1e-12), u, np.repeat(edge, 3),
          tail[0]]
    k2 = [np.where(swap, a, b), d, np.nextafter(d, 0.0), np.nextafter(d, 1.0), *below[1:], *above[1:], u,
          np.ones(50), np.tile(edge, 3), tail[1]]
    return np.concatenate(k1), np.concatenate(k2)


def _table(grid):
    """``grid``'s whole quantile table from one quantile call: the bits the
    lazy fill writes, row by row, since the kernel is elementwise."""
    return needle_bound._needle_quantile(grid.needle, needle_bound._MASSES[:, None])


class TestCrossBoundPruning:
    """A cross bound evaluates only the needles its grid's quantile table
    cannot rule out, and gets the bits and ties of the full pass over the
    whole fold."""

    def test_masses_rise_strictly_from_0_to_1(self):
        masses = needle_bound._MASSES
        assert masses.size == 575 and masses[0] == 0.0 and masses[-1] == 1.0
        assert (np.diff(masses) > 0.0).all() and not masses.flags.writeable
        # exact in binary: every mass is a whole multiple of 2^-40
        assert (masses * 2.0**40 == np.round(masses * 2.0**40)).all()

    @pytest.mark.parametrize("name, top", DEFAULT_GRIDS, ids=[f"{n}-{t}" for n, t in DEFAULT_GRIDS])
    def test_every_table_entry_is_finite(self, name, top):
        space = space_by_name(name)
        top = space.dim + 7 if top is None else top
        assert np.isfinite(_table(_exponent_grid(max(space.dim - 1, 1), top))).all()

    @pytest.mark.parametrize("name, top", DEFAULT_GRIDS, ids=[f"{n}-{t}" for n, t in DEFAULT_GRIDS])
    def test_equals_the_full_pass(self, name, top):
        space = space_by_name(name)
        k1, k2 = _pruning_masses(29)
        assert k1.size >= 1000
        results = cross_needle_bounds(space, zip(k1, k2), max_total_power=top, force=True)
        grid = _exponent_grid(max(space.dim - 1, 1), results[0].params["max_total_power"])
        full = _needle_gaps(grid.needle, k1[:, None], k2[:, None])[2]
        for res, row in zip(results, full):
            best = row.max()
            assert res.bound == best  # bitwise
            # the whole grid, each pair at its m <= k twin's value
            value = dict(zip(grid.pairs, row))
            whole = {p: value[min(p, p[::-1])] for m, k in grid.pairs for p in ((m, k), (k, m))}
            assert res.ties == tuple(p for p in sorted(whole) if whole[p] >= best - 1e-12)
        # the straddling pairs drop needles: the table is not idle
        kept = _candidates(grid, k1[:400], k2[:400])
        assert kept.sum() < 0.9 * kept.size
        # every filled row holds the bits of one whole-table call
        assert grid.filled.any()
        assert np.array_equal(grid.table[grid.filled], _table(grid)[grid.filled])

    @pytest.mark.parametrize("low, top", sorted({(1, 8)} | {(max(d - 1, 1), d + 7) for d in range(2, 17)}))
    def test_each_quantile_lies_in_its_bracket(self, low, top):
        # the premise of the 1e-10 rad slack: a target's quantile lies between
        # its bracket's tabulated ends to about 1e-14 (the kernel is monotone
        # only to ulps), here at a few ulps about each table mass, at random
        # and at the small and near-1 targets the fine tails are for.  The
        # premise is about targets with an answer: the kernel raises at some
        # below about 1e-100 (TestNanSeparations), here the subnormal ones
        # next to the mass 0, so those go and every target left has an answer
        grid = _exponent_grid(low, top)
        masses = needle_bound._MASSES
        node = masses[:, None]
        q = (node + np.arange(-6, 7) * np.spacing(node)).ravel()
        q = np.concatenate([q, np.random.default_rng(3).uniform(0.0, 1.0, 2000), [1e-12, 1.0 - 1e-12]])
        q = q[((q == 0.0) | (q >= 1e-100)) & (q <= 1.0)]
        t = needle_bound._needle_quantile(grid.needle, q[:, None])
        j = np.minimum(np.searchsorted(masses, q, side="right") - 1, masses.size - 2)
        table = _table(grid)
        assert np.max(table[j] - t) <= 1e-13
        assert np.max(t - table[j + 1]) <= 1e-13

    def test_a_nan_keeps_the_needles_it_touches(self):
        cap2 = CrossSpace.cayley_plane()
        grid = _exponent_grid(15, 23)
        full = grid._replace(table=_table(grid), filled=np.ones(needle_bound._MASSES.size, dtype=bool))
        k1, k2 = np.array([0.3]), np.array([0.6])
        expected = cross_needle_bounds(cap2, [(0.3, 0.6)])
        dropped = int(np.flatnonzero(~_candidates(full, k1, k2)[0])[0])
        # the brackets of the targets k1, 1 - k2, k2 and 1 - k1
        q = np.array([0.3, 1.0 - 0.6, 0.6, 1.0 - 0.3])
        brackets = np.searchsorted(needle_bound._MASSES, q, side="right") - 1
        assert (needle_bound._MASSES[brackets] < q).all()
        for target, j in enumerate(brackets):
            for side in (0, 1):
                table = full.table.copy()
                table[j + side, dropped] = np.nan
                nan_grid = full._replace(table=table)
                keep = _candidates(nan_grid, k1, k2)[0]
                # an end the lower bound reads makes the threshold NaN
                assert keep.all() if (side == 0) == (target % 2 == 1) else keep[dropped]
                params = _params(space="cap2", max_total_power=23)
                assert _family_bounds(nan_grid, params, [MassPair(0.3, 0.6)]) == expected
        assert _candidates(full._replace(table=np.full_like(full.table, np.nan)), k1, k2).all()

    @pytest.mark.parametrize("name", ["rp3", "cap2"])
    def test_threads_filling_one_table_give_the_serial_bits(self, name):
        space = space_by_name(name)
        k1, k2 = _pruning_masses(29)
        serial = cross_needle_bounds(space, zip(k1, k2), force=True)
        _exponent_grid.cache_clear()  # so the threads fill one empty table at once
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads inside the fills
        try:
            with ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(cross_needle_bound, space, (a, b), force=True) for a, b in zip(k1, k2)]
                threaded = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert [(r.bound, r.ties) for r in threaded] == [(r.bound, r.ties) for r in serial]
        grid = _exponent_grid(max(space.dim - 1, 1), space.dim + 7)
        assert np.array_equal(grid.table[grid.filled], _table(grid)[grid.filled])

    def test_calls_leave_no_cyclic_garbage(self):
        cap2 = CrossSpace.cayley_plane()
        cross_needle_bounds(cap2, [(0.3, 0.6), (0.2, 0.7)])  # fills the caches
        sphere_needle_bound(5, (0.3, 0.6))
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            for mp in [(0.3, 0.6), (0.2, 0.7)] * 20:
                cross_needle_bound(cap2, mp)
                sphere_needle_bound(5, mp)
            cross_needle_bounds(cap2, [(0.3, 0.6), (0.2, 0.7)])
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


class TestNanSeparations:
    """scipy's betaincinv answers NaN at some targets below about 1e-100; the
    quantile kernel raises OutOfDomain naming the first such target, so no
    exit of the library answers NaN."""

    def test_rp3_bound_prunes_its_nan_needles(self):
        rp3 = space_by_name("rp3")
        res = cross_needle_bound(rp3, (1e-150, 0.6))
        # seven needles have no quantile at 1e-150, and their brackets
        # [0, 2^-40] rule them out; the bound is the 40-digit one of
        # bench/reference.py's cross_bound(3, 1e-150, 0.6)
        assert abs(res.bound - 1.3127018311813880535) <= 1e-13
        assert res.ties == ((0, 10), (10, 0))
        # evaluated over the whole grid, those needles raise: an all-NaN
        # table prunes nothing (test_a_nan_keeps_the_needles_it_touches)
        grid = _exponent_grid(2, 10)
        full = grid._replace(table=np.full_like(grid.table, np.nan), filled=np.ones_like(grid.filled))
        params = _params(space="rp3", max_total_power=10)
        with pytest.raises(OutOfDomain, match=r"mass fraction 1e-150: the target is too small"):
            _family_bounds(full, params, [MassPair(1e-150, 0.6)])

    @pytest.mark.parametrize("name, top", DEFAULT_GRIDS, ids=[f"{n}-{t}" for n, t in DEFAULT_GRIDS])
    def test_default_grids_at_1e_300(self, name, top):
        space = space_by_name(name)
        k1, k2 = np.array([1e-300]), np.array([0.5])
        grid = _exponent_grid(max(space.dim - 1, 1), space.dim + 7 if top is None else top)
        # each needle's separation there, or the raise of one without a quantile
        full = np.full(len(grid.pairs), -np.inf)
        lost = np.zeros(len(grid.pairs), dtype=bool)
        for j in range(len(grid.pairs)):
            try:
                full[j] = _needle_gaps(_take(grid.needle, [j]), k1, k2)[2][0]
            except OutOfDomain as err:
                assert "mass fraction 1e-300:" in str(err)
                lost[j] = True
        # every uncapped default grid has needles without a quantile there
        assert lost.any() or top is not None
        try:
            res = cross_needle_bound(space, (1e-300, 0.5), max_total_power=top)
        except OutOfDomain as err:
            assert "mass fraction 1e-300:" in str(err)
            assert name == "cap2"  # a needle the table keeps has no quantile
            return
        # the table rules out every needle without a quantile: the bound is
        # the maximum over the others, bit for bit
        assert not _candidates(grid, k1, k2)[0][lost].any()
        assert res.bound == np.max(full)

    def test_every_exit_raises_naming_the_target(self):
        d = normalize(TrigDensity(4, 5, Interval(0.0, HALF_PI)))
        hp2, cap2 = space_by_name("hp2"), space_by_name("cap2")
        ball = catalog(hp2)[0]
        exits = {
            1e-100: [
                lambda: sep_1d(d, (1e-100, 0.6)),
                lambda: batch_trig_sep(4, 5, 0.0, HALF_PI, [0.3, 1e-100], 0.6),
                lambda: batch_sep(d, [0.3, 0.6], [0.6, 1e-100]),
                lambda: d.quantile(1e-100),
            ],
            1e-200: [lambda: profile_quantile(ball, hp2, 1e-200), lambda: enlarged_volume(ball, hp2, 1e-200, 0.1)],
            1e-300: [
                lambda: cross_needle_bound(cap2, (1e-300, 0.5)),
                lambda: solve_with_complement_reduction(hp2, 1e-300, 0.1),
                lambda: isoperimetric_profile_curve(hp2, 0.1, [1e-300, 0.3]),
            ],
        }
        for target, calls in exits.items():
            for call in calls:
                with pytest.raises(OutOfDomain, match=rf"^no finite quantile at mass fraction {target!r}: "):
                    call()
        assert batch_trig_sep(4, 5, 0.0, HALF_PI, [0.3, 1e-90], 0.6).shape == (2,)

    def test_sphere_bound_stays_finite(self):
        assert math.isfinite(sphere_needle_bound(4, (1e-300, 0.6)).bound)


def _retained_bytes(make, args):
    """Traced bytes per result still held after ``make(*a)`` for each ``a`` in
    ``args``, every result kept; one untraced pass first fills the caches."""
    for a in args:
        make(*a)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        kept = [make(*a) for a in args]
        grown = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(kept) == len(args)
    return grown / len(args)


class TestSharedLabels:
    """A result holds its bound and flag; ``params`` and ``ties`` are shared,
    read-only labels of its grid."""

    PAIRS = [(float(a), float(b)) for a, b in zip(np.linspace(0.02, 0.48, 200), np.linspace(0.99, 0.51, 200))]

    def test_retained_cross_results_are_small(self):
        cap2 = CrossSpace.cayley_plane()
        assert _retained_bytes(lambda *mp: cross_needle_bound(cap2, mp), self.PAIRS) <= 200

    def test_retained_sphere_results_are_small(self):
        args = [(2 + i % 11, mp) for i, mp in enumerate(self.PAIRS)]
        assert _retained_bytes(sphere_needle_bound, args) <= 200

    def test_params_are_read_only_and_shared(self):
        a = cross_needle_bound(CP1, (0.3, 0.5), max_total_power=8)
        b = cross_needle_bound(CP1, (0.2, 0.6), max_total_power=8)
        assert a.params is b.params
        assert a.params["max_total_power"] == 8
        assert a.params == {"space": "cp1", "max_total_power": 8}
        with pytest.raises(TypeError):
            a.params["max_total_power"] = 9
        rec = a.to_dict()
        assert rec["space"] == "cp1" and rec["max_total_power"] == 8
        s = sphere_needle_bound(3, (0.3, 0.6))
        assert s.params is sphere_needle_bound(3, (0.2, 0.7)).params
        assert s.params == {"n": 3, "m": 2}
        with pytest.raises(TypeError):
            s.params["n"] = 4
        assert s.to_dict()["m"] == 2 and s.to_dict()["n"] == 3

    def test_results_pickle_and_deep_copy(self):
        for res in (cross_needle_bound(CP1, (0.3, 0.5)), sphere_needle_bound(3, (0.3, 0.6))):
            for back in (pickle.loads(pickle.dumps(res)), copy.deepcopy(res)):
                assert back == res
                with pytest.raises(TypeError):
                    back.params["m"] = 0

    def test_ties_are_shared_per_tie_set(self):
        a = cross_needle_bound(CP1, (0.25, 0.25), max_total_power=9, force=True)
        b = cross_needle_bound(CP1, (0.25, 0.25), max_total_power=9, force=True)
        assert a.ties is b.ties
        # zero separation: every pair of the whole grid ties, in one tuple per grid
        zero = cross_needle_bound(CP1, (0.5, 0.5), max_total_power=9)
        assert zero.bound == 0.0
        assert zero.ties == tuple(sorted((t - k, k) for t in range(1, 10) for k in range(t + 1)))
        assert cross_needle_bound(CP1, (0.25, 0.75), max_total_power=9).ties is zero.ties
        # and so past k1 + k2 = 1, on the default grids too: a bound of exactly
        # 0.0 and the whole mirrored grid as ties, in one tuple per grid
        for name in ("rp3", "cap2"):
            space = space_by_name(name)
            low, top = max(space.dim - 1, 1), space.dim + 7
            whole = tuple(sorted((t - k, k) for t in range(low, top + 1) for k in range(t + 1)))
            results = cross_needle_bounds(space, [(0.3, 0.8), (0.45, 0.6), (0.02, 0.99), (0.5, 0.75)])
            for res in results:
                assert res.bound.hex() == (0.0).hex()
                assert res.ties == whole
                assert res.ties is results[0].ties


class TestFamilyTable:
    """The cross bound is the per-pair maxima over one cached grid record,
    and the sphere bound the separation of one cached needle."""

    def test_sphere_bound_is_its_needles_batch_sep(self):
        rng = np.random.default_rng(2017)
        k1, k2 = rng.uniform(1e-9, 1.0, (2, 150))
        # the corners, and pairs that do not straddle 1/2 (forced)
        k1[:4], k2[:4] = (0.5, 1.0, 0.2, 0.9), (0.5, 1.0, 0.25, 0.7)
        assert not all(MassPair(a, b).straddles_half for a, b in zip(k1, k2))
        for n in range(2, 41):
            batch = batch_trig_sep(n - 1, 0, -HALF_PI, HALF_PI, k1, k2)
            bounds = [sphere_needle_bound(n, mp, force=True).bound for mp in zip(k1, k2)]
            assert np.array_equal(bounds, batch), n

    def test_sphere_needle_is_folded_once_per_dimension(self, monkeypatch):
        folds = []
        real = needle_bound._fold

        def counting(*args):
            folds.append(args)
            return real(*args)

        monkeypatch.setattr(needle_bound, "_fold", counting)
        needle_bound._sphere_needle.cache_clear()  # so the first call per n folds
        for mp in [(0.3, 0.6), (0.2, 0.7), (0.5, 0.5)]:
            for n in (2, 5, 11):
                sphere_needle_bound(n, mp)
        assert len(folds) == 3

    def test_sphere_dimension_is_checked_before_the_masses(self):
        with pytest.raises(OutOfDomain):
            sphere_needle_bound(1, (0.0, 0.5))
        with pytest.raises(OutOfDomain):
            sphere_needle_bound(1, (0.2, 0.3))

    def test_cross_masses_are_checked_before_the_power_cap(self):
        with pytest.raises(HypothesisViolated):
            cross_needle_bound(CP1, (0.3, 0.3), max_total_power=0)
        with pytest.raises(InvalidMass):
            cross_needle_bound(CP1, (0.0, 0.5), max_total_power=math.nan)

    def test_both_families_label_their_argmax_alike(self):
        for res in (sphere_needle_bound(5, (0.3, 0.6)), cross_needle_bound(CP1, (0.3, 0.6))):
            rec = res.to_dict()
            assert (rec["m"], rec["k"]) == res.ties[0]
        assert sphere_needle_bound(5, (0.3, 0.6)).ties == ((4, 0),)


class TestSphereOneNeedle:
    """The sphere bound is ``sep_1d``'s one-needle path on a cached record;
    the pinned bits were recorded while it still went through the grid
    machinery."""

    PAIRS = [(0.3, 0.6), (0.5, 0.5), (0.25, 0.5), (1.0, 0.5), (0.0625, 0.9375)]
    FORCED = [(0.2, 0.25), (0.9, 0.7), (1e-9, 0.4), (1.0, 1.0)]

    def test_bounds_keep_their_bits(self):
        # every n from 2 to 40 at straddling and forced pairs, hashed in order
        digest = hashlib.sha256()
        for n in range(2, 41):
            for mp in self.PAIRS:
                digest.update(sphere_needle_bound(n, mp).bound.hex().encode())
            for mp in self.FORCED:
                res = sphere_needle_bound(n, mp, force=True)
                assert not res.hypothesis_satisfied
                digest.update(res.bound.hex().encode())
        assert digest.hexdigest() == "9c3e8db49a2438b72f4b286f38ab1d94bfaae858c28b093a13fbb5085cc0dc92"

    @pytest.mark.parametrize(
        "n, mp, force, bound",
        [
            (2, (0.3, 0.6), False, "0x1.ae67cd7839228p-3"),
            (3, (0.3, 0.6), False, "0x1.5607546aeb7e0p-3"),
            (12, (0.3, 0.6), False, "0x1.4618465be0a90p-4"),
            (40, (0.3, 0.6), False, "0x1.60ef1d9788d20p-5"),
            (5, (0.2, 0.25), True, "0x1.68a31f875acfep-1"),
            (40, (0.2, 0.25), True, "0x1.ed656b888ed60p-3"),
            (4, (1e-300, 0.6), False, "0x1.6fae45ae3fe91p+0"),
            (40, (5e-324, 0.5), False, "0x1.921fb54442d18p+0"),
            (17, (1e-150, 1e-150), True, "0x1.921fb5408f186p+1"),
        ],
    )
    def test_pinned_bounds(self, n, mp, force, bound):
        res = sphere_needle_bound(n, mp, force=force)
        assert res.bound.hex() == bound
        assert res.ties == ((n - 1, 0),) and res.family == "sphere-cos"

    def test_a_nan_raises_naming_the_target(self, monkeypatch):
        # betaincinv answers every sphere target today; a NaN it might give
        # raises in the quantile kernel, never coming back as a bound
        def nan_betaincinv(a, b, y, out, where):
            np.copyto(out, np.nan, where=where)

        monkeypatch.setattr(densities, "betaincinv", nan_betaincinv)
        with pytest.raises(OutOfDomain, match=r"mass fraction 1e-300: the target is too small"):
            sphere_needle_bound(4, (1e-300, 0.6))

    @pytest.mark.parametrize("n", [2, 3, 11, 40])
    def test_params_and_ties_are_shared_per_dimension(self, n):
        a, b = sphere_needle_bound(n, (0.3, 0.6)), sphere_needle_bound(n, (0.1, 0.9))
        needle, params, ties = needle_bound._sphere_needle(n)
        assert a.params is b.params is params and a.ties is b.ties is ties
        assert ties == ((n - 1, 0),) and params == {"n": n, "m": n - 1}
        assert sphere_needle_bound(n + 1, (0.3, 0.6)).params is not params

    def test_takes_the_one_needle_path(self):
        needle = needle_bound._sphere_needle(7)[0]
        assert needle.a.ndim == 0
        assert sphere_needle_bound(7, (0.3, 0.6)).bound == float(_needle_gaps(needle, 0.3, 0.6)[2])

    @pytest.mark.parametrize("n", [2, 5])
    def test_records_are_read_only(self, n):
        grid = _exponent_grid(2, 10)
        for record in (needle_bound._sphere_needle(n)[0], grid.needle):
            arrays = [f for f in record if isinstance(f, np.ndarray)]
            assert arrays
            for f in arrays:
                with pytest.raises(ValueError):
                    f[...] = 0.0


class TestBatchHelpers:
    def test_batch_affine_matches_scalar(self):
        gen = np.random.Generator(np.random.PCG64(5))
        for _ in range(10):
            length = float(gen.uniform(0.3, math.pi))
            phase = float(gen.uniform(length - HALF_PI, HALF_PI))
            power = float(gen.integers(1, 7))
            mp = (float(gen.uniform(0.1, 0.5)), float(gen.uniform(0.5, 0.9)))
            needle = normalize(
                SinAffineDensity(phase=phase, power=power, interval=Interval(0.0, length))
            )
            scalar = sep_1d(needle, mp).sep
            batch = float(batch_affine_sep(phase, power, 0.0, length, mp[0], mp[1]))
            assert batch == scalar  # one kernel: bit for bit

    def test_batch_trig_matches_scalar(self):
        gen = np.random.Generator(np.random.PCG64(6))
        for _ in range(10):
            m = int(gen.integers(0, 5))
            k = int(gen.integers(0, 5))
            mp = (float(gen.uniform(0.1, 0.5)), float(gen.uniform(0.5, 0.9)))
            needle = normalize(TrigDensity(m=m, k=k, interval=Interval(0.0, HALF_PI)))
            scalar = sep_1d(needle, mp).sep
            batch = float(batch_trig_sep(m, k, 0.0, HALF_PI, mp[0], mp[1]))
            assert batch == scalar  # one kernel: bit for bit

    def test_one_needle_over_a_mass_axis_matches_scalar_bits(self):
        # a scalar needle is folded once and its masses broadcast against it
        gen = np.random.Generator(np.random.PCG64(8))
        k1 = gen.uniform(0.05, 0.5, 50)
        k2 = gen.uniform(0.5, 1.0 - k1)
        batch = batch_trig_sep(2.0, 1.0, 0.1, 1.4, k1, k2)
        single = [float(batch_trig_sep(2.0, 1.0, 0.1, 1.4, a, b)) for a, b in zip(k1, k2)]
        assert batch.tolist() == single

    def test_batch_trig_rejects_bad_window(self):
        with pytest.raises(OutOfDomain):
            batch_trig_sep(1.0, 1.0, 0.0, 2.0, 0.3, 0.6)

    @pytest.mark.parametrize("needle", [(2.0, 2.0, 0.0, 1.0), (0.0, -1.0, 0.0, 1.0)])
    def test_batch_affine_rejects_what_the_constructor_rejects(self, needle):
        # cos(t - 2) < 0 on part of [0, 1] (this returned 0.0388), and a
        # negative power (this returned NaN)
        phase, power, lo, hi = needle
        with pytest.raises(OutOfDomain):
            SinAffineDensity(phase=phase, power=power, interval=Interval(lo, hi))
        with pytest.raises(OutOfDomain):
            batch_affine_sep(phase, power, lo, hi, 0.3, 0.6)

    @pytest.mark.parametrize("needle", [(-1.0, 1.0, 0.0, 1.0), (1.0, 1.0, 1.0, 0.5)])
    def test_batch_trig_rejects_negative_exponents_and_inverted_intervals(self, needle):
        with pytest.raises(OutOfDomain):
            batch_trig_sep(*needle, 0.3, 0.6)

    def test_batch_trig_takes_the_pure_families_own_windows(self):
        # pure cosine on [-pi/2, pi/2] and pure sine on [0, pi], as TrigDensity
        for m, k, lo, hi in ((2.0, 0.0, -HALF_PI, HALF_PI), (0.0, 2.0, 0.0, math.pi)):
            d = normalize(TrigDensity(m=m, k=k, interval=Interval(lo, hi)))
            assert float(batch_trig_sep(m, k, lo, hi, 0.3, 0.6)) == sep_1d(d, (0.3, 0.6)).sep

    @pytest.mark.parametrize("k1, k2", [(-0.5, 0.2), (1.5, 0.2), (math.nan, 0.2), (0.2, -0.5)])
    def test_batch_seps_reject_masses_outside_the_unit_interval(self, k1, k2):
        # these used to return 0.852, 0.0 or NaN without raising
        with pytest.raises(InvalidMass):
            batch_trig_sep(1.0, 1.0, 0.0, 1.0, k1, k2)
        with pytest.raises(InvalidMass):
            batch_affine_sep(0.0, 2.0, 0.0, 1.0, [0.3, k1], [0.4, k2])


class TestOptimizer:
    @pytest.mark.parametrize("samples", [2.5, 0, True])
    def test_samples_must_be_a_positive_integer(self, samples):
        # 2.5 raised a bare TypeError from numpy
        with pytest.raises(OutOfDomain, match="samples must be an integer >= 1"):
            optimize_affine_family(HALF_PI, [1.0], (0.3, 0.6), samples, 1)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        # -1 raised a bare ValueError from numpy
        with pytest.raises(OutOfDomain, match="seed must be an integer >= 0"):
            optimize_affine_family(HALF_PI, [1.0], (0.3, 0.6), 5, seed)

    def test_search_confirms_half_period_dominance(self):
        # every sin^1-affine needle with support <= pi is dominated by the
        # full-interval cosine needle
        out = optimize_affine_family(
            math.pi, {1}, (0.25, 0.5), samples=10000, seed=11
        )
        bound = sphere_needle_bound(2, (0.25, 0.5)).bound
        assert out["best_sep"] <= bound + 1e-10

    def test_equal_halves_give_zero(self):
        out = optimize_affine_family(math.pi, {1, 2}, (0.5, 0.5), samples=2000, seed=3)
        assert out["best_sep"] == pytest.approx(0.0, abs=1e-12)

    def test_deterministic_for_fixed_seed(self):
        a = optimize_affine_family(HALF_PI, {2, 3}, (0.3, 0.5), samples=500, seed=9)
        b = optimize_affine_family(HALF_PI, {2, 3}, (0.3, 0.5), samples=500, seed=9)
        assert a["best_sep"] == b["best_sep"]
        assert np.array_equal(a["all_samples"]["sep"], b["all_samples"]["sep"])

    def test_sample_stream_is_pinned(self):
        # lengths, power indices, then phases, each one array draw from
        # Generator(PCG64(seed)); a change here re-draws every search
        out = optimize_affine_family(HALF_PI, {2, 3}, (0.3, 0.5), samples=500, seed=9)
        gen = np.random.Generator(np.random.PCG64(9))
        lengths = gen.uniform(1e-3, HALF_PI, 500)
        powers = np.array([2.0, 3.0])[gen.integers(0, 2, 500)]
        phases = gen.uniform(lengths - HALF_PI, HALF_PI)
        drawn = out["all_samples"]
        assert np.array_equal(drawn["hi"], lengths)
        assert np.array_equal(drawn["power"], powers)
        assert np.array_equal(drawn["phase"], phases)
        assert np.array_equal(drawn["lo"], np.zeros(500))

    @pytest.mark.parametrize("cap", [0.0005, -1.0, math.nan])
    def test_length_cap_below_floor_rejected(self, cap):
        # a cap below the 1e-3 support floor once reached numpy as high < low
        with pytest.raises(OutOfDomain):
            optimize_affine_family(cap, [1.0], (0.3, 0.5), 5, 1)

    @pytest.mark.parametrize("cap", ["1", None, True, np.array(1.0)], ids=["string", "none", "bool", "array"])
    def test_length_cap_takes_the_scalar_rule(self, cap):
        # a string cap was parsed by float() and searched with
        with pytest.raises(OutOfDomain, match="length cap"):
            optimize_affine_family(cap, [1.0], (0.3, 0.5), 5, 1)

    @pytest.mark.parametrize(
        "p_range",
        [None, ["a"], [1, "a"], [True, 2], 3, "12", [], [[1, 2]], np.array([[1.0, 2.0], [3.0, 4.0]])],
        ids=["none", "string", "mixed", "bool", "int", "text", "empty", "nested", "matrix"],
    )
    def test_p_range_takes_the_array_rule(self, p_range):
        # None raised TypeError, ["a"] ValueError and [[1, 2]] IndexError,
        # outside the library's errors
        with pytest.raises(OutOfDomain, match="p_range"):
            optimize_affine_family(HALF_PI, p_range, (0.3, 0.5), 5, 1)

    def test_p_range_of_numpy_values_draws_as_a_list(self):
        a = optimize_affine_family(HALF_PI, np.array([3, 1, 2]), (0.3, 0.5), 50, 4)
        b = optimize_affine_family(HALF_PI, [1.0, 2.0, 3.0], (0.3, 0.5), 50, 4)
        assert np.array_equal(a["all_samples"]["power"], b["all_samples"]["power"])

    def test_length_cap_at_floor_accepted(self):
        out = optimize_affine_family(1e-3, [1.0], (0.3, 0.5), 5, 1)
        assert np.array_equal(out["all_samples"]["hi"], np.full(5, 1e-3))

    def test_best_needle_reproduces_best_sep(self):
        out = optimize_affine_family(HALF_PI, {1, 2, 3}, (0.3, 0.5), samples=300, seed=4)
        assert sep_1d(out["best_needle"], (0.3, 0.5)).sep == pytest.approx(
            out["best_sep"], abs=1e-12
        )

    def test_search_stays_below_quarter_period_family_bound(self):
        # Finding (README "Findings"): the random search over sin^p-affine
        # needles with support <= pi/2 does not stay below the cos^m sin^k
        # grid bound; its best needle has an interior maximum and beats the
        # bound at k2 = 1/2.  See demos/05_dominance_counterexample.py.
        out = optimize_affine_family(
            HALF_PI, range(2, 7), (0.3, 0.5), samples=10000, seed=12
        )
        bound = cross_needle_bound(CP1, (0.3, 0.5), max_total_power=6).bound
        # oracle: the pure cosine needle (CDF sin t) wins the grid, with the
        # mass 0.3 on the right: asin(0.7) - asin(0.5)
        assert bound == pytest.approx(math.asin(0.7) - math.pi / 6, abs=1e-12)
        assert out["best_sep"] > bound + 1e-3
        best = out["best_needle"]
        assert best.power == 2
        assert 0.0 < best.phase < best.interval.hi
        # grid-exhaustive oracle, which under-reads by at most two grid steps
        grid_size = 4096
        brute = sep_1d_bruteforce(best, (0.3, 0.5), grid_size=grid_size)
        assert abs(brute - out["best_sep"]) <= 2.0 * (best.interval.hi - best.interval.lo) / grid_size
        assert brute > bound + 1e-3


class TestKnownFindingDominance:
    def test_quarter_period_family_dominates_affine_needles(self):
        # Finding (README "Findings"): the quarter-period family does not
        # dominate.  The shifted-cosine needle cos(t - pi/4) on [0, pi/2]
        # has power 1 = dim - 1 and is sin^1-concave (g'' + g = 0), yet at
        # masses (0.25, 0.5) it separates more than the best cos^m sin^k
        # needle.
        needle = normalize(
            SinAffineDensity(phase=math.pi / 4, power=1, interval=Interval(0.0, HALF_PI))
        )
        assert is_sin_concave(needle, 1)
        sep = sep_1d(needle, (0.25, 0.5)).sep
        bound = cross_needle_bound(CP1, (0.25, 0.5), max_total_power=8).bound
        # oracle: the needle's CDF is (sin(t - pi/4) + sin(pi/4)) / sqrt(2),
        # so the gap from the 0.25-quantile to the median pi/4 is
        # asin(sqrt(2)/4); the grid's best is the cosine needle (CDF sin t)
        # from the median to the 0.75-quantile, asin(3/4) - pi/6
        assert sep == pytest.approx(math.asin(math.sqrt(2) / 4), abs=1e-12)
        assert bound == pytest.approx(math.asin(0.75) - math.pi / 6, abs=1e-12)
        assert sep > bound + 0.03

    def test_needle_bounded_by_best_decomposition_component(self):
        # Finding (README "Findings"): a mixture can separate strictly better
        # than every component.  cos^2(t - pi/4) = (cos^2 + 2 sin cos +
        # sin^2) / 2 on [0, pi/2] at masses (0.25, 0.5) beats all three of
        # its binomial components.
        needle = normalize(
            SinAffineDensity(phase=math.pi / 4, power=2, interval=Interval(0.0, HALF_PI))
        )
        mp = MassPair(0.25, 0.5)
        needle_sep = sep_1d(needle, mp).sep
        dec = binomial_decompose(needle)
        comp_seps = {
            mk: sep_1d(
                normalize(TrigDensity(m=mk[0], k=mk[1], interval=needle.interval)), mp
            ).sep
            for coef, mk in dec.components
            if coef > 0
        }
        assert set(comp_seps) == {(2, 0), (1, 1), (0, 2)}
        # oracle: the needle's density is (1 + sin 2t) / (pi/2 + 1), with
        # median pi/4; its 0.25-quantile a solves a + (1 - cos 2a)/2 =
        # (pi/2 + 1)/4, and the separation is pi/4 - a
        a = brentq(
            lambda t: t + (1 - math.cos(2 * t)) / 2 - (HALF_PI + 1) / 4,
            0.0, math.pi / 4, xtol=1e-15,
        )
        assert needle_sep == pytest.approx(math.pi / 4 - a, abs=1e-12)
        # oracle: cos^2 has CDF (2t + sin 2t)/pi; sin^2 is its mirror image
        def cos2_quantile(q):
            return brentq(
                lambda t: (2 * t + math.sin(2 * t)) / math.pi - q, 0.0, HALF_PI, xtol=1e-15
            )

        cos2_sep = max(
            cos2_quantile(0.5) - cos2_quantile(0.25),
            cos2_quantile(0.75) - cos2_quantile(0.5),
        )
        assert comp_seps[(2, 0)] == pytest.approx(cos2_sep, abs=1e-12)
        assert comp_seps[(0, 2)] == pytest.approx(cos2_sep, abs=1e-12)
        # oracle: sin cos has CDF sin^2 t, so its quantiles are pi/6, pi/4, pi/3
        assert comp_seps[(1, 1)] == pytest.approx(math.pi / 12, abs=1e-12)
        assert needle_sep > max(comp_seps.values()) + 0.06

    def test_wider_order_needle_beats_half_period_bound(self):
        # Finding (README "Findings"): the half-period bound cos^(n-1) covers
        # sin^(n-1)-concave needles only.  At n = 2 the needle cos^2 t on
        # [-1.5, 1.5] is sin^2- but not sin^1-concave, and at masses
        # (0.02, 0.95) it separates more than the cosine needle.
        needle = normalize(
            SinAffineDensity(phase=1.5, power=2, interval=Interval(0.0, 3.0))
        )
        assert is_sin_concave(needle, 2) and not is_sin_concave(needle, 1)
        sep = sep_1d(needle, (0.02, 0.95)).sep
        bound = sphere_needle_bound(2, (0.02, 0.95)).bound
        # oracle: cos^2 t on [-1.5, 1.5] has CDF proportional to
        # t + sin(2t)/2 + 1.5 + sin(3)/2; by symmetry its best gap runs from
        # the 0.02-quantile to the 0.05-quantile
        total = 3.0 + math.sin(3.0)

        def quantile(q):
            return brentq(
                lambda t: (t + math.sin(2 * t) / 2 + 1.5 + math.sin(3.0) / 2) / total - q,
                -1.5, 1.5, xtol=1e-15,
            )

        assert sep == pytest.approx(quantile(0.05) - quantile(0.02), abs=1e-12)
        # oracle: the cosine needle has CDF (1 + sin t)/2
        assert bound == pytest.approx(math.asin(0.96) - math.asin(0.9), abs=1e-12)
        assert sep > bound + 5e-3


class TestBoundProfile:
    def test_sphere_slice_is_decreasing_to_zero(self):
        pairs = [(k1, 0.5) for k1 in np.linspace(0.1, 0.5, 5)]
        rows = bound_profile(lambda mp: sphere_needle_bound(2, mp), pairs)
        bounds = [r["bound"] for r in rows]
        assert all(a > b for a, b in zip(bounds, bounds[1:]))
        assert bounds[-1] == pytest.approx(0.0, abs=1e-12)

    def test_single_cell(self):
        rows = bound_profile(lambda mp: sphere_needle_bound(2, mp), [(0.3, 0.5)])
        assert len(rows) == 1
        assert rows[0]["family"] == "sphere-cos" and rows[0]["m"] == 1

    def test_cp2_grid_symmetric_under_swap(self):
        space = CrossSpace.complex_projective(2)
        grid = [0.1, 0.3, 0.5, 0.7, 0.9]
        pairs = [(a, b) for a in grid for b in grid]
        rows = bound_profile(
            lambda mp: cross_needle_bound(space, mp, force=True), pairs
        )
        assert len(rows) == 25
        by_pair = {(r["k1"], r["k2"]): r["bound"] for r in rows}
        for a in grid:
            for b in grid:
                assert by_pair[(a, b)] == pytest.approx(by_pair[(b, a)], abs=1e-12)

    def test_csv_emission(self):
        rows = bound_profile(lambda mp: sphere_needle_bound(2, mp), [(0.25, 0.5)])
        text = bound_profile_csv(rows)
        lines = text.splitlines()
        assert lines[0] == "k1,k2,bound,family,m,k"
        assert lines[1].startswith("0.25,0.5,")
        assert text.endswith("\n")

    def test_csv_writes_numpy_scalars_as_python_numbers(self):
        # a MassPair stores the numpy scalar it is given as a Python float
        # (its cell once read np.float64(0.25)); numpy cells of any other
        # source are written by their Python value
        rows = bound_profile(lambda mp: sphere_needle_bound(2, mp), [MassPair(np.float64(0.25), 0.5)])
        assert type(rows[0]["k1"]) is float
        assert bound_profile_csv(rows).splitlines()[1].startswith("0.25,0.5,")
        cells = [np.int64(3), np.float64(0.1), np.str_("cos"), None, "sin", 2, 0.5, True]
        assert _csv_row(cells) == "3,0.1,cos,,sin,2,0.5,True\n"

    def test_one_table_rule(self):
        assert _csv(("a", "b"), [(1, None), (np.float64(0.5), "x")]) == "a,b\n1,\n0.5,x\n"
        assert _csv(("a", "b"), []) == "a,b\n"
