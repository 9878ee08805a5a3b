"""One input contract over the whole public surface.

``_CONTRACT`` maps every public callable of ``needle_iso`` to the kinds of
its checked parameters, by the names of ``errors._KINDS``.  Each parameter
takes, as explicit examples of a derandomized hypothesis test, values of
every wrong sort -- bools, strings, None, NaN, infinities, 1e308, -0.0, a
subnormal, numpy scalars, 0-d, empty, 2-D and ragged arrays, sequences
holding a bool -- and the kind's listed valid values; the draws add
numbers on both sides of the kind's rule.  Every call must return a result
whose floats are all finite, or raise a ``NeedleIsoError``: no bare Python
error, no warning (pytest turns warnings into errors) and no NaN.
"""

import dataclasses
import math
from collections.abc import Mapping
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from test_cross_spaces import _CANDIDATE_ENTRIES, _SPACE_ENTRIES

import needle_iso
from needle_iso import (
    Candidate,
    CrossSpace,
    Interval,
    MassPair,
    NeedleIsoError,
    OutOfDomain,
    RngSpec,
    SinAffineDensity,
    SolveRequest,
    TabulatedDensity,
    TrigDensity,
    ZeroMass,
    batch_affine_sep,
    batch_sep,
    batch_trig_sep,
    binomial_decompose,
    bound_profile,
    catalog,
    check_comparison_lemma,
    cross_needle_bounds,
    density_from_dict,
    integrate,
    is_sin_concave,
    mc_cap_mass,
    normalize,
    optimize_affine_family,
    run_property_suite,
    sep_1d,
    sep_1d_bruteforce,
    sin_concavity_margin,
    solve_isoperimetric,
    space_by_name,
    sphere_needle_bound,
    trig_mass,
)
from needle_iso.errors import _KINDS

HALF_PI = math.pi / 2
IV = Interval(0.0, 1.0)
CP2 = space_by_name("cp2")
TRIG = normalize(TrigDensity(2.0, 1.0, IV))
AFFINE = normalize(SinAffineDensity(0.3, 2.0, IV))
TABULATED = TabulatedDensity([0.0, 0.5, 1.0], [1.0, 2.0, 1.0])
COS2 = normalize(TrigDensity(2.0, 0.0, Interval(0.0, 1.2)))


def _cos2(t):
    return np.cos(t) ** 2


# Public name -> {parameter: kind}.  A record the library returns (a result,
# a report) has no checked parameter.  Exception classes are not inputs.
_CONTRACT = {
    "BinomialDecomposition": {},
    "Candidate": {"a": "exponent", "b": "exponent"},
    "ComparisonReport": {},
    "CrossSpace": {"n": "integer", "index": "integer"},
    "Interval": {"lo": "angle", "hi": "angle"},
    "MassPair": {"k1": "mass", "k2": "mass"},
    "NeedleBoundResult": {},
    "RngSpec": {"seed": "count"},
    "SeparationResult": {},
    "SinAffineDensity": {"phase": "angle", "power": "exponent", "interval": "interval", "norm": "norm"},
    "SinConcavityMargin": {},
    "SolveRequest": {"space": "space", "v": "volume", "epsilon": "epsilon"},
    "SolveResult": {},
    "TabulatedDensity": {"grid": "reals", "values": "reals", "norm": "norm"},
    "TrigDensity": {"m": "exponent", "k": "exponent", "interval": "interval", "norm": "norm"},
    "batch_affine_sep": {
        "phase": "reals", "power": "reals", "lo": "reals", "hi": "reals", "k1": "masses", "k2": "masses",
    },
    "batch_sep": {"density": "density", "k1": "masses", "k2": "masses"},
    "batch_trig_sep": {"m": "reals", "k": "reals", "lo": "reals", "hi": "reals", "k1": "masses", "k2": "masses"},
    "binomial_decompose": {"affine": "density"},
    "bound_profile": {"bound_fn": "callable", "mass_pairs": "mass pairs"},
    "bound_profile_csv": {},
    "catalog": {"space": "space"},
    "catalog_to_dict": {"space": "space"},
    "check_comparison_lemma": {
        "f": "callable", "order": "order", "epsilon": "real", "k": "exponent", "grid_size": "count",
        "interval": "interval",
    },
    "check_main_inequality": {
        "space": "space", "masses": "mass pair", "mc_samples": "count", "seed": "count", "threads": "count",
    },
    "check_realization": {"space": "space", "candidate": "candidate", "masses": "mass pair"},
    "cross_needle_bound": {"space": "space", "masses": "mass pair", "max_total_power": "integer"},
    "cross_needle_bounds": {"space": "space", "mass_pairs": "mass pairs", "max_total_power": "integer"},
    "density_from_dict": {"lo": "angle", "hi": "angle", "m": "exponent", "k": "exponent"},
    "enlarged_volume": {"candidate": "candidate", "space": "space", "v": "fractions", "epsilon": "epsilon"},
    "integrate": {"f": "callable", "a": "angle", "b": "angle", "atol": "epsilon"},
    "is_sin_concave": {
        "f": "callable", "order": "order", "interval": "interval", "grid_size": "count", "tol": "exponent",
    },
    "isoperimetric_profile_curve": {"space": "space", "epsilon": "epsilon", "v_grid": "volume grid"},
    "mc_cap_mass": {
        "n": "count", "cap_radius": "radii", "samples": "count", "rng": "count", "stream": "count", "threads": "count",
    },
    "normalize": {"density": "density"},
    "optimize_affine_family": {
        "interval_length_max": "length", "p_range": "powers", "masses": "mass pair", "samples": "count",
        "seed": "count",
    },
    "polar_of": {"candidate": "candidate", "space": "space"},
    "profile_cdf": {"candidate": "candidate", "space": "space", "r": "radii"},
    "profile_curve_csv": {},
    "profile_quantile": {"candidate": "candidate", "space": "space", "v": "fractions"},
    "radial_density": {"candidate": "candidate", "space": "space"},
    "report_to_json": {},
    "run_property_suite": {"rng": "count", "threads": "count", "mc_samples": "count"},
    "sep_1d": {"density": "density", "masses": "mass pair"},
    "sep_1d_bruteforce": {"density": "density", "masses": "mass pair", "grid_size": "count"},
    "sin_concavity_margin": {"density": "density", "order": "order"},
    "solve_isoperimetric": {"space": "space", "v": "volume", "epsilon": "epsilon"},
    "solve_with_complement_reduction": {"space": "space", "v": "volume", "epsilon": "epsilon"},
    "space_by_name": {"name": "space name"},
    "sphere_needle_bound": {"n": "dimension", "masses": "mass pair"},
    "trig_mass": {"m": "exponent", "k": "exponent", "lo": "angle", "hi": "angle"},
}

# Public name -> a call with valid arguments, any of which a keyword
# replaces.  A space or a candidate is fuzzed through the entries of
# test_cross_spaces instead.
_CALLS = {
    "Candidate": lambda a=1.0, b=2.0: Candidate("off-catalog", a, b, "off-catalog"),
    "CrossSpace": lambda n=3, index=2: (
        CrossSpace.sphere(n), CrossSpace.real_projective(n), CrossSpace.complex_projective(n),
        CrossSpace("complex-projective", index),
    ),
    "Interval": lambda lo=0.2, hi=1.3: Interval(lo, hi),
    "MassPair": lambda k1=0.3, k2=0.6: MassPair(k1, k2),
    "RngSpec": lambda seed=7: RngSpec(seed).generator().random(),
    "SinAffineDensity": lambda phase=0.3, power=2.0, interval=IV, norm=None: (
        SinAffineDensity(phase, power, interval, norm).cdf(0.5)
    ),
    "SolveRequest": lambda v=0.3, epsilon=0.1: SolveRequest(CP2, v, epsilon),
    "TabulatedDensity": lambda grid=(0.0, 0.5, 1.0), values=(1.0, 2.0, 1.0), norm=None: (
        (d := TabulatedDensity(grid, values, norm)).cdf(0.5), d.pdf(0.5)
    ),
    "TrigDensity": lambda m=2.0, k=1.0, interval=IV, norm=None: TrigDensity(m, k, interval, norm).quantile(0.5),
    "batch_affine_sep": lambda phase=0.3, power=2.0, lo=0.0, hi=1.0, k1=0.3, k2=0.6: batch_affine_sep(
        phase, power, lo, hi, k1, k2
    ),
    "batch_sep": lambda density=TRIG, k1=(0.3, 0.5), k2=0.6: batch_sep(density, k1, k2),
    "batch_trig_sep": lambda m=2.0, k=1.0, lo=0.0, hi=1.0, k1=0.3, k2=0.6: batch_trig_sep(m, k, lo, hi, k1, k2),
    "binomial_decompose": lambda affine=AFFINE: binomial_decompose(affine).masses,
    "bound_profile": lambda mass_pairs=((0.3, 0.6),): bound_profile(lambda mp: sphere_needle_bound(3, mp), mass_pairs),
    "check_comparison_lemma": lambda order=2.0, epsilon=0.3, k=1.0, grid_size=64, interval=None: (
        check_comparison_lemma(COS2, order, epsilon, k, interval=interval, grid_size=grid_size)
    ),
    "check_main_inequality": lambda masses=(0.3, 0.5), mc_samples=200, seed=1, threads=1: (
        needle_iso.check_main_inequality(space_by_name("s2"), masses, mc_samples, seed, threads)
    ),
    "check_realization": lambda masses=(0.3, 0.6): needle_iso.check_realization(CP2, catalog(CP2)[0], masses),
    "cross_needle_bound": lambda masses=(0.3, 0.6), max_total_power=None: needle_iso.cross_needle_bound(
        CP2, masses, max_total_power, force=True
    ),
    "cross_needle_bounds": lambda mass_pairs=((0.3, 0.6),), max_total_power=None: cross_needle_bounds(
        CP2, mass_pairs, max_total_power, force=True
    ),
    "density_from_dict": lambda lo=0.0, hi=1.0, m=2.0, k=1.0: density_from_dict(
        {"family": "trig", "lo": lo, "hi": hi, "m": m, "k": k}
    ).cdf(0.5),
    "enlarged_volume": lambda v=0.3, epsilon=0.1: needle_iso.enlarged_volume(catalog(CP2)[0], CP2, v, epsilon),
    "integrate": lambda a=0.0, b=1.0, atol=1e-12: integrate(np.cos, a, b, atol=atol),
    "is_sin_concave": lambda order=2.0, interval=IV, grid_size=64, tol=1e-9: is_sin_concave(
        _cos2, order, interval=interval, grid_size=grid_size, tol=tol
    ),
    "isoperimetric_profile_curve": lambda epsilon=0.1, v_grid=(0.1, 0.3, 0.5): (
        needle_iso.isoperimetric_profile_curve(CP2, epsilon, v_grid)
    ),
    "mc_cap_mass": lambda n=2, cap_radius=1.0, samples=200, rng=1, stream=0, threads=1: mc_cap_mass(
        n, cap_radius, samples, rng, stream=stream, threads=threads
    ),
    "normalize": lambda density=TRIG: normalize(density),
    "optimize_affine_family": lambda interval_length_max=1.5, p_range=(1, 2), masses=(0.3, 0.6), samples=20, seed=3: (
        optimize_affine_family(interval_length_max, p_range, masses, samples, seed)
    ),
    "profile_cdf": lambda r=0.4: needle_iso.profile_cdf(catalog(CP2)[0], CP2, r),
    "profile_quantile": lambda v=0.3: needle_iso.profile_quantile(catalog(CP2)[0], CP2, v),
    "run_property_suite": lambda rng=5, threads=1, mc_samples=100: run_property_suite(
        "spaces", rng, threads=threads, mc_samples=mc_samples
    ),
    "sep_1d": lambda density=TRIG, masses=(0.3, 0.6): sep_1d(density, masses),
    "sep_1d_bruteforce": lambda density=TRIG, masses=(0.3, 0.6), grid_size=64: sep_1d_bruteforce(
        density, masses, grid_size
    ),
    "sin_concavity_margin": lambda density=TRIG, order=3.0: sin_concavity_margin(density, order),
    "solve_isoperimetric": lambda v=0.3, epsilon=0.1: solve_isoperimetric(SolveRequest(CP2, v, epsilon)).to_dict(),
    "solve_with_complement_reduction": lambda v=0.7, epsilon=0.1: needle_iso.solve_with_complement_reduction(
        CP2, v, epsilon
    ).to_dict(),
    "space_by_name": lambda name="cp2": space_by_name(name),
    "sphere_needle_bound": lambda n=3, masses=(0.3, 0.6): sphere_needle_bound(n, masses, force=True),
    "trig_mass": lambda m=2.0, k=1.0, lo=0.0, hi=1.0: trig_mass(m, k, lo, hi),
}

# Public name -> a call with valid arguments but its callable, and no item
# for the callable to map: the library checks that a callable parameter is
# callable, before any item, and what a callable does is the caller's.
_CALLABLE_ENTRIES = {
    "bound_profile": lambda f: bound_profile(f, ()),
    "check_comparison_lemma": lambda f: check_comparison_lemma(
        f, 2.0, 0.3, 1.0, interval=Interval(0.0, 1.2), grid_size=64
    ),
    "integrate": lambda f: integrate(f, 0.0, 1.0),
    "is_sin_concave": lambda f: is_sin_concave(f, 2.0, interval=IV, grid_size=64),
}

# Values of the wrong sort for every kind: whatever the rule, none may leak
# a bare Python error.
_JUNK = [
    True, False, np.bool_(True), None, "0.3", "", "cp2", b"1", 1j, object(),
    math.nan, math.inf, -math.inf, 1e308, -1e308, -0.0, 5e-324,
    np.float32(0.3), np.float16(0.5), np.int8(-1), np.uint8(3), np.float64(math.nan), np.int64(2),
    np.array(0.3), np.array(2), np.array([]), np.array([[0.3, 0.6], [0.5, 0.5]]), np.array(["a"]),
    np.array([0.3, None], dtype=object), [[0.3], [0.3, 0.6]], [0.3, True], (True, 0.5), [np.bool_(False)],
    [0.3, 0.6], (0.3,), [], {"lo": 0.0}, Interval(0.0, 1.0), TRIG, CP2, catalog(CP2)[0], _cos2,
]
_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
_FLOATS = st.lists(_FLOAT, max_size=4)
_SCALAR = _FLOAT | st.integers(-10, 10)
_ARRAY = _FLOAT | _FLOATS | _FLOATS.map(np.array) | st.lists(_FLOATS, min_size=1, max_size=3)
# Counts stay small: a valid count this large is an allocation, not a check.
# A seed is a count too, and draws one far past 64 bits as well.
_COUNT = st.integers(-5, 8)
_SEEDS = ("seed", "rng", "stream")
_INTEGER = st.integers(-5, 40) | st.floats(-50.0, 50.0)
_NUMBERS = {
    **dict.fromkeys(
        ("real", "angle", "exponent", "order", "epsilon", "length", "mass", "volume"), _SCALAR
    ),
    **dict.fromkeys(("reals", "masses", "fractions", "volume grid", "abscissae", "radii", "powers"), _ARRAY),
    "count": _COUNT,
    "integer": _INTEGER,
    "dimension": _INTEGER,
    "mass pair": st.tuples(_SCALAR, _SCALAR) | st.lists(_SCALAR, max_size=3),
    "mass pairs": st.lists(st.tuples(_FLOAT, _FLOAT), max_size=3),
    "space name": st.text(max_size=6),
    "norm": _SCALAR | st.none(),
}
# The valid values of each kind the rows draw besides their defaults.
_VALID = {
    "space": [space_by_name(n) for n in ("s2", "s3", "rp3", "cp2", "hp2", "cap2")],
    "candidate": [*catalog(CP2), *catalog(space_by_name("hp2")), Candidate("off-catalog", 1.0, 2.0, "x")],
    "interval": [IV, Interval(0.2, 1.3), Interval(-HALF_PI, HALF_PI), Interval(0.0, math.pi)],
    "density": [TRIG, AFFINE, TABULATED, COS2, normalize(TrigDensity(0.0, 3.0, Interval(0.0, math.pi)))],
    "space name": ["s2", "rp3", " CP2 ", "hp1", "cap2", "cap3"],
    "mass pair": [(0.3, 0.6), MassPair(0.25, 0.5), np.array([0.5, 0.5]), (np.float32(0.1), 1)],
    "norm": [None, 1.0, 2, 0.25, np.float64(3.0)],
    "callable": [_cos2, np.cos, np.exp],
}


def _call(name, param, value):
    """The row's call with ``value`` for ``param``: a space or a candidate
    through test_cross_spaces' entries, a callable through
    ``_CALLABLE_ENTRIES``, anything else through ``_CALLS``."""
    if param == "space":
        return _SPACE_ENTRIES[name](value)
    if param == "candidate":
        return _CANDIDATE_ENTRIES[name](value)
    if _CONTRACT[name][param] == "callable":
        return _CALLABLE_ENTRIES[name](value)
    return _CALLS[name](**{param: value})


def _floats(out):
    """Every float a result holds, through mappings, sequences, arrays and
    dataclass fields."""
    if isinstance(out, (float, np.floating)):
        yield float(out)
    elif isinstance(out, np.ndarray) and out.dtype.kind in "fc":
        yield from out.ravel().tolist()
    elif isinstance(out, Mapping):
        for v in out.values():
            yield from _floats(v)
    elif isinstance(out, (list, tuple)):
        for v in out:
            yield from _floats(v)
    elif dataclasses.is_dataclass(out) and not isinstance(out, type):
        for f in dataclasses.fields(out):
            yield from _floats(getattr(out, f.name))


_CASES = [(name, param) for name, row in sorted(_CONTRACT.items()) for param in row]


def test_every_public_callable_has_a_row():
    callables = {
        name for name in needle_iso.__all__
        if callable(obj := getattr(needle_iso, name))
        and not (isinstance(obj, type) and issubclass(obj, NeedleIsoError))
    }
    assert set(_CONTRACT) == callables


def test_rows_name_kinds_of_the_table_and_the_shared_entries():
    assert {kind for row in _CONTRACT.values() for kind in row.values()} <= set(_KINDS)
    assert {name for name, row in _CONTRACT.items() if "space" in row} == set(_SPACE_ENTRIES)
    assert {name for name, row in _CONTRACT.items() if "candidate" in row} == set(_CANDIDATE_ENTRIES)
    for name, param in _CASES:
        assert param in ("space", "candidate") or name in _CALLS, (name, param)


def test_every_callable_row_has_its_entry():
    assert {name for name, row in _CONTRACT.items() if "callable" in row.values()} == set(_CALLABLE_ENTRIES)


@pytest.mark.parametrize("name, param", _CASES, ids=[f"{n}-{p}" for n, p in _CASES])
def test_a_call_returns_finite_floats_or_raises_a_typed_error(name, param):
    # every wrong sort and every listed valid value runs as an explicit
    # example; the draws add numbers on both sides of the kind's rule
    kind = _CONTRACT[name][param]
    values = _NUMBERS.get(kind, st.sampled_from(_VALID.get(kind, [None])))
    if param in _SEEDS:
        values = values | st.just(2**70)

    @settings(max_examples=20, derandomize=True, deadline=None, suppress_health_check=list(HealthCheck))
    @given(value=values)
    def check(value):
        try:
            out = _call(name, param, value)
        except NeedleIsoError:
            return
        assert all(math.isfinite(x) for x in _floats(out)), (value, out)

    for value in _JUNK + _VALID.get(kind, []):
        check = example(value=value)(check)
    check()


@pytest.mark.parametrize("name", sorted(_CALLS))
def test_the_valid_call_of_each_row_succeeds(name):
    # the fuzzed calls differ from these in one argument only
    assert all(math.isfinite(x) for x in _floats(_CALLS[name]()))


# Inputs that leaked a bare Python error or a silent answer before the kind
# rules covered them.
_LEAKS = {
    "interval-string": (lambda: Interval("0.3", 1.0), OutOfDomain),
    "interval-none": (lambda: Interval(None, 1.0), OutOfDomain),
    "interval-list": (lambda: Interval([0.3], 1.0), OutOfDomain),
    "interval-array": (lambda: Interval(np.array([0.3, 0.4]), 1.0), OutOfDomain),
    "interval-bool": (lambda: Interval(False, 1), OutOfDomain),
    "trig-list-exponent": (lambda: TrigDensity([0.3], 1, IV), OutOfDomain),
    "affine-array-phase": (lambda: SinAffineDensity(np.array([0.3, 0.4]), 0.2, IV), OutOfDomain),
    "trig-mass-array-exponent": (lambda: trig_mass(np.array([0.3, 0.4]), 1, 0, 1), OutOfDomain),
    "trig-mass-list-end": (lambda: trig_mass(2, 1, [0.3], 1), OutOfDomain),
    "cross-bounds-int-pairs": (lambda: cross_needle_bounds(CP2, 5), OutOfDomain),
    "bound-profile-none": (lambda: bound_profile(lambda mp: sphere_needle_bound(2, mp), None), OutOfDomain),
    "lemma-infinite-k": (
        lambda: check_comparison_lemma(_cos2, 2, 0.3, math.inf, interval=Interval(0.0, 1.2)), OutOfDomain,
    ),
    "lemma-underflowed-weight": (
        lambda: check_comparison_lemma(_cos2, 2, 0.3, 2e4, interval=Interval(0.0, 1.2)), ZeroMass,
    ),
    "trig-pdf-outside": (lambda: normalize(TrigDensity(2, 1, Interval(0.0, 1.2))).pdf(1.5), OutOfDomain),
    "tabulated-pdf-outside": (lambda: TabulatedDensity([0.0, 1.0, 2.0], [1.0, 1.0, 1.0]).pdf(5.0), OutOfDomain),
    "pdf-nan": (lambda: TRIG.pdf(math.nan), OutOfDomain),
    "norm-string": (lambda: TrigDensity(1, 1, IV, norm="x").pdf(0.5), OutOfDomain),
    "norm-list": (lambda: TrigDensity(1, 1, IV, norm=[1.0]).pdf(0.5), OutOfDomain),
    "norm-negative": (lambda: TrigDensity(1, 1, IV, norm=-2.0).pdf(0.5), OutOfDomain),
    "norm-nan": (lambda: SinAffineDensity(0.3, 2.0, IV, norm=math.nan).pdf(0.5), OutOfDomain),
    "tabulated-norm-zero": (lambda: TabulatedDensity([0.0, 1.0], [1.0, 1.0], norm=0.0).pdf(0.5), OutOfDomain),
    "tabulated-norm-overflow": (lambda: TabulatedDensity([0.0, 0.5, 1.0], [1, 2, 1], norm=1e308).pdf(0.5), OutOfDomain),
    "integrate-none": (lambda: integrate(None, 0, 1), OutOfDomain),
    "is-sin-concave-none": (lambda: is_sin_concave(None, 2, interval=IV), OutOfDomain),
    "lemma-none": (lambda: check_comparison_lemma(None, 2, 0.3, 0, interval=Interval(0.0, 1.2)), OutOfDomain),
    "bound-profile-none-fn": (lambda: bound_profile(None, [(0.3, 0.6)]), OutOfDomain),
    "bound-profile-none-fn-no-pairs": (lambda: bound_profile(None, []), OutOfDomain),
    # hand-built spaces: a list in a field, an index under the family's
    # least (an empty catalog), and a Cayley plane other than CaP^2
    "space-list-family": (lambda: CrossSpace(["complex-projective"], 2), OutOfDomain),
    "space-list-index": (lambda: CrossSpace("complex-projective", [2]), OutOfDomain),
    "space-index-0": (lambda: CrossSpace("complex-projective", 0), OutOfDomain),
    "space-cayley-3": (lambda: CrossSpace("cayley-plane", 3), OutOfDomain),
    "space-name-cap3": (lambda: space_by_name("cap3"), OutOfDomain),
}


@pytest.mark.parametrize("leak", sorted(_LEAKS))
def test_a_former_leak_raises_its_typed_error(leak):
    call, error = _LEAKS[leak]
    with pytest.raises(error):
        call()


def test_the_readme_input_rules_are_the_table():
    # one README row per kind, with the table's rule text and error type
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Input rules\n", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 4 and cells[0].startswith("`"):
            rows[cells[0].strip("`")] = (cells[2], cells[3].strip("`"))
    assert rows == {kind: (rule, error.__name__) for kind, (_, _, error, rule, _) in _KINDS.items()}


_BUILDERS = {
    "sphere": CrossSpace.sphere,
    "real-projective": CrossSpace.real_projective,
    "complex-projective": CrossSpace.complex_projective,
    "quaternionic-projective": CrossSpace.quaternionic_projective,
    "cayley-plane": lambda n: CrossSpace.cayley_plane(),
}


@pytest.mark.parametrize("family", sorted(_BUILDERS))
def test_the_raw_constructor_builds_the_named_space(family):
    space = CrossSpace(family, 2)
    assert space == _BUILDERS[family](2) == space_by_name(space.name)


@pytest.mark.parametrize(
    "family", ["", "Sphere", "sphere ", "cp", "cayley", "x", None, ["sphere"], 3, 2.0, True, ("sphere",)]
)
def test_the_raw_constructor_refuses_another_family(family):
    for index in (1, 2, 3):
        with pytest.raises(OutOfDomain, match="family must be one of"):
            CrossSpace(family, index)


def test_a_space_is_its_family_and_index():
    # the constructor once took these hand-set fields and answered with them:
    # rp5's bound labelled rp3, and a cp2 of diameter 1 that solved to 0.437931
    for fields in (("real-projective", 3, 5, HALF_PI, (2, 0)), ("complex-projective", 2, 4, 1.0, (3, 1))):
        with pytest.raises(TypeError):
            CrossSpace(*fields)
    rp3 = CrossSpace("real-projective", 3)
    assert (rp3.dim, rp3.diameter) == (3, HALF_PI)
    assert cross_needle_bounds(rp3, [(0.3, 0.6)])[0].bound == pytest.approx(0.1108227, abs=1e-7)
    assert solve_isoperimetric(SolveRequest(CP2, 0.3, 0.1)).enlarged == pytest.approx(0.416867, abs=1e-6)
    # replace re-runs the rules and cannot set a derived value
    for derived in ({"dim": 5}, {"diameter": 1.0}):
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(rp3, **derived)
    assert dataclasses.replace(rp3, index=5) == CrossSpace.real_projective(5)
    with pytest.raises(OutOfDomain):
        dataclasses.replace(rp3, index=1)
