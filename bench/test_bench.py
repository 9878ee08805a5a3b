"""Tests of the benchmark itself: ``PYTHONPATH=src python -m pytest bench -q``."""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import needle_iso as lib  # noqa: E402
import needle_iso.cli  # noqa: E402,F401
import needle_iso.needle_bound  # noqa: E402

import calibration  # noqa: E402
import reference as ref  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402


def _first_ops(workload, seed, count):
    ops = wl.universe(workload)
    return ops, wl.prepare(ops, lib), wl.schedule(ops, seed, 0)[:count]


def test_workload_is_determined_by_its_seed():
    for workload in wl.WORKLOADS:
        a, b = wl.universe(workload), wl.universe(workload)
        assert [op["key"] for op in a] == [op["key"] for op in b]
        assert len({op["key"] for op in a}) == len(a)
        assert wl.schedule(a, 5, 0) == wl.schedule(b, 5, 0)
        assert wl.schedule(a, 5, 1) != wl.schedule(a, 5, 0)
    ops = wl.universe("needles")
    assert wl.schedule(ops, 5, 0) != wl.schedule(ops, 6, 0)


@pytest.mark.parametrize("workload,count", [("needles", 40), ("isoperimetry", 12), ("verify", 2)])
def test_traced_and_untraced_outputs_are_byte_identical(workload, count):
    ops, prepared, order = _first_ops(workload, 3, count)
    if workload == "verify":
        order = [wl.GROUPS.index("spaces"), wl.GROUPS.index("density")]
    with calibration.Clock() as clock:
        _, plain = worker.run_sequence(ops, prepared, lib, order, clock)
        tracer = tracing.Tracer(spent=clock.spent).install()
        try:
            _, traced = worker.run_sequence(ops, prepared, lib, order, clock)
        finally:
            tracer.uninstall()
    assert not any(isinstance(o, Exception) for o in plain + traced)
    assert worker.texts_of(ops, order, plain) == worker.texts_of(ops, order, traced)
    metrics = tracer.metrics()
    # the worker adds the overhead ratio and run.py the import times
    assert set(metrics) == {name for name in _declared_layer_names()
                            if name != "trace.ops_per_s_ratio" and not name.startswith("import.")}
    busy = {"needles": "separation.sep_1d.calls", "isoperimetry": "cli.main.calls",
            "verify": "quadrature.integrate.calls"}[workload]
    assert metrics[busy]["value"] > 0


def _declared_layer_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [m["name"] for m in json.load(fh)["per_layer"]]


def test_tracer_restores_every_binding():
    originals = (lib.sep_1d, lib.separation.sep_1d, lib.cli.sep_1d, lib.densities._DensityBase.quantile)
    tracer = tracing.Tracer().install()
    assert lib.cli.sep_1d is not originals[2]
    assert lib.oracles.sep_1d is lib.cli.sep_1d  # every import site sees the same wrapper
    tracer.uninstall()
    assert (lib.sep_1d, lib.separation.sep_1d, lib.cli.sep_1d, lib.densities._DensityBase.quantile) == originals


def test_tracer_copes_with_a_removed_function(monkeypatch):
    monkeypatch.delattr(needle_iso.needle_bound, "batch_trig_sep")
    targets = dict(tracing.TARGETS)
    targets["needle_bound.batch_sep"] = (
        ["needle_iso.needle_bound:batch_trig_sep", "needle_iso.needle_bound:batch_affine_sep"], {})
    targets["needle_bound.gone"] = (["needle_iso.needle_bound:batch_trig_sep", "needle_iso.nowhere:f"], {})
    tracer = tracing.Tracer(targets).install()
    try:
        lib.optimize_affine_family(1.5, [1.0, 2.0], (0.3, 0.6), 20, 1)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert "needle_bound.gone.calls" not in metrics
    assert metrics["needle_bound.batch_sep.calls"]["value"] == 1  # batch_affine_sep still traced
    assert metrics["needle_bound.affine_search.samples"]["value"] == 20


def test_span_self_time_excludes_children():
    tracer = tracing.Tracer().install()
    try:
        lib.sphere_needle_bound(4, (0.3, 0.6))
    finally:
        tracer.uninstall()
    st = tracer.stats
    assert st["needle_bound.sphere"]["calls"] == 1
    assert st["separation.sep_1d"]["calls"] == 1
    assert st["densities.quantile"]["calls"] == 1
    assert st["densities.cdf"]["calls"] == 64  # one CDF evaluation per bisection step
    # the constructor, then normalize (whose rebuild nests inside it and counts once)
    assert st["densities.build"]["calls"] == 2
    assert min(s["self_s"] for s in st.values()) >= 0.0


@pytest.mark.parametrize("shift", [0.3, 1e-6, math.nan])
def test_an_output_off_its_reference_fails_its_op(shift):
    ops = wl.universe("needles")
    order = [i for i, op in enumerate(ops) if op["kind"] == "sphere"][:3]
    outs = [lib.sphere_needle_bound(ops[i]["n"], (ops[i]["k1"], ops[i]["k2"])) for i in order]
    outs[1] = dataclasses.replace(outs[1], bound=outs[1].bound + shift)
    texts = worker.texts_of(ops, order, outs)
    failed, max_err, n_err, problems, _ = worker.check_outputs(ops, order, outs, texts, "needles")
    assert failed == [False, True, False]
    assert n_err == 3 and len(problems) == 1
    assert max_err == math.inf if math.isnan(shift) else abs(max_err - shift) < 1e-9


def test_max_abs_err_is_floored_and_nan_safe():
    assert wl.max_abs_err([]) == wl.ERR_FLOOR
    assert wl.max_abs_err([1e-16, 3e-12]) == 3e-12
    assert wl.max_abs_err([1e-12, math.nan, 1e-13]) == math.inf


def test_cross_needle_count_follows_the_grid_the_call_used():
    space = lib.space_by_name("cp2")
    tracer = tracing.Tracer().install()
    try:
        lib.cross_needle_bound(space, (0.3, 0.6), max_total_power=6)
    finally:
        tracer.uninstall()
    assert tracer.stats["needle_bound.cross"]["needles"] == 4 + 5 + 6 + 7  # m + k = 3..6


def test_reference_beta_reduction_matches_quadrature():
    assert ref.self_check() < 1e-25


def test_reference_reproduces_closed_forms():
    half = 1.5707963267948966
    s, _ = ref.sep(ref.ShiftedCos(1, 0.0, -half, half), 0.25, 0.25)
    assert abs(s - ref.mp.pi / 3) < 1e-30
    # README witness value 0.324463: the sine needle's pi/3 - acos(3/4)
    best, near = ref.cross_bound(2, 0.25, 0.5, half, 8)
    assert abs(best - (ref.mp.pi / 3 - ref.mp.acos(0.75))) < 1e-30
    assert near == [[0, 1], [1, 0]]


def test_group_reports_make_up_the_all_report():
    whole = lib.run_property_suite("all", wl.VERIFY_SEED)
    parts = [lib.run_property_suite(g, wl.VERIFY_SEED) for g in wl.GROUPS]
    assert json.dumps([c for p in parts for c in p["checks"]]) == json.dumps(whole["checks"])


def test_bench_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "needles", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
