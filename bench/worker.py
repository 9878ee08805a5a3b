"""One workload run in a fresh interpreter: the timed loop, the traced replay, the checks.

Started by ``bench/run.py`` with needle_iso on ``PYTHONPATH``; prints one
JSON object as its last line of standard output.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import calibration  # noqa: E402
import reference as ref  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def run_sequence(ops, prepared, lib, order, clock):
    """Run ops in the given order; returns (per-op (t0, t1, spent0, spent1), outputs)."""
    spans, outs = [], []
    for i in order:
        s0, t0 = clock.spent(), time.perf_counter()
        try:
            out = wl.run_op(ops[i], prepared[i], lib)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            out = exc
        spans.append((t0, time.perf_counter(), s0, clock.spent()))
        outs.append(out)
    return spans, outs


def timed_run(ops, prepared, lib, seed, seconds, min_epochs, clock):
    """Whole epochs until ``seconds`` have passed (at least ``min_epochs``)."""
    order, spans, outs = [], [], []
    start = time.perf_counter()
    epoch = 0
    while epoch < min_epochs or time.perf_counter() - start < seconds:
        sched = wl.schedule(ops, seed, epoch)
        e_spans, e_outs = run_sequence(ops, prepared, lib, sched, clock)
        order += sched
        spans += e_spans
        outs += e_outs
        epoch += 1
    return order, spans, outs, time.perf_counter() - start, epoch


def percentile(values, p):
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1] if len(values) > 1 else values[0]


def texts_of(ops, order, outs):
    return [
        f"error: {type(o).__name__}: {o}" if isinstance(o, Exception) else wl.serialize(ops[i], o)
        for i, o in zip(order, outs)
    ]


def check_outputs(ops, order, outs, texts, workload):
    """Per-occurrence failure flags, the largest absolute error, and problem notes."""
    cache = ref.Cache()
    failed = [isinstance(o, Exception) for o in outs]
    problems = [f"{ops[i]['key']}: {o!r}" for i, o in zip(order, outs) if isinstance(o, Exception)]
    first = {}
    for pos, i in enumerate(order):
        if i in first:
            if texts[pos] != texts[first[i]]:
                failed[pos] = True
                problems.append(f"{ops[i]['key']}: output differs from its first run at the same seed")
        elif not failed[pos]:
            first[i] = pos
    errs = []
    bad_ops = set()
    for i, pos in first.items():
        op, out = ops[i], outs[pos]
        try:
            if workload == "verify":
                notes, values = wl.check_verify(op, texts[pos])
                op_errs = [ref.abs_err(v, cache.get(json.dumps(key), lambda: wl.verify_reference(key)))
                           for v, key in values]
            else:
                entry = cache.get(op["key"], lambda: wl.reference_for(op, out))
                if op["kind"] == "affine_search" and entry["inputs_sha256"] != wl.sample_sha(out["all_samples"]):
                    entry = wl.reference_for(op, out)  # the library drew other samples: judge those
                op_errs, notes = wl.check(op, out, entry)
            notes += wl.error_problems(op_errs)
            errs += op_errs
        except (KeyError, TypeError, ValueError, AttributeError) as exc:  # malformed output
            notes = [f"unreadable output: {exc!r}"]
        if notes:
            bad_ops.add(i)
            problems += [f"{op['key']}: {n}" for n in notes]
    for pos, i in enumerate(order):
        if i in bad_ops:
            failed[pos] = True
    return failed, wl.max_abs_err(errs), len(errs), problems, cache.misses


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    import needle_iso as lib
    import needle_iso.cli  # noqa: F401  (the isoperimetry op calls lib.cli.main)

    ops = wl.universe(args.workload)
    prepared = wl.prepare(ops, lib)
    if args.workload != "verify":
        # first calls of each kind pay one-off numpy/scipy set-up; keep it out of the timing
        seen = set()
        for op, a in zip(ops, prepared):
            kind = (op["kind"], op.get("argv", [""])[0])
            if kind not in seen:
                seen.add(kind)
                wl.run_op(op, a, lib)
    # repeated verify rounds at one seed must give byte-identical reports
    min_epochs = 2 if args.workload == "verify" else 1
    with calibration.Clock() as clock:
        order, spans, outs, wall, epochs = timed_run(ops, prepared, lib, args.seed, args.seconds, min_epochs, clock)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lat = [clock.normalize(*span) for span in spans]
    raw = [t1 - t0 for t0, t1, _, _ in spans]
    texts = texts_of(ops, order, outs)

    metrics = {}
    extra_failed = 0
    if args.trace:
        # replay the first epoch traced: the same ops, so counts repeat exactly from run to run
        first = order[:len(ops)]
        with calibration.Clock() as t_clock:
            tracer = tracing.Tracer(spent=t_clock.spent).install()
            try:
                t_spans, t_outs = run_sequence(ops, prepared, lib, first, t_clock)
            finally:
                tracer.uninstall()
        extra_failed = sum(a != b for a, b in zip(texts, texts_of(ops, first, t_outs)))
        # self times in normalized milliseconds, like the end-to-end timings
        metrics = tracer.metrics(scale=t_clock.speed())
        t_lat = sum(t_clock.normalize(*span) for span in t_spans)
        metrics["trace.ops_per_s_ratio"] = {"value": sum(lat[:len(first)]) / t_lat, "unit": "ratio"}

    failed, max_err, n_err, problems, misses = check_outputs(ops, order, outs, texts, args.workload)
    if extra_failed:
        problems.append(f"{extra_failed} op outputs differ between the traced and untraced runs")
    p90 = percentile(lat, 90)
    if not args.trace:
        metrics = {
            "ops_per_s": {"value": len(order) / sum(lat), "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
            "op_p90_ms": {"value": p90 * 1e3, "unit": "ms"},
            "max_abs_err": {"value": max_err, "unit": "rad_or_vol"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    report_digests = {}
    if args.workload == "verify":
        for i, t in zip(order, texts):
            report_digests.setdefault(ops[i]["group"], wl.digest(t))
    result = {
        "attempted": len(order) + (len(ops) if args.trace else 0),
        "failed": sum(failed) + extra_failed,
        "metrics": metrics,
        "detail": {
            "ops": len(order),
            "distinct_ops": len(ops),
            "epochs": epochs,
            "wall_s": wall,
            "ops_beyond_p90": sum(x > p90 for x in lat),
            "raw_ops_per_s": len(order) / sum(raw),
            "raw_op_p50_ms": statistics.median(raw) * 1e3,
            "host_speed": clock.speed(),
            "clock_samples": len(clock.kernel_s),
            "checked_values": n_err,
            "reference_cache_misses": misses,
            "verify_report_sha256": report_digests,
            "problems": problems[:20],
        },
    }
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
