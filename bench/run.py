"""needle-iso benchmark: one workload, one seed, one line of JSON results.

Usage, from the root of a checkout::

    python3 bench/run.py --workload needles|isoperimetry|verify \\
        --seed N --seconds S --trace 0|1

With ``--trace 0`` it reports the end-to-end metrics: ``setup_s`` (median
import time of ``needle_iso`` and ``needle_iso.cli`` over several fresh
interpreters), then from one fresh worker interpreter ``ops_per_s``,
``op_p50_ms``, ``op_p90_ms``, ``max_abs_err`` (against 40-digit mpmath
references) and ``peak_rss_mb``.  Timings are normalized to a reference
host speed by ``calibration.Clock`` (the raw wall-clock figures are printed
beside them), because this kind of shared host changes speed by up to 2x
for seconds at a time.  With ``--trace 1`` it reports the
per-layer metrics of a traced replay of the same ops, the import time of
each heavy module, and the traced/untraced ops/s ratio.

Every workload is a closed loop with one client in one process and one
thread; BLAS/OpenMP thread variables are pinned to 1 in the workers.  The
last line of standard output is the JSON result; the lines before it give
machine facts, sample counts and ``failed_frac``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("needles", "isoperimetry", "verify")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NEEDLE_ISO_THREADS")
SETUP_REPEATS = 7
IMPORT_MODULES = {"needle_iso": "needle_iso", "scipy.special": "scipy_special",
                  "scipy.optimize": "scipy_optimize", "numpy": "numpy"}
DEADLINE_S = 170.0
# times the import, then the calibration kernel in the same process (so on the
# same CPU, whose speed may differ from the other's), and prints both figures
IMPORT_SNIPPET = """
import sys, time
t = time.perf_counter()
import needle_iso, needle_iso.cli
raw = time.perf_counter() - t
sys.path.insert(0, sys.argv[1])
import calibration
calibration.kernel()
k = []
for _ in range(30):
    t = time.perf_counter()
    calibration.kernel()
    k.append(time.perf_counter() - t)
print(raw, raw * calibration.REF_KERNEL_S / calibration.typical(k))
"""


def worker_env(src):
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(cmd, env, timeout):
    """Run a child to completion; on timeout it is killed and reaped by subprocess.run."""
    return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=max(timeout, 1.0), check=True)


def setup_seconds(env, deadline):
    """Median import time over fresh interpreters (after one warm-up): normalized
    by the host speed each child measured right after its import, and raw."""
    times, raw = [], []
    for i in range(SETUP_REPEATS + 1):
        out = run_child([sys.executable, "-c", IMPORT_SNIPPET, HERE], env, deadline - time.monotonic())
        if i:
            r, normalized = map(float, out.stdout.split())
            raw.append(r)
            times.append(normalized)
    return statistics.median(times), statistics.median(raw)


def import_times(env, deadline, repeats=3):
    """Cumulative import time per heavy module, from ``python -X importtime``."""
    samples = {name: [] for name in IMPORT_MODULES.values()}
    for _ in range(repeats):
        out = run_child([sys.executable, "-X", "importtime", "-c", "import needle_iso, needle_iso.cli"],
                        env, deadline - time.monotonic())
        for line in out.stderr.splitlines():
            parts = [x.strip() for x in line.split("|")]
            if len(parts) == 3 and parts[2] in IMPORT_MODULES:
                samples[IMPORT_MODULES[parts[2]]].append(int(parts[1]) / 1e3)
    return {f"import.{name}_ms": {"value": statistics.median(v) if v else 0.0, "unit": "ms"}
            for name, v in samples.items()}


def machine_facts():
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        **versions,
        "thread_env_in_workers": {var: "1" for var in THREAD_VARS},
        "thread_env_outside": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "needle_iso", "__init__.py")):
        sys.exit("bench: src/needle_iso not found; run from the root of a needle-iso checkout")
    env = worker_env(src)

    facts = machine_facts()
    print("machine " + json.dumps(facts, sort_keys=True))
    try:
        if args.trace:
            pre = import_times(env, deadline)
        else:
            setup_s, raw_setup_s = setup_seconds(env, deadline)
            pre = {"setup_s": {"value": setup_s, "unit": "s"}}
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = run_child(cmd, env, deadline - time.monotonic())
    except subprocess.CalledProcessError as exc:
        sys.stderr.write(exc.stderr or "")
        sys.exit(f"bench: {exc.cmd[1]} exited with code {exc.returncode}")
    except subprocess.TimeoutExpired:
        sys.exit(f"bench: no result within {DEADLINE_S:.0f} s")
    res = json.loads(out.stdout.strip().splitlines()[-1])
    metrics = {**pre, **res["metrics"]}
    d = res["detail"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {d['ops']} ops "
          f"({d['distinct_ops']} distinct, {d['epochs']} epochs) in {d['wall_s']:.2f} s")
    for name, m in sorted(metrics.items()):
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  host speed {d['host_speed']:.3f} of the reference ({d['clock_samples']} clock samples); "
          f"raw wall-clock: {d['raw_ops_per_s']:.4g} ops/s, p50 {d['raw_op_p50_ms']:.4g} ms")
    if not args.trace:
        print(f"  raw setup_s {raw_setup_s:.4g} s (median of {SETUP_REPEATS} fresh imports)")
        print(f"  op latency samples: {d['ops']} ops, {d['ops_beyond_p90']} beyond p90; "
              f"max_abs_err over {d['checked_values']} checked values "
              f"({d['reference_cache_misses']} references computed this run)")
    print(f"  failed_frac = {res['failed'] / res['attempted']:.6g} ({res['failed']} of {res['attempted']})")
    if d["verify_report_sha256"]:
        print("  verify report sha256 " + json.dumps(d["verify_report_sha256"], sort_keys=True))
    for problem in d["problems"]:
        print(f"  problem: {problem}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
