"""The benchmark's three workloads: inputs, the op each runs, and its checks.

Each workload is a fixed universe of distinct ops built from a constant
pool seed with the standard library's generator, so the inputs never depend
on the library under test and every reference can be cached by input.  The
run's ``--seed`` sets the order: each epoch is a seeded permutation of the
universe, and epochs repeat until the run's time is up.  Finishing whole
epochs keeps the op mix, and so ops/s and the error maximum, the same in
every run.  Ops repeat across epochs: a library-side result cache would show
as a speed-up and must be declared as such.

``needles``: one library call per op -- ``sep_1d`` on trig (integer and
real exponents), sin-affine and tabulated needles, ``sphere_needle_bound``
for n = 2..12, ``cross_needle_bound`` on straddling pairs over rp3-rp10,
cp2-cp5, hp2, hp3 and cap2, and a few ``optimize_affine_family`` searches.
Densities, separation and the needle bounds do the work; cross_spaces and
the solver stay idle, so it is the bypass workload for solver-side changes.

``isoperimetry``: one in-process ``needle_iso.cli.main`` call per op --
``solve`` at volumes on both sides of 1/2 over s2, s3, s7, rp3, cp2, hp2
and cap2, and ``profile`` curves of a few dozen volumes.  cross_spaces and
the solver do the work; the needle bound enters only through the check at
the end of each solve.

``verify``: one ``run_property_suite(group, 42, threads=1)`` call per op,
for each of the five groups.  Seed 42 is the seed the README's findings are
stated for (exactly ``density.order_reduction``, ``needle.cross_dominance``
and ``needle.component_bound`` fail); this is the only workload that runs
the independent routes (quadrature, Monte Carlo, concavity, brute force).
"""

import contextlib
import hashlib
import io
import json
import math
import random

import numpy as np

import reference as ref

HALF_PI = math.pi / 2.0
POOL_SEED = 20171011
VERIFY_SEED = 42
GROUPS = ("density", "separation", "needle", "spaces", "solver")
EXPECTED_FAILURES = {
    "density": ["density.order_reduction"],
    "needle": ["needle.cross_dominance", "needle.component_bound"],
}
CROSS_SPACES = [f"rp{n}" for n in range(3, 11)] + [f"cp{n}" for n in range(2, 6)] + ["hp2", "hp3", "cap2"]
SOLVE_SPACES = ("s2", "s3", "s7", "rp3", "cp2", "hp2", "cap2")
SPACE_SHAPES = {  # name -> (dimension, diameter, [(label, a, b), ...]) as the catalog defines them
    "s2": (2, math.pi, [("ball", 1, 0)]),
    "s3": (3, math.pi, [("ball", 2, 0)]),
    "s7": (7, math.pi, [("ball", 6, 0)]),
    "rp3": (3, HALF_PI, [("ball", 2, 0), ("tube around RP^1", 1, 1), ("tube around RP^2", 0, 2)]),
    "cp2": (4, HALF_PI, [("ball", 3, 1), ("tube around CP^1", 1, 3)]),
    "hp2": (8, HALF_PI, [("ball", 7, 3), ("tube around HP^1", 3, 7)]),
    "cap2": (16, HALF_PI, [("ball", 15, 7), ("tube around CaP^1", 7, 15)]),
}
WORKLOADS = ("needles", "isoperimetry", "verify")
# An op fails when a checked value is off its reference by more than ERR_TOL
# (radians or volume fraction), or is not a number; the worst error the
# library shows today is 1.2e-11 (64-step bisection).
ERR_TOL = 1e-9
# max_abs_err reads at least ERR_FLOOR, a few dozen float64 steps at pi, so a
# change in the order of rounding cannot move it; lost digits still do.
ERR_FLOOR = 1e-14


def _dim(space):
    if space == "cap2":
        return 16
    for prefix, scale in (("rp", 1), ("cp", 2), ("hp", 4)):
        if space.startswith(prefix):
            return scale * int(space[len(prefix):])
    raise ValueError(space)


def _straddling(rng):
    low, high = round(rng.uniform(0.02, 0.5), 6), round(rng.uniform(0.5, 0.98), 6)
    return (low, high) if rng.random() < 0.5 else (high, low)


def _masses(rng):
    k1 = round(rng.choice([rng.uniform(1e-3, 0.05), rng.uniform(0.05, 0.6)]), 6)
    return k1, round(rng.uniform(1e-3, 0.97 - k1), 6)


def _needle_params(rng, family):
    """Parameters of one needle; tabulated needles sample one of the closed forms."""
    if family == "trig-int":
        if rng.random() < 0.25:  # pure cosine, inside [-pi/2, pi/2]
            return {"family": "trig", "m": float(rng.randint(1, 10)), "k": 0.0,
                    "lo": round(rng.uniform(-HALF_PI, -0.3), 6), "hi": round(rng.uniform(0.3, HALF_PI), 6)}
        return {"family": "trig", "m": float(rng.randint(1, 8)), "k": float(rng.randint(1, 8)),
                "lo": round(rng.uniform(0.0, 0.5), 6), "hi": round(rng.uniform(1.0, HALF_PI), 6)}
    if family == "trig-real":
        return {"family": "trig", "m": round(rng.uniform(0.3, 9.0), 4), "k": round(rng.uniform(0.3, 9.0), 4),
                "lo": round(rng.uniform(0.0, 0.5), 6), "hi": round(rng.uniform(1.0, HALF_PI), 6)}
    if family == "affine":
        phase = round(rng.uniform(-0.6, 0.6), 6)
        u_lo = rng.uniform(-HALF_PI + 1e-3, 0.6)
        u_hi = rng.uniform(u_lo + 0.3, HALF_PI - 1e-3)
        return {"family": "affine", "phase": phase, "power": rng.choice([float(rng.randint(1, 8)), round(rng.uniform(0.5, 8.0), 4)]),
                "lo": round(u_lo + phase, 6), "hi": round(u_hi + phase, 6)}
    base = _needle_params(rng, rng.choice(["trig-int", "trig-real", "affine"]))
    return {"family": "tabulated", "of": base}


def _tabulated_samples(base):
    grid = np.linspace(base["lo"], base["hi"], 2049)
    if base["family"] == "trig":
        values = np.maximum(np.cos(grid), 0.0) ** base["m"] * np.maximum(np.sin(grid), 0.0) ** base["k"]
    else:
        values = np.maximum(np.cos(grid - base["phase"]), 0.0) ** base["power"]
    return grid, values


# ---------------------------------------------------------------------------
# universes
# ---------------------------------------------------------------------------


def universe(workload):
    """The workload's ops, each a JSON-able dict with a canonical ``key``."""
    rng = random.Random(f"{POOL_SEED}-{workload}")
    ops = []
    if workload == "needles":
        for family in ("trig-int", "trig-real", "affine", "tabulated"):
            for _ in range(40):
                k1, k2 = _masses(rng)
                ops.append({"kind": "sep", "needle": _needle_params(rng, family), "k1": k1, "k2": k2})
        for n in range(2, 13):
            for _ in range(6):
                k1, k2 = _straddling(rng)
                ops.append({"kind": "sphere", "n": n, "k1": k1, "k2": k2})
        for space in CROSS_SPACES:
            for _ in range(4):
                k1, k2 = _straddling(rng)
                ops.append({"kind": "cross", "space": space, "k1": k1, "k2": k2})
        for length, powers, seed in ((HALF_PI, [1.0, 2.0, 3.0, 4.0], 11), (math.pi, [2.0, 4.0, 6.0], 12), (1.2, [1.5, 2.5], 13)):
            k1, k2 = _straddling(rng)
            ops.append({"kind": "affine_search", "length": length, "powers": powers,
                        "k1": k1, "k2": k2, "samples": 200, "seed": seed})
    elif workload == "isoperimetry":
        for space in SOLVE_SPACES:
            for i in range(12):
                v = rng.uniform(0.03, 0.49) if i % 2 else rng.uniform(0.51, 0.97)
                argv = ["solve", "--space", space, "--v", repr(round(v, 6)),
                        "--eps", repr(round(rng.uniform(0.02, 0.4), 6))]
                ops.append({"kind": "cli", "argv": argv})
            argv = ["profile", "--space", space, "--eps", repr(round(rng.uniform(0.03, 0.3), 6)),
                    "--v-grid", str(rng.choice([24, 32, 40]))]
            ops.append({"kind": "cli", "argv": argv})
    elif workload == "verify":
        ops = [{"kind": "verify", "group": g, "seed": VERIFY_SEED} for g in GROUPS]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for op in ops:
        op["key"] = json.dumps(op, sort_keys=True)
    return ops


def schedule(ops, seed, epoch):
    """The ``epoch``-th seeded permutation of the universe."""
    order = list(range(len(ops)))
    random.Random(f"{seed}-{epoch}").shuffle(order)
    return order


# ---------------------------------------------------------------------------
# running ops
# ---------------------------------------------------------------------------


def prepare(ops, lib):
    """Per-op call arguments built outside the timed loop (densities for seps)."""
    prepared = []
    for op in ops:
        if op["kind"] == "sep":
            prepared.append((_build_density(op["needle"], lib), lib.MassPair(op["k1"], op["k2"])))
        else:
            prepared.append(None)
    return prepared


def _build_density(p, lib):
    if p["family"] == "trig":
        d = lib.TrigDensity(m=p["m"], k=p["k"], interval=lib.Interval(p["lo"], p["hi"]))
    elif p["family"] == "affine":
        d = lib.SinAffineDensity(phase=p["phase"], power=p["power"], interval=lib.Interval(p["lo"], p["hi"]))
    else:
        grid, values = _tabulated_samples(p["of"])
        d = lib.TabulatedDensity(grid=tuple(grid), values=tuple(values))
    return lib.normalize(d)


def run_op(op, args, lib):
    """Execute one op through the package namespace; returns its raw output."""
    kind = op["kind"]
    if kind == "sep":
        return lib.sep_1d(*args)
    if kind == "sphere":
        return lib.sphere_needle_bound(op["n"], (op["k1"], op["k2"]))
    if kind == "cross":
        return lib.cross_needle_bound(lib.space_by_name(op["space"]), (op["k1"], op["k2"]))
    if kind == "affine_search":
        return lib.optimize_affine_family(op["length"], op["powers"], (op["k1"], op["k2"]), op["samples"], op["seed"])
    if kind == "cli":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = lib.cli.main(op["argv"])
        if code != 0:
            raise RuntimeError(f"needle-iso {' '.join(op['argv'])} exited {code}")
        return buf.getvalue()
    if kind == "verify":
        return lib.report_to_json(lib.run_property_suite(op["group"], op["seed"], threads=1))
    raise ValueError(kind)


def serialize(op, out):
    """Canonical text of an op's output; traced and untraced runs must agree on it."""
    if isinstance(out, str):
        return out
    if op["kind"] == "affine_search":
        return json.dumps({
            "best_sep": out["best_sep"],
            "best_needle": out["best_needle"].to_dict(),
            "samples_sha256": sample_sha(out["all_samples"], ("phase", "power", "lo", "hi", "sep")),
        }, sort_keys=True)
    return json.dumps(out.to_dict(), sort_keys=True)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# references and checks
# ---------------------------------------------------------------------------


def _ref_needle(p):
    if p["family"] == "trig":
        return ref.trig_needle(p["m"], p["k"], p["lo"], p["hi"])
    if p["family"] == "affine":
        return ref.ShiftedCos(p["power"], p["phase"], p["lo"], p["hi"])
    return ref.Tabulated(*_tabulated_samples(p["of"]))


def _sep_entry(density, k1, k2):
    s, q = ref.sep(density, k1, k2)
    return {"sep": ref.text(s), "q": [ref.text(x) for x in q]}


def reference_for(op, out=None):
    """The 40-digit reference of one op; ``out`` supplies sampled inputs."""
    kind = op["kind"]
    if kind == "sep":
        return _sep_entry(_ref_needle(op["needle"]), op["k1"], op["k2"])
    if kind == "sphere":
        return _sep_entry(ref.ShiftedCos(op["n"] - 1, 0.0, -HALF_PI, HALF_PI), op["k1"], op["k2"])
    if kind == "cross":
        best, near = ref.cross_bound(_dim(op["space"]), op["k1"], op["k2"], HALF_PI)
        return {"bound": ref.text(best), "near": near}
    if kind == "affine_search":
        s = out["all_samples"]
        seps = [ref.sep(ref.ShiftedCos(pw, ph, lo, hi), op["k1"], op["k2"])[0]
                for ph, pw, lo, hi in zip(s["phase"], s["power"], s["lo"], s["hi"])]
        return {"inputs_sha256": sample_sha(s), "seps": [ref.text(x) for x in seps]}
    if kind == "cli" and op["argv"][0] == "solve":
        space, v, eps = op["argv"][2], float(op["argv"][4]), float(op["argv"][6])
        return _candidate_entry(space, v, eps)
    if kind == "cli":
        return _profile_reference(op["argv"][2], float(op["argv"][4]), int(op["argv"][6]))
    raise ValueError(kind)


def sample_sha(s, fields=("phase", "power", "lo", "hi")):
    return ref.array_sha(*(np.ascontiguousarray(s[f], dtype=float) for f in fields))


def _candidate_entry(space, v, eps):
    _, diameter, cands = SPACE_SHAPES[space]
    vals = {label: ref.enlarged(a, b, diameter, v, eps) for label, a, b in cands}
    best = min(vals.values())
    return {
        "enlarged": {label: ref.text(x) for label, x in vals.items()},
        "best": ref.text(best),
        # labels a correct solver may name: within its 1e-10 tie tolerance plus slack
        "winners": [label for label, _, _ in cands if vals[label] <= best + ref.mp.mpf("1e-9")],
        "winner": next(label for label, _, _ in cands if vals[label] <= best + ref.mp.mpf("1e-10")),
    }


def _profile_reference(space, eps, n):
    _, diameter, cands = SPACE_SHAPES[space]
    grid = np.linspace(0.5 / n, 0.5, n)
    rows = [dict(_candidate_entry(space, float(v), eps), v=float(v)) for v in grid]
    shapes = {label: (a, b) for label, a, b in cands}
    crossovers = []
    for r0, r1 in zip(rows, rows[1:]):
        if r0["winner"] != r1["winner"]:
            (a0, b0), (a1, b1) = shapes[r0["winner"]], shapes[r1["winner"]]
            root = ref.crossover(a0, b0, a1, b1, diameter, eps, r0["v"], r1["v"])
            crossovers.append({"from": r0["winner"], "to": r1["winner"], "v_low": r0["v"],
                               "v_high": r1["v"], "v0": ref.text(root)})
    return {"rows": rows, "crossovers": crossovers}


def check(op, out, entry):
    """Absolute errors against the reference, and the reasons the op fails."""
    kind = op["kind"]
    errs, problems = [], []
    if kind == "sphere":
        errs.append(ref.abs_err(out.bound, entry["sep"]))
    elif kind == "sep":
        q = entry["q"]
        # endpoints are the quantiles of the arrangement the library chose
        left_q, right_q = (q[0], q[1]) if out.left_mass == op["k1"] else (q[2], q[3])
        errs += [ref.abs_err(out.sep, entry["sep"]), ref.abs_err(out.left_interval.hi, left_q),
                 ref.abs_err(out.right_interval.lo, right_q)]
    elif kind == "cross":
        errs.append(ref.abs_err(out.bound, entry["bound"]))
        if list(out.ties[0]) not in entry["near"]:
            problems.append(f"argmax {out.ties[0]} not among {entry['near']}")
    elif kind == "affine_search":
        s = out["all_samples"]
        errs.extend(ref.abs_err(x, r) for x, r in zip(s["sep"], entry["seps"]))
        errs.append(ref.abs_err(out["best_sep"], max(entry["seps"], key=ref.mp.mpf)))
    elif kind == "cli" and op["argv"][0] == "solve":
        rec = json.loads(out)
        if sorted(c["label"] for c in rec["candidates"]) != sorted(entry["enlarged"]):
            problems.append("candidate labels differ from the catalog")
        for c in rec["candidates"]:
            if c["label"] in entry["enlarged"]:
                errs.append(ref.abs_err(c["enlarged"], entry["enlarged"][c["label"]]))
        errs.append(ref.abs_err(rec["enlarged"], entry["best"]))
        if rec["winner"] not in entry["winners"]:
            problems.append(f"winner {rec['winner']!r}, reference {entry['winner']!r}")
    elif kind == "cli":
        rec = json.loads(out)
        if len(rec["rows"]) != len(entry["rows"]):
            problems.append("profile row count differs")
        for row, r in zip(rec["rows"], entry["rows"]):
            if abs(row["v"] - r["v"]) > 1e-14:
                problems.append(f"profile grid point {row['v']!r} != {r['v']!r}")
            errs.append(ref.abs_err(row["enlarged"], r["best"]))
            if row["winner"] not in r["winners"]:
                problems.append(f"v={row['v']}: winner {row['winner']!r}, reference {r['winner']!r}")
        got = [(c["from"], c["to"]) for c in rec["crossovers"]]
        want = [(c["from"], c["to"]) for c in entry["crossovers"]]
        if got != want:
            problems.append(f"crossovers {got} != {want}")
        else:
            for c, r in zip(rec["crossovers"], entry["crossovers"]):
                # bisection to refine_tol = 1e-6 in v: not a float64 accuracy figure
                if ref.abs_err(c["v0"], r["v0"]) > 1e-6:
                    problems.append(f"crossover at {c['v0']!r}, reference {r['v0']}")
    return errs, problems


def error_problems(errs):
    """Reasons to fail an op whose checked values are off by more than ERR_TOL."""
    bad = [e for e in errs if not e <= ERR_TOL]  # NaN compares false
    return [f"{len(bad)} values off their references by more than {ERR_TOL:g}: {bad[:3]}"] if bad else []


def max_abs_err(errs):
    """The reported error: the largest of ``errs`` (NaN counts as infinite), at least ERR_FLOOR."""
    return max([ERR_FLOOR] + [math.inf if math.isnan(e) else e for e in errs])


def check_verify(op, text):
    """Verdicts must match the README findings; witness values feed the error figure.

    Returns the problems and ``(value, key)`` pairs, where ``key`` names the
    input of the value's reference (see :func:`verify_reference`).
    """
    report = json.loads(text)
    problems, values = [], []
    expected = EXPECTED_FAILURES.get(op["group"], [])
    if report["failures"] != expected:
        problems.append(f"{op['group']}: failing checks {report['failures']}, README says {expected}")
    if report["pass_count"] + report["fail_count"] != len(report["checks"]) or not report["checks"]:
        problems.append(f"{op['group']}: malformed report")
    details = {c["name"]: c["details"] for c in report["checks"]}
    w = details.get("needle.cross_dominance", {}).get("worst")
    if w:
        values.append((w["sep"], ["affine-sep", w["power"], w["phase"], w["length"], w["k1"], w["k2"]]))
        values.append((w["bound"], ["cp1-bound-8", w["k1"], w["k2"]]))
    w = details.get("needle.component_bound", {}).get("worst")
    if w:
        values.append((w["needle_sep"], ["affine-sep", w["power"], w["phase"], w["length"], w["k1"], w["k2"]]))
    for name, rec in details.get("solver.main_inequality_mc", {}).items():
        n, k1, k2 = name.split("_")
        values.append((rec["bound"], ["sphere-bound", int(n[1:]), float(k1), float(k2)]))
        values.append((rec["sep"], ["cap-gap", int(n[1:]), float(k1), float(k2)]))
    return problems, values


def verify_reference(key):
    """Reference of one witness value named by :func:`check_verify`."""
    kind, *a = key
    if kind == "affine-sep":  # sin-affine needle of the given power and phase on [0, length]
        power, phase, length, k1, k2 = a
        return ref.text(ref.sep(ref.ShiftedCos(power, phase, 0.0, length), k1, k2)[0])
    if kind == "cp1-bound-8":  # cross_needle_bound(cp1, max_total_power=8)
        return ref.text(ref.cross_bound(2, a[0], a[1], HALF_PI, 8)[0])
    n, k1, k2 = a
    if kind == "sphere-bound":
        return _sep_entry(ref.ShiftedCos(n - 1, 0.0, -HALF_PI, HALF_PI), k1, k2)["sep"]
    # cap-gap: pi - r1 - r2 for the antipodal caps of masses k1, k2 on S^n
    r1, r2 = ref.radial(n - 1, 0, math.pi).quantiles([k1, k2])
    return ref.text(ref.mp.pi - r1 - r2)


def rebuild_reference_cache():
    """Recompute every cached reference of every workload from scratch."""
    import needle_iso as lib

    cache = ref.Cache()
    cache.data = {}
    for workload in ("needles", "isoperimetry"):
        ops = universe(workload)
        for op in ops:
            out = lib.optimize_affine_family(op["length"], op["powers"], (op["k1"], op["k2"]), op["samples"], op["seed"]) \
                if op["kind"] == "affine_search" else None
            cache.get(op["key"], lambda: reference_for(op, out))
    for op in universe("verify"):
        _, values = check_verify(op, run_op(op, None, lib))
        for _, key in values:
            cache.get(json.dumps(key), lambda: verify_reference(key))
    cache.save()
    print(f"{len(cache.data)} references written to {cache.path}")
