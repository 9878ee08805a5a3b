"""Command-line front end.

Subcommands: ``sep`` (needle separation), ``bound`` (needle separation
bounds), ``solve`` (candidate-comparison isoperimetry), ``profile``
(winner curves with crossover markers), ``verify`` (property suites).

Contract: angles are radians; exit code 0 on success, 1 on domain errors,
2 on flag errors; randomized commands require an explicit --seed; JSON and
CSV schemas are stable, human output is not.  ``NEEDLE_ISO_THREADS`` caps
worker threads.
"""

import argparse
import functools
import json
import os
import sys

import numpy as np

from .cross_spaces import space_by_name
from .densities import Interval, SinAffineDensity, TabulatedDensity, TrigDensity, normalize
from .errors import NeedleIsoError, OutOfDomain
from .needle_bound import bound_profile_csv, cross_needle_bound, sphere_needle_bound
from .oracles import SUITE_NAMES, report_to_json, run_property_suite
from .separation import MassPair, sep_1d
from .solver import isoperimetric_profile_curve, profile_curve_csv, solve_with_complement_reduction

# json and csv are stable schemas; human output is unstable
OUTPUT_FORMATS = ("json", "csv", "human")


def _dump_json(payload):
    sys.stdout.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def _parse_floats(text):
    return tuple(float(x) for x in text.split(","))


def _positive_int(text):
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return n


def _build_density(args):
    interval = Interval(args.lo, args.hi)
    if args.family == "trig":
        return normalize(TrigDensity(m=args.m, k=args.k, interval=interval))
    if args.family == "affine":
        return normalize(
            SinAffineDensity(phase=args.phase, power=args.power, interval=interval)
        )
    if args.grid is None or args.values is None:
        raise NeedleIsoError("tabulated densities need --grid and --values")
    return normalize(TabulatedDensity(grid=args.grid, values=args.values))


def _cmd_sep(args):
    density = _build_density(args)
    masses = MassPair(args.k1, args.k2)
    result = sep_1d(density, masses)
    if args.format == "json":
        payload = {"density": density.to_dict(), "k1": masses.k1, "k2": masses.k2}
        payload.update(result.to_dict())
        _dump_json(payload)
    elif args.format == "csv":
        sys.stdout.write("sep,left_lo,left_hi,right_lo,right_hi\n")
        sys.stdout.write(
            f"{result.sep!r},{result.left_interval.lo!r},{result.left_interval.hi!r},"
            f"{result.right_interval.lo!r},{result.right_interval.hi!r}\n"
        )
    else:
        print(f"separation: {result.sep:.12g}")
        print(
            f"left interval  [{result.left_interval.lo:.12g}, "
            f"{result.left_interval.hi:.12g}] (mass {result.left_mass:g})"
        )
        print(
            f"right interval [{result.right_interval.lo:.12g}, "
            f"{result.right_interval.hi:.12g}] (mass {result.right_mass:g})"
        )
    return 0


def _cmd_bound(args):
    masses = MassPair(args.k1, args.k2)
    if args.sphere_dim is not None:
        res = sphere_needle_bound(args.sphere_dim, masses, force=args.force)
    else:
        space = space_by_name(args.space)
        if space.family == "sphere":
            res = sphere_needle_bound(space.dim, masses, force=args.force)
        else:
            res = cross_needle_bound(
                space, masses, max_total_power=args.max_power, force=args.force
            )
    rec = res.to_dict()
    rec.update({"k1": masses.k1, "k2": masses.k2})
    if args.format == "json":
        _dump_json(rec)
    elif args.format == "csv":
        sys.stdout.write(bound_profile_csv([rec]))
    else:
        print(f"needle bound: {res.bound:.12g}")
        print(f"family: {res.family}; maximizers: {list(res.ties)}")
        if not res.hypothesis_satisfied:
            print("note: mass pair does not straddle 1/2 -- heuristic value")
    return 0


def _cmd_solve(args):
    space = space_by_name(args.space)
    res = solve_with_complement_reduction(space, args.v, args.eps)
    if args.format == "json":
        _dump_json(res.to_dict())
    elif args.format == "csv":
        sys.stdout.write("label,a,b,enlarged\n")
        for c, e in res.per_candidate:
            sys.stdout.write(f"{c.label},{c.a!r},{c.b!r},{e!r}\n")
    else:
        if res.complement_reduction:
            print(f"volume {args.v} exceeds 1/2: solved the complementary problem")
            print("  " + res.complement_reduction["construction"])
        print(f"winner: {res.winner.label} (enlarged volume {res.enlarged:.12g})")
        for c, e in res.per_candidate:
            print(f"  {c.label:28s} (a={c.a:g}, b={c.b:g})  enlarged {e:.12g}")
        check = res.needle_bound_check
        if check.get("bound") is not None:
            print(
                f"needle bound at (v, w=1-enlarged): {check['bound']:.12g} "
                f"(|bound - eps| = {check['residual']:.3g})"
            )
    return 0


def _cmd_profile(args):
    space = space_by_name(args.space)
    v_hi = args.v_max if args.v_max is not None else 0.5
    v_lo = args.v_min if args.v_min is not None else v_hi / args.v_grid
    grid = np.linspace(v_lo, v_hi, args.v_grid)
    result = isoperimetric_profile_curve(space, args.eps, grid)
    if args.format == "json":
        _dump_json({"space": space.name, "epsilon": args.eps, **result})
    elif args.format == "csv":
        sys.stdout.write(profile_curve_csv(result))
    else:
        for row in result["rows"]:
            print(f"v={row['v']:.6f}  winner={row['winner']:28s} enlarged={row['enlarged']:.9f}")
        for c in result["crossovers"]:
            print(
                f"-- crossover at v0={c['v0']:.6f} "
                f"({c['from']} -> {c['to']}, bracket [{c['v_low']:.6f}, {c['v_high']:.6f}])"
            )
        if not result["crossovers"]:
            print("-- no crossover: single winner over the grid")
    return 0


def _write_junit(report, path):
    lines = [
        '<?xml version="1.0" encoding="utf-8"?>',
        f'<testsuite name="needle-iso {report["suite"]}" tests="{len(report["checks"])}" '
        f'failures="{report["fail_count"]}">',
    ]
    for check in report["checks"]:
        if check["passed"]:
            lines.append(f'  <testcase name="{check["name"]}"/>')
        else:
            lines.append(f'  <testcase name="{check["name"]}">')
            lines.append('    <failure message="invariant violated"/>')
            lines.append("  </testcase>")
    lines.append("</testsuite>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _cmd_verify(args):
    threads = args.threads
    cap = os.environ.get("NEEDLE_ISO_THREADS")
    if cap is not None:
        try:
            threads = min(threads, max(1, int(cap)))
        except ValueError:
            raise OutOfDomain(f"NEEDLE_ISO_THREADS must be an integer, got {cap!r}") from None
    report = run_property_suite(
        args.suite, args.seed, threads=threads, mc_samples=args.samples
    )
    if args.format == "json":
        sys.stdout.write(report_to_json(report))
    else:
        for check in report["checks"]:
            status = "ok  " if check["passed"] else "FAIL"
            print(f"[{status}] {check['name']}")
        print(f"{report['pass_count']} passed, {report['fail_count']} failed")
    if args.junit:
        _write_junit(report, args.junit)
    return 0 if report["fail_count"] == 0 else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="needle-iso",
        description="Needle separation distances and candidate-comparison "
        "isoperimetry on spheres and projective spaces (angles in radians).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sep = sub.add_parser("sep", help="separation distance of a 1-D needle")
    p_sep.add_argument("--family", choices=("trig", "affine", "tabulated"), default="trig")
    p_sep.add_argument("--m", type=float, default=0.0, help="cosine exponent (trig)")
    p_sep.add_argument("--k", type=float, default=0.0, help="sine exponent (trig)")
    p_sep.add_argument("--phase", type=float, default=0.0, help="affine phase")
    p_sep.add_argument("--power", type=float, default=1.0, help="affine power")
    p_sep.add_argument("--lo", type=float, required=True)
    p_sep.add_argument("--hi", type=float, required=True)
    p_sep.add_argument("--grid", type=_parse_floats, help="comma-separated abscissae (tabulated)")
    p_sep.add_argument("--values", type=_parse_floats, help="comma-separated density samples (tabulated)")
    p_sep.add_argument("--k1", type=float, required=True)
    p_sep.add_argument("--k2", type=float, required=True)
    p_sep.add_argument("--format", choices=OUTPUT_FORMATS, default="json")
    p_sep.set_defaults(fn=_cmd_sep)

    p_bound = sub.add_parser("bound", help="needle separation bound")
    group = p_bound.add_mutually_exclusive_group(required=True)
    group.add_argument("--space", help="space name, e.g. rp3, cp2, hp1, cap2, s2")
    group.add_argument("--sphere-dim", type=int, help="sphere dimension n")
    p_bound.add_argument("--k1", type=float, required=True)
    p_bound.add_argument("--k2", type=float, required=True)
    p_bound.add_argument("--max-power", type=int, default=None)
    p_bound.add_argument("--force", action="store_true",
                         help="compute despite a non-straddling mass pair")
    p_bound.add_argument("--format", choices=OUTPUT_FORMATS, default="json")
    p_bound.set_defaults(fn=_cmd_bound)

    p_solve = sub.add_parser("solve", help="compare candidate sets at (v, eps)")
    p_solve.add_argument("--space", required=True)
    p_solve.add_argument("--v", type=float, required=True)
    p_solve.add_argument("--eps", type=float, required=True)
    p_solve.add_argument("--format", choices=OUTPUT_FORMATS, default="json")
    p_solve.set_defaults(fn=_cmd_solve)

    p_profile = sub.add_parser("profile", help="winner curve over volume fractions")
    p_profile.add_argument("--space", required=True)
    p_profile.add_argument("--eps", type=float, required=True)
    p_profile.add_argument("--v-grid", type=_positive_int, default=100)
    p_profile.add_argument("--v-min", type=float, default=None)
    p_profile.add_argument("--v-max", type=float, default=None)
    p_profile.add_argument("--format", choices=OUTPUT_FORMATS, default="json")
    p_profile.set_defaults(fn=_cmd_profile)

    p_verify = sub.add_parser("verify", help="run a property suite")
    p_verify.add_argument("--suite", choices=SUITE_NAMES, default="all")
    p_verify.add_argument("--seed", type=int, required=True)
    p_verify.add_argument("--samples", type=int, default=100000)
    p_verify.add_argument("--threads", type=int, default=1)
    p_verify.add_argument("--junit", help="write a JUnit XML report to this path")
    p_verify.add_argument("--format", choices=("json", "human"), default="json")
    p_verify.set_defaults(fn=_cmd_verify)

    return parser


@functools.lru_cache(maxsize=1)
def _parser():
    """The one parser :func:`main` reuses within a process; ``parse_args``
    keeps no state between calls (each gets a fresh namespace)."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except NeedleIsoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
