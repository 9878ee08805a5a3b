import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from needle_iso import SUITE_NAMES, density_from_dict, sep_1d
from needle_iso.cli import build_parser, main

HALF_PI = math.pi / 2
SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSep:
    def test_cosine_quarters_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sep", "--family", "trig", "--m", "1", "--k", "0",
            "--lo", str(-HALF_PI), "--hi", str(HALF_PI),
            "--k1", "0.25", "--k2", "0.25", "--format", "json",
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["sep"] == pytest.approx(math.pi / 3, abs=1e-9)

    def test_uniform(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sep", "--family", "trig", "--m", "0", "--k", "0",
            "--lo", "0", "--hi", "1", "--k1", "0.25", "--k2", "0.25",
        )
        assert code == 0
        assert json.loads(out)["sep"] == pytest.approx(0.5, abs=1e-12)

    def test_zero_mass_is_a_domain_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            "sep", "--family", "trig", "--m", "1", "--k", "0",
            "--lo", "-1.5", "--hi", "1.5", "--k1", "0", "--k2", "0.25",
        )
        assert code == 1
        assert "mass must be in (0,1]" in err

    def test_non_finite_tabulated_sample_is_a_domain_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            "sep", "--family", "tabulated", "--lo", "0", "--hi", "1",
            "--grid", "0,0.5,1", "--values", "1,nan,1", "--k1", "0.25", "--k2", "0.25",
        )
        assert code == 1
        assert "must be finite" in err and "integrates to" not in err

    def test_bad_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sep", "--family", "polynomial", "--lo", "0", "--hi", "1",
                  "--k1", "0.2", "--k2", "0.2"])
        assert exc.value.code == 2

    def test_malformed_grid_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sep", "--family", "tabulated", "--lo", "0", "--hi", "1",
                  "--grid", "0,x,1", "--values", "1,1,1", "--k1", "0.2", "--k2", "0.2"])
        assert exc.value.code == 2
        assert "--grid" in capsys.readouterr().err

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sep", "--family", "affine", "--phase", "0.3", "--power", "2",
            "--lo", "0", "--hi", "1.2", "--k1", "0.3", "--k2", "0.4",
        )
        assert code == 0
        rec = json.loads(out)
        density = density_from_dict(rec["density"])
        again = sep_1d(density, (rec["k1"], rec["k2"]))
        assert again.sep == pytest.approx(rec["sep"], abs=1e-12)

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sep", "--family", "trig", "--m", "0", "--k", "0",
            "--lo", "0", "--hi", "1", "--k1", "0.25", "--k2", "0.25",
            "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[0] == "sep,left_lo,left_hi,right_lo,right_hi"

    def test_tabulated_family(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sep", "--family", "tabulated",
            "--lo", "0", "--hi", "1",
            "--grid", "0,0.25,0.5,0.75,1", "--values", "1,1,1,1,1",
            "--k1", "0.25", "--k2", "0.25",
        )
        assert code == 0
        assert json.loads(out)["sep"] == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("given", [(), ("--grid", "0,0.5,1"), ("--values", "1,1,1")])
    def test_tabulated_family_needs_grid_and_values(self, capsys, given):
        code, out, err = run_cli(
            capsys, "sep", "--family", "tabulated", "--lo", "0", "--hi", "1",
            *given, "--k1", "0.25", "--k2", "0.25",
        )
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_tabulated_interval_must_match_grid(self, capsys):
        code, out, err = run_cli(
            capsys,
            "sep", "--family", "tabulated", "--lo", "5", "--hi", "6",
            "--grid", "0,0.5,1", "--values", "1,1,1", "--k1", "0.25", "--k2", "0.25",
        )
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err


class TestBound:
    def test_sphere_quarter_half(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--sphere-dim", "2", "--k1", "0.25", "--k2", "0.5"
        )
        assert code == 0
        assert json.loads(out)["bound"] == pytest.approx(math.pi / 6, abs=1e-9)

    def test_cp1_forced(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "bound", "--space", "cp1", "--k1", "0.25", "--k2", "0.25", "--force",
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["bound"] == pytest.approx(
            math.asin(0.75) - math.asin(0.25), abs=1e-9
        )
        assert sorted(map(tuple, rec["ties"])) == [(0, 1), (1, 0)]
        assert rec["hypothesis_satisfied"] is False

    def test_medians(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--sphere-dim", "2", "--k1", "0.5", "--k2", "0.5"
        )
        assert code == 0
        assert json.loads(out)["bound"] == 0.0

    def test_straddle_enforced_without_force(self, capsys):
        code, _, err = run_cli(
            capsys, "bound", "--space", "cp1", "--k1", "0.25", "--k2", "0.25"
        )
        assert code == 1
        assert "straddle" in err

    def test_power_cap_over_the_grid_limit_is_a_domain_error(self, capsys, monkeypatch):
        from needle_iso import needle_bound

        monkeypatch.setattr(needle_bound, "_exponent_grid", None)  # never built
        code, out, err = run_cli(
            capsys, "bound", "--space", "rp3", "--k1", "0.3", "--k2", "0.6", "--max-power", "10000"
        )
        assert code == 1
        assert out == ""
        assert "grid limit" in err

    @pytest.mark.parametrize("where", [("--space", "s3"), ("--sphere-dim", "3")], ids=["space", "sphere-dim"])
    def test_max_power_on_a_sphere_is_a_domain_error(self, capsys, where):
        # the flag was ignored and the sphere bound printed with exit 0
        code, out, err = run_cli(capsys, "bound", *where, "--k1", "0.3", "--k2", "0.6", "--max-power", "5")
        assert code == 1
        assert out == ""
        assert "--max-power" in err
        code, out, _ = run_cli(capsys, "bound", *where, "--k1", "0.3", "--k2", "0.6")
        assert code == 0
        assert json.loads(out)["n"] == 3

    def test_csv_header(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "bound", "--sphere-dim", "2", "--k1", "0.25", "--k2", "0.5",
            "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[0] == "k1,k2,bound,family,m,k"

    def test_json_round_trip(self, capsys):
        from needle_iso import cross_needle_bound, space_by_name

        code, out, _ = run_cli(
            capsys,
            "bound", "--space", "rp3", "--k1", "0.2", "--k2", "0.6",
            "--max-power", "9",
        )
        assert code == 0
        rec = json.loads(out)
        again = cross_needle_bound(
            space_by_name(rec["space"]),
            (rec["k1"], rec["k2"]),
            max_total_power=rec["max_total_power"],
        )
        assert again.bound == rec["bound"]


class TestSolve:
    def test_sphere_cap(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--space", "s2", "--v", "0.5", "--eps", "0.2"
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["winner"] == "ball"
        assert rec["enlarged"] == pytest.approx((1 + math.sin(0.2)) / 2, abs=1e-9)

    def test_reduction_reported_above_half(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--space", "rp3", "--v", "0.7", "--eps", "0.05"
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["complement_reduction"]["applied"] is True
        assert "complement" in rec["complement_reduction"]["construction"]

    def test_unknown_space(self, capsys):
        code, _, err = run_cli(
            capsys, "solve", "--space", "t2", "--v", "0.3", "--eps", "0.1"
        )
        assert code == 1
        assert "unknown space" in err

    @pytest.mark.parametrize("eps", ["inf", "nan", "0"])
    def test_non_finite_or_nonpositive_eps_is_rejected(self, capsys, eps):
        code, out, err = run_cli(
            capsys, "solve", "--space", "rp3", "--v", "0.3", "--eps", eps
        )
        assert code == 1
        assert out == ""
        assert "epsilon" in err

    def test_json_round_trip(self, capsys):
        from needle_iso import SolveRequest, solve_isoperimetric, space_by_name

        code, out, _ = run_cli(
            capsys, "solve", "--space", "cp2", "--v", "0.3", "--eps", "0.1"
        )
        assert code == 0
        rec = json.loads(out)
        again = solve_isoperimetric(
            SolveRequest(space_by_name(rec["space"]), rec["v"], rec["epsilon"])
        )
        assert again.to_dict() == rec


class TestProfile:
    def test_rp3_crossover_marker(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "profile", "--space", "rp3", "--eps", "0.05", "--v-grid", "40",
        )
        assert code == 0
        rec = json.loads(out)
        assert len(rec["crossovers"]) == 1
        assert rec["crossovers"][0]["from"] == "ball"

    def test_human_summary_of_a_saturated_winner_change(self, capsys):
        # from v = 0.225 on every enlargement saturates at exactly 1 and the
        # tie goes to the first candidate, so the winner changes without a
        # crossover
        code, out, _ = run_cli(
            capsys,
            "profile", "--space", "rp3", "--eps", "1.4", "--v-grid", "20", "--format", "human",
        )
        assert code == 0
        lines = out.splitlines()
        assert "winner=tube around RP^2" in lines[0] and "winner=ball" in lines[-2]
        assert lines[-1] == "-- no crossover: the winner changes only where enlargements saturate"

    def test_human_summary_of_a_single_winner(self, capsys):
        code, out, _ = run_cli(
            capsys, "profile", "--space", "s2", "--eps", "0.1", "--v-grid", "5", "--format", "human"
        )
        assert code == 0
        assert out.splitlines()[-1] == "-- no crossover: single winner over the grid"

    @pytest.mark.parametrize("eps", ["inf", "nan", "0"])
    def test_non_finite_or_nonpositive_eps_is_rejected(self, capsys, eps):
        code, out, err = run_cli(
            capsys, "profile", "--space", "rp3", "--eps", eps, "--v-grid", "4"
        )
        assert code == 1
        assert out == ""
        assert "epsilon" in err

    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_nonpositive_v_grid_exits_two(self, capsys, n):
        with pytest.raises(SystemExit) as exc:
            main(["profile", "--space", "rp3", "--eps", "0.1", "--v-grid", n])
        assert exc.value.code == 2
        assert "--v-grid" in capsys.readouterr().err

    def test_csv_contract(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "profile", "--space", "s2", "--eps", "0.1", "--v-grid", "5",
            "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "v,winner,enlarged"
        assert len(lines) == 6
        assert all("." in line.split(",")[0] for line in lines[1:])

    def test_json_round_trip(self, capsys):
        from needle_iso import catalog, enlarged_volume, space_by_name

        code, out, _ = run_cli(
            capsys, "profile", "--space", "cp2", "--eps", "0.1", "--v-grid", "6"
        )
        assert code == 0
        rec = json.loads(out)
        space = space_by_name(rec["space"])
        cands = {c.label: c for c in catalog(space)}
        for row in rec["rows"]:
            again = enlarged_volume(cands[row["winner"]], space, row["v"], rec["epsilon"])
            assert again == pytest.approx(row["enlarged"], abs=1e-12)


class TestVerify:
    def test_spaces_suite_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "spaces", "--seed", "42"
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["fail_count"] == 0

    def test_seed_is_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "spaces"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag, value", [("--samples", "0"), ("--samples", "-5"), ("--threads", "0"), ("--threads", "-3")])
    def test_nonpositive_counts_exit_two(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "density", "--seed", "1", flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("suite", SUITE_NAMES)
    def test_negative_seed_is_a_domain_error(self, capsys, suite):
        # density used to print numpy's traceback, spaces to exit 0 and
        # report seed -1
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--seed", "-1")
        assert (code, out) == (1, "")
        assert err == "error: seed must be an integer >= 0, got -1\n"

    def test_junit_emission(self, capsys, tmp_path):
        path = tmp_path / "report.xml"
        code, _, _ = run_cli(
            capsys,
            "verify", "--suite", "separation", "--seed", "42", "--junit", str(path),
        )
        assert code == 0
        text = path.read_text()
        assert text.startswith("<?xml") and "separation.mass_swap_symmetry" in text

    def test_junit_reports_each_failing_check(self, capsys, tmp_path):
        # the needle suite refutes two configured claims (README "Findings")
        path = tmp_path / "report.xml"
        code, _, _ = run_cli(capsys, "verify", "--suite", "needle", "--seed", "42", "--junit", str(path))
        assert code == 1
        lines = path.read_text().splitlines()
        assert '<testsuite name="needle-iso needle" tests="5" failures="2">' in lines
        for name in ("needle.cross_dominance", "needle.component_bound"):
            at = lines.index(f'  <testcase name="{name}">')
            assert lines[at + 1 : at + 3] == ['    <failure message="invariant violated"/>', "  </testcase>"]
        assert '  <testcase name="needle.sphere_dominance"/>' in lines

    def test_thread_cap_from_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("NEEDLE_ISO_THREADS", "1")
        code_a, out_a, _ = run_cli(
            capsys, "verify", "--suite", "separation", "--seed", "3", "--threads", "8"
        )
        monkeypatch.delenv("NEEDLE_ISO_THREADS")
        code_b, out_b, _ = run_cli(
            capsys, "verify", "--suite", "separation", "--seed", "3", "--threads", "2"
        )
        assert (code_a, out_a) == (code_b, out_b)

    def test_malformed_thread_cap_is_a_domain_error(self, capsys, monkeypatch):
        monkeypatch.setenv("NEEDLE_ISO_THREADS", "abc")
        code, out, err = run_cli(capsys, "verify", "--suite", "density", "--seed", "3")
        assert (code, out) == (1, "")
        assert err.startswith("error: NEEDLE_ISO_THREADS")

    def test_full_suite_is_clean(self, capsys):
        # Finding (README "Findings"): the full suite exits 1, because the
        # oracles refute exactly three configured claims; every other check
        # passes.
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "all", "--seed", "42", "--samples", "20000"
        )
        rec = json.loads(out)
        assert code == 1
        assert rec["failures"] == [
            "density.order_reduction",
            "needle.cross_dominance",
            "needle.component_bound",
        ]
        assert len(rec["checks"]) == 27
        assert (rec["pass_count"], rec["fail_count"]) == (24, 3)


class TestHumanFormat:
    """The human output is unstable by contract; these pin only the lines
    each subcommand must carry."""

    def test_sep(self, capsys):
        code, out, _ = run_cli(
            capsys, "sep", "--m", "1", "--lo", str(-HALF_PI), "--hi", str(HALF_PI),
            "--k1", "0.25", "--k2", "0.25", "--format", "human",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == f"separation: {math.pi / 3:.12g}"
        assert lines[1].startswith("left interval  [") and lines[1].endswith("(mass 0.25)")
        assert lines[2].startswith("right interval [") and lines[2].endswith("(mass 0.25)")

    def test_forced_bound_is_marked_heuristic(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--space", "cp1", "--k1", "0.25", "--k2", "0.25", "--force", "--format", "human"
        )
        assert code == 0
        assert out.splitlines() == [
            f"needle bound: {math.asin(0.75) - math.asin(0.25):.12g}",
            "family: trig; maximizers: [(0, 1), (1, 0)]",
            "note: mass pair does not straddle 1/2 -- heuristic value",
        ]

    def test_straddling_bound_has_no_note(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--sphere-dim", "2", "--k1", "0.25", "--k2", "0.5", "--format", "human"
        )
        assert code == 0
        assert len(out.splitlines()) == 2 and "heuristic" not in out

    def test_profile_marks_its_crossover(self, capsys):
        code, out, _ = run_cli(
            capsys, "profile", "--space", "rp3", "--eps", "0.05", "--v-grid", "40", "--format", "human"
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 41 and all(line.startswith("v=") for line in lines[:40])
        assert lines[-1].startswith("-- crossover at v0=0.3952")
        assert "(ball -> tube around RP^1, bracket" in lines[-1]

    def test_verify(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "needle", "--seed", "42", "--format", "human")
        assert code == 1
        lines = out.splitlines()
        assert "[FAIL] needle.cross_dominance" in lines and "[ok  ] needle.sphere_dominance" in lines
        assert lines[-1] == "3 passed, 2 failed"


class TestInProcessReuse:
    """``main`` parses every call with one parser per process: flags given
    to one call must not reach the next, and a flag error must leave no
    trace."""

    PROFILE = ("profile", "--space", "rp3", "--eps", "0.05", "--v-grid", "4")
    BOUND = ("bound", "--space", "cp1", "--k1", "0.25", "--k2", "0.25")
    SEP = ("sep", "--family", "trig", "--m", "2", "--k", "1", "--lo", "0.1", "--hi", "1.4",
           "--k1", "0.3", "--k2", "0.4")
    SEQUENCE = (
        PROFILE + ("--v-min", "0.2"),
        PROFILE,
        BOUND + ("--force",),
        BOUND,
        SEP + ("--format", "csv"),
        SEP,
        ("sep", "--family", "polynomial", "--lo", "0", "--hi", "1", "--k1", "0.2", "--k2", "0.2"),
        ("solve", "--space", "s2", "--v", "0.3", "--eps", "0.1"),
    )

    @staticmethod
    def _call(capsys, argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    def test_no_state_leaks_between_calls(self, capsys):
        first = {argv: self._call(capsys, argv) for argv in self.SEQUENCE}
        # each flag changes its call's outcome, so a leaked flag would show
        assert first[self.SEQUENCE[0]][1] != first[self.SEQUENCE[1]][1]
        assert (first[self.SEQUENCE[2]][0], first[self.SEQUENCE[3]][0]) == (0, 1)
        assert first[self.SEQUENCE[4]][1].startswith("sep,")
        assert json.loads(first[self.SEQUENCE[5]][1])["sep"] > 0.0
        assert first[self.SEQUENCE[6]][0] == 2
        assert first[self.SEQUENCE[7]][0] == 0
        for argv in self.SEQUENCE[::-1] + self.SEQUENCE:
            assert self._call(capsys, argv) == first[argv], argv

    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()


def _run_python(code):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout.strip()


def test_import_leaves_scipy_optimize_unloaded():
    # importing scipy.optimize would add its load time and memory to every
    # CLI call
    code = "import sys, needle_iso, needle_iso.cli; print('scipy.optimize' in sys.modules)"
    assert _run_python(code) == "False"


_ROOT_FINDING_ROUTES = """
import contextlib, io, sys
import numpy as np
from needle_iso import CrossSpace, Interval, check_comparison_lemma, isoperimetric_profile_curve
from needle_iso.cli import main
from needle_iso.cross_spaces import _enlarged_difference
from needle_iso.solver import _newton

with contextlib.redirect_stdout(io.StringIO()):
    assert main(["solve", "--space", "rp3", "--v", "0.7", "--eps", "0.05"]) == 0
    assert main(["profile", "--space", "rp3", "--eps", "0.05", "--v-grid", "40"]) == 0
# a crossover cell whose upper end is saturated, refined from the profile's
# secant and from a midpoint whose Newton step leaves the bracket
rp3 = CrossSpace.real_projective(3)
saturated = isoperimetric_profile_curve(rp3, 1.2, np.linspace(0.0125, 0.5, 40))
assert saturated["crossovers"][0]["from"] == "ball"
assert 0.0125 < _newton(_enlarged_difference(rp3, 0, 1, 1.2), 0.0125, 0.05) < 0.025
check_comparison_lemma(lambda t: np.cos(t) ** 2, 2, epsilon=0.3, k=0, interval=Interval(0.0, 1.0))
print("scipy.optimize" in sys.modules)
"""


def test_root_finding_routes_leave_scipy_optimize_unloaded():
    # every root the library solves (quantiles, profile crossovers, with
    # Newton's bisection fallback) is a closed form or a safeguarded Newton
    # iteration
    assert _run_python(_ROOT_FINDING_ROUTES) == "False"


class TestGoldenOutput:
    """The sha256 of the json and csv stdout of the README commands (and one
    tabulated sep), pinned from the emitters as they were before the CLI
    shared ``report_to_json`` and the CSV row rule: not a byte moved, apart
    from the one-ulp move of the bound-cp1 bound noted below."""

    COMMANDS = {
        "sep-trig": "sep --family trig --m 1 --k 0 --lo -1.5707963 --hi 1.5707963 --k1 0.25 --k2 0.25",
        "sep-tabulated": "sep --family tabulated --lo 0 --hi 1 --grid 0,0.25,0.5,1 --values 1,3,2,0.5 "
        "--k1 0.3 --k2 0.4",
        "bound-sphere": "bound --sphere-dim 2 --k1 0.25 --k2 0.5",
        "bound-cp1": "bound --space cp1 --k1 0.25 --k2 0.25 --force",
        "solve-s2": "solve --space s2 --v 0.5 --eps 0.2",
        "solve-rp3": "solve --space rp3 --v 0.7 --eps 0.05",
        "profile-rp3": "profile --space rp3 --eps 0.05 --v-grid 100",
    }

    @pytest.mark.parametrize("name, fmt, digest", [
        ("sep-trig", "json", "0551a68f078cd7786450d9212c2ca7fdb316b0d2caa2d7d215e712f281efbdec"),
        ("sep-trig", "csv", "e06c1c81939ba103c5ae2b9941c6b4945676b6c50e8831dea7c7f2bf6fa41de2"),
        ("sep-tabulated", "json", "bf61d2488eeaec71eacf617f793da1bf8da85a02e2a6ccee81d05fa6e43bf611"),
        ("sep-tabulated", "csv", "6b8b5275788a53a5c576a5232835ddb27529b48803ba21f3adb48bf410bc12b4"),
        ("bound-sphere", "json", "35b1b64df774d750f93c398f6cd117858ff53347d6581473bc10fc049933339a"),
        ("bound-sphere", "csv", "a072e08ffabcbc423d0576577dee597bbc52a9fda1ce08eb9836b95abd9f4aa2"),
        # bound-cp1 moved one ulp, to the float nearer asin(3/4) - asin(1/4) =
        # 0.59538182383940235457..., when the mirror twins began sharing one value
        ("bound-cp1", "json", "80aa6293c4c542637c83dea24b79471385d46f41c59f49e6f154b2c3c3af4873"),
        ("bound-cp1", "csv", "515c49076541311927ce52498995654273a374adfb0eb1be40d80c28fc4d9ab9"),
        ("solve-s2", "json", "0a24ceac8935e1b08e713e2a890a4351fc800e894baacc95f8147d54051a4633"),
        ("solve-s2", "csv", "ef2d3ec3f235dd3a510cb503d750c454716206080bf25f44c09c60ce9518f405"),
        ("solve-rp3", "json", "590dff0297e42250d313349c045b065083caa60f050ba0fd7000107f0fa0e081"),
        ("solve-rp3", "csv", "429301bee370f7f386ea5bb26498df36d70ef5a198ad270b4765fd415c4e3937"),
        ("profile-rp3", "json", "78849214e6517a06f07c887d7fcb1e60fe82114af4d3f1a615cfbf0670853aea"),
        ("profile-rp3", "csv", "b4cc21398ed2b821aae3e8ef804d9ac2da340b136c6c01a2dac971081d70bd50"),
    ])
    def test_stdout_keeps_its_bytes(self, capsys, name, fmt, digest):
        code, out, _ = run_cli(capsys, *self.COMMANDS[name].split(), "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


# Flag values the fuzz draws from, besides each flag's own valid values: 0,
# negatives, non-finite and subnormal-sized numbers, and text that is no
# number.  Only small ``--max-power`` and ``--v-grid`` values are valid, so
# no grid near the limit is built.
_FUZZ_JUNK = ["0", "-1", "-0.5", "nan", "inf", "-inf", "1e-300", "x", ""]
_FUZZ_SPACES = ["s2", "s3", "rp3", "cp1", "cp2", "hp1", "hp2", "cap2", "cap3", "cp0", "s1", "CP2", "t2", "rp"]
_FUZZ_FORMATS = ["json", "csv", "human"]
# subcommand -> flag -> (the chance it is given, its valid values); a flag
# without values is a bare switch
_FUZZ_FLAGS = {
    "sep": {
        "--family": (0.5, ["trig", "affine", "tabulated"]), "--m": (0.5, ["2", "0.5"]), "--k": (0.5, ["1", "0"]),
        "--phase": (0.5, ["0.3"]), "--power": (0.5, ["2", "0"]), "--lo": (0.95, ["0", "-1.5"]),
        "--hi": (0.95, ["1", "1.5"]), "--grid": (0.5, ["0,0.5,1", "0,1", "1,0", "0,nan,1"]),
        "--values": (0.5, ["1,2,1", "1,1", "0,0,0", "1,-1,1"]), "--k1": (0.95, ["0.3", "0.5", "1"]),
        "--k2": (0.95, ["0.6", "0.5"]), "--format": (0.5, _FUZZ_FORMATS),
    },
    "bound": {
        "--space": (0.7, _FUZZ_SPACES), "--sphere-dim": (0.3, ["2", "3", "5"]), "--k1": (0.95, ["0.3", "0.5", "0.9"]),
        "--k2": (0.95, ["0.6", "0.5"]), "--max-power": (0.3, ["3", "9", "16"]), "--force": (0.3, []),
        "--format": (0.5, _FUZZ_FORMATS),
    },
    "solve": {
        "--space": (0.95, _FUZZ_SPACES), "--v": (0.95, ["0.3", "0.5", "0.7"]), "--eps": (0.95, ["0.1", "2"]),
        "--format": (0.5, _FUZZ_FORMATS),
    },
    "profile": {
        "--space": (0.95, _FUZZ_SPACES), "--eps": (0.95, ["0.1", "2"]), "--v-grid": (0.7, ["1", "3", "7"]),
        "--v-min": (0.3, ["0.1", "0.4"]), "--v-max": (0.3, ["0.5", "0.2"]), "--format": (0.5, _FUZZ_FORMATS),
    },
}


def _fuzz_argvs(command, count):
    """``count`` argument lists for ``command`` from a fixed seed: each flag
    given by its chance, as ``--flag=value`` (so that ``-inf`` reaches the
    flag's parser), with one of its valid values or, one time in four, one
    of the shared junk values."""
    rng = random.Random(command)
    for _ in range(count):
        argv = [command]
        for flag, (chance, valid) in _FUZZ_FLAGS[command].items():
            if rng.random() < chance:
                argv.append(f"{flag}={rng.choice(_FUZZ_JUNK if rng.random() < 0.25 else valid)}" if valid else flag)
        yield argv


def _exit_and_streams(argv):
    """``main(argv)``'s exit code (argparse's too) and what it wrote to
    stdout and to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# a NaN or an infinity as the JSON writer (JSON has neither), CSV or human
# text spells it
_NON_FINITE = re.compile(r"NaN|Infinity|\b(nan|inf)\b")


@pytest.mark.parametrize("command", sorted(_FUZZ_FLAGS))
def test_fuzzed_flags_exit_0_1_or_2_without_a_traceback(command):
    codes = set()
    for argv in _fuzz_argvs(command, 1000):
        code, out, err = _exit_and_streams(argv)
        assert code in (0, 1, 2), (argv, code, err)
        assert "Traceback" not in err, (argv, err)
        assert not _NON_FINITE.search(out), (argv, out)
        codes.add(code)
    assert codes == {0, 1, 2}  # the draws reach every exit


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--space", "hp2", "--v", "1e-300", "--eps", "0.1"],
        ["profile", "--space", "hp2", "--eps", "0.1", "--v-min", "1e-300", "--v-max", "0.3", "--v-grid", "3"],
    ],
    ids=["solve", "profile"],
)
def test_a_volume_without_a_quantile_exits_1_naming_it(argv):
    # solve once died on an IndexError here, and profile wrote "enlarged":NaN
    code, out, err = _exit_and_streams(argv)
    assert code == 1
    assert out == ""
    assert err == "error: no finite quantile at mass fraction 1e-300: the target is too small for the quantile kernel\n"


@pytest.mark.parametrize("ends", [("--v-min", "inf"), ("--v-max", "nan"), ("--v-min=-inf", "--v-max", "0.2")])
def test_profile_ends_are_checked_before_the_grid_is_spaced(capsys, ends):
    # np.linspace once met these ends first and warned (an error under pytest)
    code, _, err = run_cli(capsys, "profile", "--space", "cp2", "--eps", "0.1", "--v-grid", "3", *ends)
    assert code == 1
    assert "--v-min and --v-max must be" in err
