import json
import math

import pytest

from needle_iso import density_from_dict, sep_1d
from needle_iso.cli import build_parser, main

HALF_PI = math.pi / 2


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

    def test_junit_emission(self, capsys, tmp_path):
        path = tmp_path / "report.xml"
        code, _, _ = run_cli(
            capsys,
            "verify", "--suite", "separation", "--seed", "42", "--junit", str(path),
        )
        assert code == 0
        text = path.read_text()
        assert text.startswith("<?xml") and "separation.mass_swap_symmetry" in text

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
