"""Command-line surface: flags, report shapes, exit codes, stability."""

import csv
import io
import json
import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyrad import cli, iteration, suite
from polyrad import functionals as fun


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerifyPolyharmonic:
    def test_passes_with_json(self, capsys):
        code, out, _ = run_cli(["verify-polyharmonic", "--max-m", "8"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["schema_version"] == 1
        assert report["passed"] is True
        assert [r["m"] for r in report["results"]] == list(range(1, 9))
        assert all(r["exact"] for r in report["results"])


class TestBestConstant:
    def test_value_and_cross_check(self, capsys):
        code, out, _ = run_cli(
            ["best-constant", "--m", "1", "--alpha", "3", "--cross-check"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert abs(report["S"] - 4.0 / math.sqrt(3.0)) <= 1e-10
        assert report["route"] == "closed_form"
        assert report["cross_check"]["agrees"] is True
        assert report["cross_check"]["rel_diff"] <= 1e-10
        assert 0 < report["cross_check"]["err_estimate"] <= 1e-10 * report["S"]

    @pytest.mark.parametrize("alpha", ("110", "201", "1000"))
    def test_cross_check_agrees_at_large_alpha(self, alpha, capsys):
        code, out, _ = run_cli(
            ["best-constant", "--m", "1", "--alpha", alpha, "--cross-check"], capsys
        )
        assert code == 0
        assert json.loads(out)["cross_check"]["agrees"] is True

    def test_cross_check_underflow_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["best-constant", "--m", "1", "--alpha", "2000", "--cross-check"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "smallest normal float at alpha=2000.0" in err
        assert "Traceback" not in err

    def test_sobolev_violation_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["best-constant", "--m", "2", "--alpha", "2"])
        assert info.value.code == 2
        assert "Sobolev condition" in capsys.readouterr().err

    def test_twelve_digit_rounding(self, capsys):
        _, out, _ = run_cli(["best-constant", "--m", "2", "--alpha", "4"], capsys)
        value = json.loads(out)["S"]
        assert value == float(f"{value:.12g}")


class TestCoeffTable:
    def test_byte_stable(self, capsys):
        _, out1, _ = run_cli(["coeff-table", "--m", "3"], capsys)
        _, out2, _ = run_cli(["coeff-table", "--m", "3"], capsys)
        assert out1 == out2

    def test_matches_golden(self, capsys):
        _, out, _ = run_cli(["coeff-table", "--m", "3"], capsys)
        with open(suite.golden_table_path(), "r", encoding="utf-8") as handle:
            assert out == handle.read()

    def test_polynomials_as_rational_strings(self, capsys):
        _, out, _ = run_cli(["coeff-table", "--m", "2"], capsys)
        table = json.loads(out)
        entry = {(e["i"], e["j"]): e["coeff"] for e in table["g_entries"]}
        assert entry[0, 1] == ["-3", "-2", "1"]  # (a-3)(a+1)


class TestRayleigh:
    def test_csv_sweep(self, capsys):
        code, out, _ = run_cli(
            ["rayleigh", "--m", "1", "--alpha", "3", "--eps-list", "0.5,1,2"], capsys
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["epsilon"] for r in rows] == ["0.5", "1", "2"]
        for row in rows:
            assert float(row["rel_diff"]) <= 1e-6
            assert abs(float(row["quotient"]) - float(row["S_closed_form"])) <= 1e-5

    def test_perturb_rows(self, capsys):
        code, out, _ = run_cli(
            ["rayleigh", "--m", "1", "--alpha", "3", "--eps-list", "1",
             "--perturb", "--perturb-amplitude", "0.05"], capsys
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 11
        probes = [r for r in rows if r["epsilon"].startswith("probe")]
        assert len(probes) == 10
        assert all(float(r["rel_diff"]) >= -1e-6 for r in probes)

    def test_small_sobolev_gap(self, capsys):
        # gap 0.05: the numerator's r^-1.05 tail is summed past the
        # quadrature window, not refused
        code, out, _ = run_cli(
            ["rayleigh", "--m", "1", "--alpha", "1.05", "--eps-list", "1"], capsys
        )
        assert code == 0
        (row,) = csv.DictReader(io.StringIO(out))
        assert abs(float(row["rel_diff"])) <= 1e-10

    def test_probes_judged_relative_to_large_S(self, capsys):
        # S(6, 15) is about 4.4e9, so roundoff alone puts S - q far above 1e-6
        code, out, _ = run_cli(
            ["rayleigh", "--m", "6", "--alpha", "15", "--eps-list", "1", "--perturb"],
            capsys,
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert float(rows[0]["S_closed_form"]) > 1e9
        assert all(float(r["rel_diff"]) >= -1e-6 for r in rows[1:])


class TestIterate:
    def test_writes_chain_and_summary(self, capsys, tmp_path):
        code, out, _ = run_cli(
            ["iterate", "--m", "2", "--alpha", "4", "--output-dir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["checks"]["q_sequence_closed_form"] is True
        assert report["checks"]["fixed_point_residual"] <= 1e-3
        for k in range(3):
            path = tmp_path / f"chain_k{k}.csv"
            with path.open(newline="") as handle:
                rows = list(csv.DictReader(handle))
            assert len(rows) == 4096
            assert set(rows[0]) == {"r", f"w_{k}"}

    def test_steps_the_chain_once(self, capsys, tmp_path, monkeypatch):
        # the fixed point reads w_m of the chain that iterate built and
        # checked; the CSVs are written from its read-only members
        steps = []
        stepped = iteration._chain_values

        def counted(*args):
            steps.append(args[2:4])
            return stepped(*args)

        monkeypatch.setattr(iteration, "_chain_values", counted)
        code, out, _ = run_cli(
            ["iterate", "--m", "2", "--alpha", "4", "--output-dir", str(tmp_path)],
            capsys,
        )
        assert code == 0 and steps == [(2, 4.0)]
        assert json.loads(out)["checks"]["fixed_point_residual"] <= 1e-3
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            [f"chain_k{k}.csv" for k in range(3)]

    def test_streamed_csv_matches_csv_text(self, capsys, tmp_path, monkeypatch):
        # written in chunks of rows, including a short last one, with the
        # bytes of the CSV text built from all rows at once
        monkeypatch.setattr(cli, "_CSV_CHUNK", 1000)
        code, _, _ = run_cli(
            ["iterate", "--m", "2", "--alpha", "4", "--output-dir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        grid = iteration.RadialGrid.geometric(1e-4, 1e3, 4096)
        u = fun.bliss_profile(2, 4.0, 1.0)
        for k, w in enumerate(iteration.iterate_chain(u, 2, 4.0, grid).w):
            rows = [[float(r), float(v)] for r, v in zip(grid.nodes, w)]
            want = cli._csv_text(["r", f"w_{k}"], rows).encode("utf-8")
            assert (tmp_path / f"chain_k{k}.csv").read_bytes() == want

    @settings(max_examples=500, deadline=None)
    @given(st.floats(allow_nan=True, allow_infinity=True))
    @example(math.nan)
    @example(math.inf)
    @example(-math.inf)
    @example(-0.0)
    @example(5e-324)
    @example(123456789012.5)
    def test_percent_format_is_the_format_spec(self, x):
        # _write_chain_csv formats a chunk with "%.12g", _csv_text each value
        # with f"{x:.12g}"
        assert "%.12g" % x == f"{x:.12g}"

    def test_tiny_profile_is_not_passed_vacuously(self, capsys, tmp_path):
        # w_eps at eps = 1e-100 is about 1e-92 and below on the grid; an
        # absolute denominator floor of 1e-12 read the residual as 2.8e-80
        code, out, _ = run_cli(
            ["iterate", "--m", "1", "--alpha", "3", "--eps", "1e-100",
             "--output-dir", str(tmp_path)], capsys
        )
        report = json.loads(out)
        assert report["checks"]["fixed_point_residual"] >= 0.5
        assert code == 1 and report["passed"] is False


class TestClassify:
    def test_family_member(self, capsys):
        code, out, _ = run_cli(
            ["classify", "--m", "1", "--alpha", "3", "--eps", "0.5",
             "--r-max", "20"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "coincides"
        assert report["max_rel_dev"] <= 1e-6
        assert report["steps"] > 0
        assert 0.0 < report["min_step"] < report["r_max"]

    @pytest.mark.parametrize("alpha", ["16", "17"])
    def test_large_alpha_family_member_coincides(self, alpha, capsys):
        # the 5(4) pair read a deviation of 12.4 at alpha = 16 and raised
        # BlowupError at 17; the 8(5,3) pair reads 1.3e-8 and 1.6e-6
        code, out, _ = run_cli(["classify", "--m", "2", "--alpha", alpha], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "coincides"
        assert report["max_rel_dev"] <= 1e-5

    def test_perturbed_departs(self, capsys):
        code, out, _ = run_cli(
            ["classify", "--m", "2", "--alpha", "4", "--perturb-index", "1",
             "--perturb-scale", "1.05"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "departs"
        assert report["departure"] >= 0.01

    def test_unperturbed_data_coincides_at_large_eps(self, capsys):
        # scale 1.0 perturbs nothing; the eps search must reach eps = 10
        code, out, _ = run_cli(
            ["classify", "--m", "2", "--alpha", "4", "--eps", "10", "--r-max", "200",
             "--perturb-index", "1", "--perturb-scale", "1.0"], capsys
        )
        assert code == 1
        report = json.loads(out)
        assert report["verdict"] == "coincides"
        assert report["departure"] < 0.01

    def test_overflowing_perturbation_departs(self, capsys):
        # u_0(0) scaled by 1e10 sets the dilation scale to 3.2e20, so the
        # run starts near r = 1e-21 and stops where a level passes its
        # bound, near 1.2e-20 (no numpy warning); the data depart
        code, out, _ = run_cli(
            ["classify", "--m", "2", "--alpha", "4", "--perturb-index", "0",
             "--perturb-scale", "1e10"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "departs"
        assert report["reached_r"] < 1e-19
        assert report["stop_reason"].startswith("BlowupError: u_1 = ")

    @pytest.mark.parametrize("extra", [
        [],
        ["--perturb-index", "1", "--perturb-scale", "1.05"],
    ])
    def test_reports_rhs_evaluations(self, extra, capsys):
        # one evaluation at the start, eleven per attempted step and one at
        # the end of each accepted step
        _, out, _ = run_cli(["classify", "--m", "2", "--alpha", "4"] + extra, capsys)
        report = json.loads(out)
        steps, rejected = report["steps"], report["rejected_steps"]
        assert steps > 0
        assert report["rhs_evaluations"] == 1 + 11 * (steps + rejected) + steps

    def test_stop_reason(self, capsys):
        # null when the run reaches r_max, else the error class and message
        _, out, _ = run_cli(
            ["classify", "--m", "2", "--alpha", "4", "--perturb-index", "1",
             "--perturb-scale", "1.0"], capsys
        )
        report = json.loads(out)
        assert report["reached_r"] == report["r_max"]
        assert report["stop_reason"] is None
        _, out, _ = run_cli(
            ["classify", "--m", "2", "--alpha", "4", "--perturb-index", "1",
             "--perturb-scale", "1.05"], capsys
        )
        report = json.loads(out)
        assert report["reached_r"] < report["r_max"]
        assert re.fullmatch(r"BlowupError: u_[01] = .* at r=\S+ \(non-global solution\)",
                            report["stop_reason"])

    def test_early_stop_keeps_the_report(self, capsys):
        # exact m = 7 data depart before r_max (the forward integration is
        # ill conditioned), and the run stops once the verdict is settled:
        # the report still gives the counters, the deviation up to the
        # stop, how far the run got and why it stopped
        code, out, _ = run_cli(["classify", "--m", "7", "--alpha", "15.5"], capsys)
        assert code == 1
        report = json.loads(out)
        assert report["verdict"] == "departs"
        assert 0.0 < report["reached_r"] < report["r_max"]
        assert report["steps"] > 0 and report["max_rel_dev"] > 0.0
        steps, rejected = report["steps"], report["rejected_steps"]
        assert report["rhs_evaluations"] == 1 + 11 * (steps + rejected) + steps
        assert re.fullmatch(r"DepartureError: u_0 - w_1 = .* at r=\S+ "
                            r"\(departs from the family\)", report["stop_reason"])
        # a run that reaches r_max reports neither field
        _, out, _ = run_cli(["classify", "--m", "2", "--alpha", "4"], capsys)
        assert not {"reached_r", "stop_reason"} & set(json.loads(out))

    @pytest.mark.parametrize("m,alpha,eps,r_max,unit_r_max,code", [
        # built at eps = 1e5, the absolute abs_tol made exact data depart at 0.174
        ("3", "8", "1e5", "2e6", "20", 0),
        # 20/eps = 2e301 departs, as at eps = 1; stop_reason names the unit radius
        ("2", "4", "1e-300", "20", "2e301", 1),
    ])
    def test_dilation_runs_the_unit_problem(self, m, alpha, eps, r_max, unit_r_max,
                                            code, capsys):
        # every eps runs the eps = 1 problem to r_max/eps: the same report,
        # with reached_r and min_step scaled back by eps
        argv = ["classify", "--m", m, "--alpha", alpha]
        got = run_cli(argv + ["--eps", eps, "--r-max", r_max], capsys)
        unit = run_cli(argv + ["--eps", "1", "--r-max", unit_r_max], capsys)
        assert got[0] == unit[0] == code
        report, unit = json.loads(got[1]), json.loads(unit[1])
        assert (report["eps"], report["r_max"]) == (float(eps), float(r_max))
        for key in set(unit) - {"eps", "r_max", "reached_r", "min_step"}:
            assert report[key] == unit[key], key
        for key in {"reached_r", "min_step"} & set(unit):
            assert report[key] == pytest.approx(unit[key] * float(eps), rel=1e-11), key

    def test_unperturbed_data_coincides_at_a_large_dilation(self, capsys):
        # the departure is measured on the unit trajectory: the eps = 1
        # figure, where data built at eps = 1e5 read "departs" at 0.062
        argv = ["classify", "--m", "3", "--alpha", "8", "--perturb-index", "1",
                "--perturb-scale", "1.0"]
        code, out, _ = run_cli(argv + ["--eps", "1e5", "--r-max", "2e6"], capsys)
        _, unit, _ = run_cli(argv, capsys)
        report, unit = json.loads(out), json.loads(unit)
        assert code == 1 and report["verdict"] == "coincides"
        assert report["departure"] == unit["departure"] < 1e-7
        assert report["reached_r"] == report["r_max"] == 2e6

    def test_perturb_index_validated(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["classify", "--m", "2", "--alpha", "4",
                      "--perturb-index", "5"])
        assert info.value.code == 2


class TestVerifyAll:
    def test_full_run_passes(self, capsys):
        code, out, _ = run_cli(["verify-all"], capsys)
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("[PASS]")]
        assert len(lines) == 12  # eleven criteria plus the golden artifact

    def test_corrupted_golden_fails_naming_artifact(self, capsys, tmp_path):
        bad = tmp_path / "coeff_table_m3.json"
        text = suite.coeff_table_json(suite.GOLDEN_TABLE_M)
        bad.write_text(text.replace('"-5"', '"-4"', 1), encoding="utf-8")
        code, out, err = run_cli(
            ["verify-all", "--golden", str(bad)], capsys
        )
        assert code == 1
        assert "[FAIL]" in out
        assert str(bad) in err  # failure names the mismatched artifact

    def test_report_written_to_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, _, _ = run_cli(
            ["verify-all", "--output", str(path)], capsys
        )
        assert code == 0
        report = json.loads(path.read_text())
        assert report["passed"] is True
        assert {c["criterion"] for c in report["checks"]} == set(range(12))


def test_verify_polyharmonic_byte_stable(capsys):
    _, out1, _ = run_cli(["verify-polyharmonic"], capsys)
    _, out2, _ = run_cli(["verify-polyharmonic"], capsys)
    assert out1 == out2


@pytest.mark.parametrize("argv", [
    ["verify-polyharmonic", "--max-m", "0"],
    ["verify-polyharmonic", "--max-m", "-3"],
    ["iterate", "--m", "2", "--alpha", "4", "--grid-points", "2"],
    ["iterate", "--m", "2", "--alpha", "4", "--r-min", "10", "--r-max", "1"],
    ["iterate", "--m", "2", "--alpha", "4", "--eps", "0"],
    ["classify", "--m", "2", "--alpha", "4", "--r-max", "0"],
    ["classify", "--m", "2", "--alpha", "4", "--eps", "0"],
    ["rayleigh", "--m", "1", "--alpha", "3", "--eps-list", "0"],
    ["rayleigh", "--m", "1", "--alpha", "3", "--eps-list", "1,x"],
    ["best-constant", "--m", "1", "--alpha", "3", "--seed", "1"],
    ["iterate", "--m", "2", "--alpha", "4", "--grid-points", "5"],
    ["iterate", "--m", "2", "--alpha", "4", "--r-max", "40"],
    ["iterate", "--m", "2", "--alpha", "4", "--r-min", "0.01"],
    ["verify-all", "--quick"],
    ["iterate", "--m", "2", "--alpha", "4", "--eps", "inf"],
    ["rayleigh", "--m", "1", "--alpha", "3", "--eps-list", ","],
    ["classify", "--m", "2", "--alpha", "4", "--perturb-index", "0",
     "--perturb-scale", "nan"],
    ["best-constant", "--m", "1", "--alpha", "inf"],
    ["iterate", "--m", "2", "--alpha", "4", "--r-max", "inf"],
    ["rayleigh", "--m", "1", "--alpha", "3", "--eps-list", "1", "--perturb",
     "--perturb-amplitude", "nan"],
    ["classify", "--m", "2", "--alpha", "4", "--r-max", "inf"],
    ["classify", "--m", "2", "--alpha", "4", "--eps", "1e-310"],    # r_max/eps = inf
    ["rayleigh", "--m", "2", "--alpha", "4", "--eps-list", "1e-300"],
    ["best-constant", "--m", "1", "--alpha", "1e300"],
    ["iterate", "--m", "2", "--alpha", "1e6"],
    ["classify", "--m", "2", "--alpha", "4", "--perturb-index", "0",
     "--perturb-scale", "1e300"],
    ["iterate", "--m", "2", "--alpha", "4", "--eps", "1e300"],
    ["iterate", "--m", "1", "--alpha", "100"],
    ["rayleigh", "--m", "1", "--alpha", "3", "--eps-list", "1", "--perturb",
     "--perturb-amplitude", "0"],
    ["iterate", "--m", "1", "--alpha", "3", "--eps", "1e-160"],
    ["coeff-table", "--m", "3", "--output", "missing/t.json"],
    ["best-constant", "--m", "1", "--alpha", "3", "--output", "."],
])
def test_invalid_arguments_exit_2(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a wrongly accepted iterate writes CSVs here
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


def _must_not_run(*args, **kwargs):
    raise AssertionError("the work ran before the output target was checked")


def test_unwritable_report_exits_2_before_the_suite(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(suite, "run_all", _must_not_run)
    with pytest.raises(SystemExit) as info:
        cli.main(["verify-all", "--output", "missing/v.json"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "missing/v.json" in err


def test_output_dir_that_is_a_file_exits_2_before_the_chain(capsys, tmp_path,
                                                            monkeypatch):
    blocker = tmp_path / "blocker"
    blocker.write_text("kept", encoding="utf-8")
    monkeypatch.setattr(iteration, "iterate_chain", _must_not_run)
    with pytest.raises(SystemExit) as info:
        cli.main(["iterate", "--m", "2", "--alpha", "4", "--output-dir", str(blocker)])
    assert info.value.code == 2
    assert "Traceback" not in capsys.readouterr().err
    assert blocker.read_text(encoding="utf-8") == "kept"


@pytest.mark.parametrize("existing", [None, "old report"])
def test_failed_run_leaves_the_output_as_it_was(existing, capsys, tmp_path):
    # the target is checked before the work without creating or truncating it
    path = tmp_path / "report.json"
    if existing is not None:
        path.write_text(existing, encoding="utf-8")
    with pytest.raises(SystemExit) as info:
        cli.main(["best-constant", "--m", "2", "--alpha", "2", "--output", str(path)])
    assert info.value.code == 2
    if existing is None:
        assert not path.exists()
    else:
        assert path.read_text(encoding="utf-8") == existing


def test_overflowing_perturbation_names_initial_data(capsys):
    # u_0(0) ~ 1.8e300 overflows |u|^(2*-2) u; the message names that data
    # instead of blaming a dilation parameter the user never gave
    with pytest.raises(SystemExit) as info:
        cli.main(["classify", "--m", "2", "--alpha", "4", "--perturb-index", "0",
                  "--perturb-scale", "1e300"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "initial data [1.78" in err
    assert "dilation parameter" not in err


def test_chain_weight_overflow_names_alpha(capsys, tmp_path, monkeypatch):
    # r_min^(1 - alpha) = 1e396 overflows; the message names alpha and the
    # grid ends instead of the finite differences that the NaNs would break
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        cli.main(["iterate", "--m", "1", "--alpha", "100"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "alpha=100" in err and "r_min=0.0001" in err
    assert "finite difference" not in err
    assert not list(tmp_path.iterdir())  # no CSV written


def test_cli_reads_suite_threshold(capsys, tmp_path, monkeypatch):
    # the fixed-point residual is 4.5e-6 (8192 nodes) and 1.8e-5 (4096 nodes)
    monkeypatch.setattr(suite, "FIXED_POINT_TOL", 1e-12)
    result = suite.check_fixed_point()
    assert not result.passed
    assert result.details["solution_residual"] > suite.FIXED_POINT_TOL
    code, out, _ = run_cli(
        ["iterate", "--m", "2", "--alpha", "4", "--output-dir", str(tmp_path)], capsys
    )
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_cli_reads_suite_chain_grid(capsys, tmp_path, monkeypatch):
    # iterate's default grid is the one of criteria 10 and 11
    monkeypatch.setattr(suite, "CHAIN_GRID_NODES", 1024)
    _, out, _ = run_cli(
        ["iterate", "--m", "2", "--alpha", "4", "--output-dir", str(tmp_path)], capsys
    )
    assert json.loads(out)["grid_points"] == 1024
    rows = (tmp_path / "chain_k0.csv").read_text().splitlines()
    assert len(rows) == 1 + 1024
    assert rows[1].startswith(f"{suite.CHAIN_R_MIN:.12g},")
    assert rows[-1].startswith(f"{suite.CHAIN_R_MAX:.12g},")
