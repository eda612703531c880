"""Tests of the benchmark harness: fault injection, span accounting, the
result contract and the failure in a checkout without polyrad.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from polyrad import coefficients as coeff  # noqa: E402
from polyrad import functionals as fun  # noqa: E402
from polyrad import iteration as it  # noqa: E402
from polyrad.radial import AlphaPoly  # noqa: E402

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import NULL_TRACER, Span, Tracer, pass_metrics, self_times  # noqa: E402

SMALL_GRID = it.RadialGrid.geometric(*wl.GRID_RANGE, 8192)
GRID_INPUTS = {"grids": (SMALL_GRID,), "cases": [(2, 4.5, 1.0), (3, 7.0, 1.5)]}


def failed(cases):
    return [c for c in cases.items if not c.ok]


def test_clean_passes_have_no_unexpected_failures():
    cases = wl.Cases()
    wl.symbolic_pass((4, 8), NULL_TRACER, cases)
    wl.grid_pass(GRID_INPUTS, NULL_TRACER, cases)
    wl.scalar_pass({"rayleigh": [(2, 5.5)], "ivp": [(2, 5.5)]}, NULL_TRACER, cases)
    wl.OUT_DIR.mkdir(exist_ok=True)
    wl.verify_all_pass(7, NULL_TRACER, cases)
    assert len(cases.items) == 10 + 12 + 25 + 1 + 13
    assert failed(cases) == []


def test_known_ivp_defect_counts_as_failed_but_keeps_correct():
    cases = wl.Cases()
    wl.scalar_pass({"rayleigh": [], "ivp": [(4, 9.5), (6, 13.5)]}, NULL_TRACER, cases)
    bad = failed(cases)
    assert [c.name.split()[1] for c in bad] == ["m=6"]
    assert bad[0].known_defect and bad[0].layer == "ode"
    assert "Error at r=" in bad[0].reason


def test_corrupted_coeff_table_counts_in_failed_share(monkeypatch):
    build = coeff.CoeffTable.build

    def corrupted(m):
        table = build(m)
        return table.with_g_entry(1, m, table.g[1, m] + AlphaPoly.one())

    monkeypatch.setattr(coeff.CoeffTable, "build", corrupted)
    runner = run.Runner("symbolic-highm", seed=1)
    runner.inputs = [(4,)]
    runner.run_pass(NULL_TRACER)
    names = sorted(c.name for c in runner.failures)
    assert names == ["CoeffTable.build m=4", "verify_expansion m=4"]
    summary = run.summary([runner])
    assert summary["failed"] == 2 and summary["attempted"] == 5
    assert summary["correct"] is False


def test_scaled_profile_counts_in_failed_share(monkeypatch):
    bliss = fun.bliss_profile
    monkeypatch.setattr(fun, "bliss_profile", lambda m, a, e: 1.1 * bliss(m, a, e))
    tracer = Tracer()
    trace = tracer.begin_trace()
    cases = wl.Cases()
    wl.grid_pass(GRID_INPUTS, tracer, cases)
    bad = {c.name.split()[0] for c in failed(cases)}
    assert bad == {"profile", "fixed_point_residual"}
    assert pass_metrics(tracer, trace)["iteration.fixed_point_residual.n8192"] >= 0.01
    assert not any(c.known_defect for c in failed(cases))


@pytest.mark.parametrize("setting, value, bad", [
    ("FULL_GRID_NODES", 1024, ["c09"]),  # the fixed point on a smaller grid
    ("CHAIN_GRID_NODES", 3072, ["c10", "c11"]),  # the chain on a smaller grid
    ("GAMMA_QUAD_ALPHAS", (1.5, 3.0), ["c05"]),  # fewer quadrature cases
])
def test_shrunk_verify_all_work_counts_as_failed(monkeypatch, setting, value, bad):
    monkeypatch.setattr(wl.suite, setting, value)
    wl.OUT_DIR.mkdir(exist_ok=True)
    cases = wl.Cases()
    wl.verify_all_pass(7, NULL_TRACER, cases)
    assert [c.name for c in failed(cases)] == bad


def test_loosened_verify_all_threshold_counts_as_failed(monkeypatch):
    # the suite accepts a 1e4 times worse IVP deviation under a tolerance of 1
    classify = wl.ode.classification_check
    monkeypatch.setattr(wl.ode, "classification_check", lambda *a: dataclasses.replace(
        classify(*a), max_rel_dev=1e4 * classify(*a).max_rel_dev))
    monkeypatch.setattr(wl.suite, "CLASSIFICATION_CASES",
                        tuple(case[:4] + (1.0,) for case in wl.suite.CLASSIFICATION_CASES))
    wl.OUT_DIR.mkdir(exist_ok=True)
    cases = wl.Cases()
    wl.verify_all_pass(7, NULL_TRACER, cases)
    assert [c.name for c in failed(cases)] == ["c08"]


def test_spans_nest_and_self_times_add_up():
    wl.OUT_DIR.mkdir(exist_ok=True)
    tracer = Tracer()
    trace = tracer.begin_trace()
    wl.verify_all_pass(11, tracer, wl.Cases())
    spans = tracer.spans
    by_id = {s.id: s for s in spans}
    own = dict(zip((s.id for s in spans), self_times(spans)))
    roots = [s for s in spans if s.parent is None]
    assert [s.name for s in roots] == ["cli.main"]
    assert len(spans) == 1 + len(wl.SUITE_CHECKS)
    for span in spans:
        assert span.trace == trace
        if span.parent is not None:
            parent = by_id[span.parent]
            assert parent.start <= span.start <= span.end <= parent.end
    for span in spans:
        children = [s for s in spans if s.parent == span.id]
        assert own[span.id] + sum(c.duration for c in children) == \
            pytest.approx(span.duration, rel=1e-12, abs=1e-12)
    assert sum(own.values()) == pytest.approx(sum(r.duration for r in roots), rel=1e-12)
    values = pass_metrics(tracer, trace)
    assert values["cli.overhead_s"] == pytest.approx(own[roots[0].id])
    assert {k for k in values if k.startswith("suite.")} == \
        {f"suite.check_s.c{c:02d}" for c in range(12)}


def test_traced_pass_nests_pass_case_and_module_spans():
    runner = run.Runner("symbolic-highm", seed=1)
    runner.inputs = [(4, 8)]
    tracer = Tracer()
    _, values = runner.traced_pass(tracer)
    by_id = {s.id: s for s in tracer.spans}
    depth = {}
    for span in tracer.spans:  # parents are recorded before their children
        depth[span.id] = 0 if span.parent is None else depth[span.parent] + 1
    names = {(depth[s.id], s.name.split(".")[0]) for s in tracer.spans}
    assert names == {(0, "harness"), (1, "harness"), (2, "radial"), (2, "coefficients")}
    cases = [s for s in tracer.spans if s.name == "harness.case"]
    assert [c.attrs["m"] for c in cases] == [4, 8]
    assert all(by_id[s.parent].name == "harness.case"
               for s in tracer.spans if depth[s.id] == 2)
    assert values["coefficients.verify_expansion_s.m8"] > 0
    assert values["coefficients.failed"] == 0 and values["radial.failed"] == 0


def test_self_time_of_overlapping_children_counts_covered_time_once():
    spans = [Span(0, None, 0, "root", None, 0.0, 10.0),
             Span(1, 0, 0, "a", None, 1.0, 4.0),
             Span(2, 0, 0, "b", None, 3.0, 6.0),
             Span(3, 2, 0, "c", None, 3.5, 5.0)]
    assert self_times(spans) == pytest.approx([5.0, 3.0, 1.5, 1.5])


def test_tail_leaves_ten_samples_above():
    times = [float(x) for x in range(25)]
    assert run.tail(times) == (14.0, 60.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_benchmark_json_matches_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS) \
        == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [tuple(m) for m in wl.PER_LAYER]
    assert [m["name"] for m in spec["end_to_end"]] == \
        ["setup_s", "verdict_s", "verdict_s_tail", "peak_rss_mb"]


def test_result_line_contract():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-all", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_checkout_without_polyrad_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-all", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "cannot import polyrad" in proc.stderr
