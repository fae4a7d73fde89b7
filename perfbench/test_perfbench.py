"""Tests of the benchmark itself, on tiny versions of its four workloads."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from perfbench import calibrate, checks, run, workloads

ROOT = Path(__file__).resolve().parent.parent


def _passes(name: str, seed: int = 3, count: int = 2):
    workload = workloads.WORKLOADS[name]
    inputs = workload.build(seed, "tiny")
    results = []
    for _ in range(count):
        raw = workload.run_pass(inputs)
        results.append((raw, workload.evaluate(inputs, raw)))
    return inputs, results


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_workload_passes_its_checks_and_repeats(name):
    _, results = _passes(name)
    (_, first), (_, second) = results
    assert first.problems == []
    assert second.problems == []
    assert first.digest == second.digest
    assert sorted(first.sim) == sorted(n for n, _ in run.END_TO_END if n.startswith("sim_"))
    assert all(math.isfinite(v) and v > 0 for v in first.sim.values())


def test_seed_changes_the_inputs():
    _, [(_, a)] = _passes("fleet", seed=1, count=1)
    _, [(_, b)] = _passes("fleet", seed=2, count=1)
    assert a.digest != b.digest


def _fleet_outcomes():
    inputs, [(raw, _)] = _passes("fleet", count=1)
    report = raw["report"]
    return inputs["queries"], checks.served_records(report), report


def test_dropped_query_fails_the_output_check():
    offered, served, report = _fleet_outcomes()
    assert checks.check_outcomes(offered, served, [], [], report.unserved_queries) == []
    problems = checks.check_outcomes(offered, served[1:], [], [], report.unserved_queries)
    assert any("offered but" in p for p in problems)


def test_duplicated_completion_fails_the_output_check():
    offered, served, report = _fleet_outcomes()
    problems = checks.check_outcomes(
        offered, served + [served[0]], [], [], report.unserved_queries
    )
    assert any("served twice" in p for p in problems)


def test_query_both_served_and_shed_fails_the_output_check():
    offered, served, report = _fleet_outcomes()
    shed = [SimpleNamespace(query=served[0].query)]
    problems = checks.check_outcomes(offered, served[1:], shed, [], report.unserved_queries)
    assert problems == []
    problems = checks.check_outcomes(offered, served, shed, [], report.unserved_queries)
    assert any("both served and shed" in p for p in problems)


def test_unordered_bisection_fails_the_output_check():
    good = SimpleNamespace(feasible_rates=[10.0, 20.0], infeasible_rates=[40.0, 30.0], qps=20.0)
    assert checks.check_bisection(good) == []
    bad = SimpleNamespace(feasible_rates=[10.0, 35.0], infeasible_rates=[40.0, 30.0], qps=35.0)
    assert checks.check_bisection(bad)


def test_input_seeds_are_distinct_across_seeds_and_workers():
    seen = [s for seed in range(5) for w in range(run.WORKERS) for s in run.input_seeds(seed, w)]
    assert len(seen) == len(set(seen)) == 5 * run.WORKERS * run.INPUTS_PER_WORKER


def test_scaling_cancels_a_uniformly_slower_host():
    assert calibrate.calibrate() > 0
    assert calibrate.scaled(2.0, 0.2) == pytest.approx(calibrate.scaled(1.0, 0.1))
    assert calibrate.scaled(1.0, calibrate.REFERENCE_S) == 1.0


def _worker(passes):
    return {"passes": passes, "setup_s_scaled": 1.0, "peak_rss_mb": 1.0, "reference_plans": [],
            "generate_s": 0.1, "import_s": 0.1}


def _pass(pass_id, input_seed, digest, seconds):
    return {"pass": pass_id, "input_seed": input_seed, "traced": False, "problems": [],
            "digest": digest, "plan_s": 0.5,
            "sim": {name: float(input_seed) for name, _ in run.END_TO_END if name.startswith("sim_")},
            "plan_s_scaled": 0.5, "seconds": seconds, "seconds_scaled": seconds,
            "calibration_s": 0.05}


def test_aggregate_takes_medians_over_input_sets_and_checks_their_digests():
    passes = [_pass(0, 6, "a", 1.0), _pass(1, 7, "b", 3.0), _pass(2, 8, "c", 10.0),
              _pass(3, 6, "a", 2.0)]
    result = run.aggregate("capacity", [_worker(passes)], trace=0)
    assert result["failures"] == []
    # per-set medians 1.5, 3.0 and 10.0
    assert result["metrics"]["pass_s"]["value"] == pytest.approx(3.0)
    assert result["metrics"]["sim_p99_ms"]["value"] == pytest.approx(7.0)
    assert result["input_digests"] == {6: "a", 7: "b", 8: "c"}
    passes[3]["digest"] = "d"
    result = run.aggregate("capacity", [_worker(passes)], trace=0)
    assert result["failed"] == 1
    assert "input seed 6 differ" in result["failures"][0][1][0]


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, run.layer_unit(name)) for name in run.PER_LAYER
    ]
    setup_bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert all(0 < m["bound"] <= setup_bound for m in spec["end_to_end"])


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_traced_run_reports_every_layer_with_untraced_digests():
    proc = _run(
        ["--workload", "all", "--seed", "5", "--seconds", "0.2", "--trace", "1",
         "--scale", "tiny"]
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert len(metrics) == len(run.WORKLOAD_NAMES) * len(run.PER_LAYER)
    assert all(math.isfinite(m["value"]) for m in metrics.values())
    # each layer shows up where its workload exercises it
    assert metrics["capacity.planner.calls"]["value"] >= 1
    assert metrics["fleet.solver.solves"]["value"] > 0
    assert metrics["churn.controller.replans"]["value"] > 0
    assert metrics["churn.billing.intervals"]["value"] > 0
    assert metrics["dag.pipeline.doomed_calls"]["value"] > 0
    assert metrics["fleet.planner.calls"]["value"] == 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run(["--workload", "capacity", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
