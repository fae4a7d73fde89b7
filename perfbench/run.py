"""Run the Kairos benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload capacity --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 18 --trace 1

Each workload runs in fresh worker processes (``perfbench/worker.py``), one after
another, with ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS``
set to 1.  Every worker sets up anew, which is what ``setup_s`` measures, builds
its own input sets and spends ``--seconds / WORKERS`` on timed passes.  Host
times are scaled by a calibration loop run next to them (``perfbench/calibrate.py``).
The outputs of every pass are checked; a failed check, or a pass whose simulated
outputs differ from those of another pass on the same input set, fails the run
and the command exits with 1.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer metrics
of a traced run (see ``perfbench/README.md``).  The last line of standard output
is ``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
WORKLOAD_NAMES = ("capacity", "fleet", "churn", "dag")
#: fresh worker processes per workload, run one after another
WORKERS = 2
#: input sets per worker, each built from its own input seed (see :func:`input_seeds`)
INPUTS_PER_WORKER = 3
#: a run of one workload gives up (exit 1) after this many seconds
RUN_TIMEOUT_S = 170.0

#: (name, unit) of every end-to-end metric, in report order
END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("plan_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_allowable_qps", "sim_qps"),
    ("sim_attainment", "share"),
    ("sim_p99_ms", "sim_ms"),
    ("sim_cost_per_hr", "USD/hr"),
    ("sim_graph_attainment", "share"),
)

#: per-layer metrics of the traced run; see ``perfbench/tracing.py`` for the spans
PER_LAYER = (
    "planner.calls", "planner.s", "planner.enumerate_s", "planner.rank_s", "planner.configs",
    "controller.calls", "controller.replans", "controller.s",
    "policy.rounds", "policy.s", "policy.self_s", "policy.rows_p50", "policy.rows_max",
    "policy.single_row_share", "policy.assigned_share",
    "cost_matrix.refresh_s", "cost_matrix.assemble_s", "cost_matrix.builds", "cost_matrix.cells",
    "latency_model.predict_calls", "latency_model.predict_s", "latency_model.observe_calls",
    "solver.solves", "solver.s", "solver.cells", "solver.cols_max",
    "sim.s", "sim.self_s", "sim.events", "sim.queue_wait_ms_p50", "sim.queue_wait_ms_p99",
    "cluster.lookups", "cluster.lookup_s",
    "health.s", "health.quarantines", "hedge.launched", "hedge.win_share",
    "retry.retries", "retry.dead_letters", "admission.shed", "faults.onsets",
    "billing.s", "billing.intervals",
    "pipeline.doomed_calls", "pipeline.doomed_s", "pipeline.critical_path_calls",
    "pipeline.graphs_shed",
    "workload.generate_s", "import_s",
    "trace.overhead",
)


def layer_unit(name: str) -> str:
    if name == "trace.overhead":
        return "ratio"
    if "_ms_" in name:
        return "sim_ms"
    if name.endswith("_share"):
        return "share"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "count"


class BenchError(Exception):
    """The benchmark could not produce a result (set-up or a worker broke)."""


def input_seeds(seed: int, worker: int) -> range:
    """Seeds of the input sets worker ``worker`` builds in a run with ``--seed seed``.

    A run builds ``WORKERS * INPUTS_PER_WORKER`` input sets, each from its own seed,
    and no two ``--seed`` values share one.  Pooling passes over several input
    sets keeps one unlucky draw (a queueing episode, an extra re-plan) from
    setting a run's figures.
    """
    first = (seed * WORKERS + worker) * INPUTS_PER_WORKER
    return range(first, first + INPUTS_PER_WORKER)


def run_worker(workload: str, args, index: int, budget_s: float, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [
        sys.executable, "-m", "perfbench.worker",
        "--workload", workload,
        "--input-seeds", ",".join(str(s) for s in input_seeds(args.seed, index)),
        "--seconds", repr(budget_s),
        "--trace", str(args.trace),
        "--scale", args.scale,
    ]
    if args.trace:
        cmd += ["--spans", str(OUT_DIR / f"spans-{workload}-w{index}.npz")]
    cmd += ["--spawned-at", repr(time.time())]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise BenchError(f"{workload} worker {index} timed out after {exc.timeout} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{workload} worker {index} exited with {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def pass_time(passes: list) -> float:
    """Scaled seconds per pass: the median over input sets of each set's median.

    Every set counts once, however many passes it got, and one set that draws a
    congestion episode (``dag``: 50% more scheduling rounds) does not move it.
    """
    by_input = {}
    for p in passes:
        by_input.setdefault(p["input_seed"], []).append(p["seconds_scaled"])
    return statistics.median(statistics.median(times) for times in by_input.values())


def aggregate(workload: str, workers: list, trace: int) -> dict:
    """Fold the workers' passes into metrics, check verdicts and one digest.

    The simulated metrics are medians over the input sets, each read from the
    first pass on that set; every other pass on it must give the same digest.
    """
    passes = [p for w in workers for p in w["passes"]]
    firsts = {}
    for p in passes:
        if "digest" in p:
            firsts.setdefault(p["input_seed"], p)
    failures = []
    for p in passes:
        problems = list(p["problems"])
        if "digest" in p and p["digest"] != firsts[p["input_seed"]]["digest"]:
            problems.append(
                f"simulated outputs of input seed {p['input_seed']} differ from its first"
                f" pass ({p['digest'][:12]})"
            )
        if problems:
            failures.append((p["pass"], problems))
    digest = hashlib.sha256(
        "".join(f"{seed}:{firsts[seed]['digest']}\n" for seed in sorted(firsts)).encode()
    ).hexdigest() if firsts else None
    plain = [p for p in passes if not p["traced"]]
    metrics = {}
    if not trace:
        # capacity also plans inside its passes; the other workloads do not plan at
        # that budget and pass NaN
        plan_samples = [p["plan_s_scaled"] for w in workers for p in w["reference_plans"]]
        plan_samples += [
            p["plan_s_scaled"] for p in plain if math.isfinite(p.get("plan_s_scaled", math.nan))
        ]
        values = {
            "setup_s": statistics.median(w["setup_s_scaled"] for w in workers),
            "pass_s": pass_time(plain),
            "plan_s": statistics.median(plan_samples) if plan_samples else math.nan,
            "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in workers),
        }
        for name in firsts[min(firsts)]["sim"] if firsts else ():
            values[name] = statistics.median(first["sim"][name] for first in firsts.values())
        for name, unit in END_TO_END:
            metrics[name] = {"value": values.get(name, math.nan), "unit": unit}
    else:
        traced = [p for p in passes if p["traced"] and "layers" in p]
        values = {}
        if traced:
            for name in traced[0]["layers"]:
                values[name] = statistics.median(p["layers"][name] for p in traced)
            values["trace.overhead"] = (
                pass_time([p for p in passes if p["traced"]]) / pass_time(plain)
                - 1.0
            )
        values["workload.generate_s"] = statistics.median(w["generate_s"] for w in workers)
        values["import_s"] = statistics.median(w["import_s"] for w in workers)
        for name in PER_LAYER:
            metrics[name] = {"value": values.get(name, math.nan), "unit": layer_unit(name)}
    broken = [name for name, data in metrics.items() if not math.isfinite(data["value"])]
    if broken:
        failures.append((None, [f"metric {name} is not a finite number" for name in broken]))
    return {
        "workload": workload,
        "digest": digest,
        "input_digests": {seed: first["digest"] for seed, first in sorted(firsts.items())},
        "attempted": len(passes),
        "failed": sum(1 for pass_id, _ in failures if pass_id is not None),
        "failures": failures,
        "pass_samples": len(plain),
        "pass_seconds": [p["seconds"] for p in plain],
        "calibration_s": statistics.median(p["calibration_s"] for p in passes),
        "metrics": metrics,
    }


def report(result: dict, seed: int) -> None:
    name = result["workload"]
    print(f"== {name} (seed {seed}): {result['attempted']} passes, {result['failed']} failed")
    for metric, data in result["metrics"].items():
        note = (
            f"  ({result['pass_samples']} passes over {len(result['input_digests'])} input sets)"
            if metric == "pass_s" else ""
        )
        print(f"  {metric:32s} {data['value']:>16.6g} {data['unit']}{note}")
    raw = statistics.median(result["pass_seconds"])
    print(f"  unscaled pass_s {raw:.6g} s; calibration loop {result['calibration_s']:.6g} s")
    print(f"  digest {result['digest']}")
    for pass_id, problems in result["failures"]:
        where = "run" if pass_id is None else f"pass {pass_id}"
        for problem in problems:
            print(f"  FAILED {where}: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed-pass budget")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default="full", help="input sizes (tiny: for tests)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}: nothing to benchmark", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            budget = args.seconds / WORKERS
            deadline = time.monotonic() + RUN_TIMEOUT_S
            workers = [run_worker(name, args, i, budget, deadline) for i in range(WORKERS)]
            results.append(aggregate(name, workers, args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    for result in results:
        report(result, args.seed)
        path = OUT_DIR / f"{result['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1) + "\n")
    prefix = len(results) > 1
    metrics = {
        (f"{r['workload']}." if prefix else "") + name: {
            # a broken metric has already failed the run; keep the line strict JSON
            "value": data["value"] if math.isfinite(data["value"]) else None,
            "unit": data["unit"],
        }
        for r in results
        for name, data in r["metrics"].items()
    }
    failed = sum(r["failed"] for r in results)
    correct = all(not r["failures"] for r in results)
    line = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
