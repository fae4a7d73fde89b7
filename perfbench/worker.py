"""One benchmark worker process: set up one workload, then run timed passes.

Started by ``perfbench/run.py`` as ``python -m perfbench.worker`` in a fresh
interpreter with one BLAS/OpenMP thread.  It imports the program, builds one
set of the workload's inputs from each of its ``--input-seeds``, and runs passes,
taking the input sets in turn, until its time budget is spent (always at least
one).  With ``--trace 1`` the budget is split: untraced passes first, then the
layer tracer is installed and the same passes run traced.  The last line of
standard output is one JSON object for ``run.py`` to aggregate.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from perfbench import calibrate


def _calibrate_after_gc() -> float:
    gc.collect()
    return calibrate.calibrate()


def _scale_by_calibration(records: list, calibrations: list, keys) -> None:
    """Add ``<key>_scaled`` to each record: its time scaled by the calibration
    runs just before and just after it (``calibrations[i]`` and ``[i + 1]``)."""
    for record, before, after in zip(records, calibrations, calibrations[1:]):
        record["calibration_s"] = (before + after) / 2.0
        for key in keys:
            if key in record:
                record[key + "_scaled"] = calibrate.scaled(record[key], record["calibration_s"])


def _run_passes(workload, input_sets: dict, budget_s: float, first_id: int, tracer=None) -> list:
    """Run timed passes until ``budget_s`` is spent (at least one).

    ``input_sets`` maps input seeds to built inputs; pass ``n`` runs the
    ``n % len(input_sets)``-th of them.

    Another pass starts only while at least half of one still fits in the budget,
    so a run overshoots its budget by at most about half a pass.  Garbage left by
    the previous pass is collected before the timer starts, so that every pass
    starts from the same heap and no pass pays for another's garbage.  The
    calibration loop runs before the first pass and after every pass, untimed
    and untraced, and scales each pass's times by the two runs around it.
    """
    records = []
    seeds = list(input_sets)
    calibrations = [_calibrate_after_gc()]
    start = time.perf_counter()
    while not records or time.perf_counter() - start + records[-1]["seconds"] / 2 <= budget_s:
        pass_id = first_id + len(records)
        input_seed = seeds[len(records) % len(seeds)]
        inputs = input_sets[input_seed]
        record = {"pass": pass_id, "input_seed": input_seed, "traced": tracer is not None}
        if tracer is not None:
            tracer.begin_pass(pass_id)
        try:
            t0 = time.perf_counter()
            try:
                raw = workload.run_pass(inputs)
            finally:
                record["seconds"] = time.perf_counter() - t0
                if tracer is not None:
                    tracer.end_pass()
            out = workload.evaluate(inputs, raw)
            # drop this pass's outputs before the next pass starts, so that peak
            # memory is one pass's and does not depend on the number of passes
            del raw
        except Exception:  # a pass that raises is a failed pass, not a crashed run
            record["problems"] = ["raised: " + traceback.format_exc(limit=4)]
        else:
            record.update(
                problems=out.problems,
                digest=out.digest,
                sim=out.sim,
                plan_s=out.plan_s,
            )
            if tracer is not None:
                record["layers"] = {**tracer.layer_metrics(), **out.counts}
        records.append(record)
        calibrations.append(_calibrate_after_gc())
    _scale_by_calibration(records, calibrations, ("seconds", "plan_s"))
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--input-seeds", required=True, help="comma-separated")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--spans", default=None, help="file to save the traced spans in")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    from perfbench import workloads  # imports the program

    import_s = time.perf_counter() - t0
    workload = workloads.WORKLOADS[args.workload]
    t0 = time.perf_counter()
    input_sets = {
        seed: workload.build(seed, args.scale)
        for seed in (int(s) for s in args.input_seeds.split(","))
    }
    generate_s = time.perf_counter() - t0
    setup_s = time.time() - args.spawned_at

    if args.trace:
        from perfbench import tracing

        plain = _run_passes(workload, input_sets, args.seconds / 2.0, 0)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        traced = _run_passes(workload, input_sets, args.seconds / 2.0, len(plain), tracer)
        if args.spans:
            Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
            tracer.write(args.spans)
        passes = plain + traced
    else:
        passes = _run_passes(workload, input_sets, args.seconds, 0)

    # read before the reference plans below, which are not part of the workload
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reference_plans = []
    if not args.trace:
        calibrations = [_calibrate_after_gc()]
        for _ in range(workloads.REFERENCE_PLANS):
            reference_plans.append({"plan_s": workloads.reference_plan_s()})
            calibrations.append(_calibrate_after_gc())
        _scale_by_calibration(reference_plans, calibrations, ("plan_s",))
    # set-up ran before any calibration; scale it by the median one of this process
    calibration_s = statistics.median(p["calibration_s"] for p in passes)

    result = {
        "setup_s": setup_s,
        "setup_s_scaled": calibrate.scaled(setup_s, calibration_s),
        "calibration_s": calibration_s,
        "import_s": import_s,
        "generate_s": generate_s,
        "reference_plans": reference_plans,
        "peak_rss_mb": peak_rss_mb,
        "passes": passes,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
