"""Output checks, simulated metrics and digests for one benchmark pass.

Every check returns a list of problems (empty when the outputs are right), so a
pass can report all of them at once.  The digest is a sha256 over every simulated
outcome, with each float written by ``repr``: it is identical for a fixed seed on
any code that serves the same queries the same way.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

#: scale-log kinds that mark a fault onset (flaky windows leave no log entry)
FAULT_ONSET_KINDS = ("instance_failed", "degradation_onset", "zombie_onset")
GRAPH_OUTCOMES = ("served", "shed", "dead", "unserved")


def served_records(report) -> list:
    """Every served query's record, across all models of the run."""
    metrics = report.metrics
    if hasattr(metrics, "per_model"):
        return [r for m in metrics.per_model().values() for r in m.records]
    return metrics.records


def check_outcomes(
    offered: Sequence, served: Sequence, shed: Sequence, dead: Sequence, unserved: int
) -> List[str]:
    """Every offered query ends exactly once: served, shed, dead-lettered or unserved."""
    problems: List[str] = []
    offered_ids = [q.query_id for q in offered]
    served_ids = [r.query.query_id for r in served]
    shed_ids = [e.query.query_id for e in shed]
    dead_ids = [e.query.query_id for e in dead]
    for label, ids in (("offered", offered_ids), ("served", served_ids)):
        repeated = [i for i, n in Counter(ids).items() if n > 1]
        if repeated:
            problems.append(f"{label} twice: query ids {sorted(repeated)[:5]}")
    offered_set = set(offered_ids)
    ended = [("served", set(served_ids)), ("shed", set(shed_ids)), ("dead", set(dead_ids))]
    for label, ids in ended:
        stray = ids - offered_set
        if stray:
            problems.append(f"{label} but never offered: query ids {sorted(stray)[:5]}")
    for i, (label_a, a) in enumerate(ended):
        for label_b, b in ended[i + 1 :]:
            both = a & b
            if both:
                problems.append(f"both {label_a} and {label_b}: query ids {sorted(both)[:5]}")
    total = len(served_ids) + len(shed_ids) + len(dead_ids) + int(unserved)
    if total != len(offered_ids):
        problems.append(
            f"{len(offered_ids)} queries offered but {len(served_ids)} served + "
            f"{len(shed_ids)} shed + {len(dead_ids)} dead + {unserved} unserved = {total}"
        )
    return problems


def check_conservation(report, offered: Sequence) -> List[str]:
    return check_outcomes(
        offered,
        served_records(report),
        report.shed_queries,
        report.dead_letters,
        report.unserved_queries,
    )


def check_bisection(capacity) -> List[str]:
    """The highest feasible probe rate lies below the lowest infeasible one."""
    feasible = capacity.feasible_rates
    infeasible = capacity.infeasible_rates
    if not feasible:
        return ["no probed rate met QoS"]
    problems: List[str] = []
    if infeasible and max(feasible) >= min(infeasible):
        problems.append(
            f"feasible rate {max(feasible)!r} is not below infeasible rate {min(infeasible)!r}"
        )
    if capacity.qps != max(feasible):
        problems.append(f"reported {capacity.qps!r} qps, highest feasible probe {max(feasible)!r}")
    return problems


def check_ledger_partition(ledger, horizon_ms: float) -> List[str]:
    """The ledger's per-type costs sum to its total within 1e-9."""
    total = ledger.total_cost(horizon_ms)
    parts = math.fsum(ledger.cost_by_type(horizon_ms).values())
    if abs(parts - total) > 1e-9:
        return [f"per-type costs sum to {parts!r}, total is {total!r}"]
    return []


def check_graph_partition(outcomes: Sequence, graphs: Sequence) -> List[str]:
    """Graph outcomes partition the released graphs; only served graphs meet deadlines."""
    problems: List[str] = []
    got = sorted(o.graph_id for o in outcomes)
    want = sorted(g.graph_id for g in graphs)
    if got != want:
        problems.append(f"{len(got)} graph outcomes for {len(want)} graphs (ids differ)")
    for o in outcomes:
        if o.outcome not in GRAPH_OUTCOMES:
            problems.append(f"graph {o.graph_id} has outcome {o.outcome!r}")
        elif o.deadline_met and o.outcome != "served":
            problems.append(f"graph {o.graph_id} met its deadline but is {o.outcome}")
    return problems


@dataclass(frozen=True)
class ServingOutcome:
    attainment: float
    p99_ms: float
    wait_p50_ms: float
    wait_p99_ms: float


def serving_outcome(report, offered: Sequence, qos_by_model: Dict[Optional[str], float]) -> ServingOutcome:
    """Attainment over offered queries, p99 of served latency, queue-wait percentiles.

    Shed, dead-lettered and unserved queries count as misses.  ``qos_by_model`` maps
    each model name (``None`` for a single-model run) to its QoS target.
    """
    records = served_records(report)
    sole = qos_by_model.get(None)
    met = sum(
        1
        for r in records
        if r.meets_qos(sole if sole is not None else qos_by_model[r.query.model_name])
    )
    latencies = np.asarray([r.latency_ms for r in records], dtype=float)
    waits = np.asarray([r.waiting_ms for r in records], dtype=float)
    return ServingOutcome(
        attainment=met / len(offered) if offered else float("nan"),
        p99_ms=float(np.percentile(latencies, 99)) if len(records) else float("nan"),
        wait_p50_ms=float(np.percentile(waits, 50)) if len(records) else float("nan"),
        wait_p99_ms=float(np.percentile(waits, 99)) if len(records) else float("nan"),
    )


def layer_counts(report, outcome: ServingOutcome) -> Dict[str, float]:
    """Per-layer counts that the program's own outputs already carry."""
    launched = getattr(report, "hedges_launched", 0)
    ledger = getattr(report, "ledger", None)
    scale_log = getattr(report, "scale_log", ())
    return {
        "health.quarantines": float(getattr(report, "quarantine_events", 0)),
        "hedge.launched": float(launched),
        "hedge.win_share": getattr(report, "hedge_wins", 0) / launched if launched else 0.0,
        "retry.retries": float(report.retries),
        "retry.dead_letters": float(len(report.dead_letters)),
        "admission.shed": float(len(report.shed_queries)),
        "faults.onsets": float(sum(e.count for e in scale_log if e.kind in FAULT_ONSET_KINDS)),
        "billing.intervals": float(len(ledger.intervals)) if ledger is not None else 0.0,
        "sim.queue_wait_ms_p50": outcome.wait_p50_ms,
        "sim.queue_wait_ms_p99": outcome.wait_p99_ms,
        "pipeline.graphs_shed": 0.0,
    }


def digest(report, sim: Dict[str, float], extra: Iterable[Sequence]) -> str:
    """sha256 over every simulated outcome of one pass."""
    h = hashlib.sha256()

    def line(*parts) -> None:
        h.update("|".join(str(p) for p in parts).encode())
        h.update(b"\n")

    line("counts", report.scheduling_rounds, report.dispatched_queries, report.total_queries)
    line("duration", repr(report.simulated_duration_ms))
    for r in sorted(served_records(report), key=lambda r: r.query.query_id):
        line("done", r.query.query_id, r.server_id, repr(r.start_ms), repr(r.completion_ms))
    for e in report.shed_queries:
        line("shed", e.query.query_id, repr(e.time_ms), e.reason)
    for e in report.dead_letters:
        line("dead", e.query.query_id, repr(e.time_ms), e.reason, e.attempts)
    line("unserved", report.unserved_queries, "retries", report.retries)
    ledger = getattr(report, "ledger", None)
    if ledger is not None:
        line("bill", repr(ledger.total_cost(report.billing_horizon_ms)), len(ledger.intervals))
    for name in sorted(sim):
        line("sim", name, repr(sim[name]))
    for parts in extra:
        line(*parts)
    return h.hexdigest()
