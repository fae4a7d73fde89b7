"""Pinned outputs of the static serving loop (``ServingSimulation``).

The corpus digests in ``digests.json`` replay one static scenario; they reach
neither the early-stop path that ``measure_allowable_throughput`` relies on nor
static retry timeouts.  These pins cover both, plus the whole bisection probe
table of the paper's headline capacity flow, so any rewrite of the static loop
must reproduce its outputs byte for byte.

Regenerate (only for a deliberate behaviour change) with::

    PYTHONPATH=src python tests/regression/test_static_pins.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro import KairosServingSystem
from repro.cloud.config import HeterogeneousConfig
from repro.cloud.profiles import default_profile_registry
from repro.schedulers.kairos_policy import KairosPolicy
from repro.sim.cluster import Cluster
from repro.sim.faults import AdmissionController, RetryPolicy
from repro.sim.simulation import (
    ServingSimulation,
    gaussian_service_noise,
    simulate_serving,
)
from repro.workload.generator import WorkloadGenerator, WorkloadSpec

DIGEST_FILE = Path(__file__).parent / "static_digests.json"


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update("|".join(str(part) for part in line).encode())
        h.update(b"\n")
    return h.hexdigest()


def probe_table(seed: int, noisy: bool) -> str:
    """Every bisection probe of the RM2 $10/hr plan's allowable-throughput search."""
    system = KairosServingSystem("RM2", 10.0, rng=np.random.default_rng(seed))
    kwargs = {"noise": gaussian_service_noise(0.05)} if noisy else {}
    result = system.measure_throughput(
        num_queries=400, rng=np.random.default_rng(seed + 1), **kwargs
    )
    lines = [("config", *system.selected_config.counts), ("qps", repr(result.qps))]
    lines += [
        ("probe", repr(p.rate_qps), p.feasible, repr(p.tail_latency_ms), p.early_stopped)
        for p in result.probes
    ]
    return _digest(lines)


def _rm2(counts):
    profiles = default_profile_registry()
    return profiles, profiles.models["RM2"], HeterogeneousConfig(counts, profiles.catalog)


def early_stopped_run() -> str:
    """An overloaded run cut short by its violation budget."""
    profiles, model, config = _rm2((1, 0, 2, 0))
    queries = WorkloadGenerator(WorkloadSpec(num_queries=300)).generate(
        rate_qps=150.0, rng=5
    )
    report = simulate_serving(
        config,
        model,
        profiles,
        KairosPolicy(),
        queries,
        rng=np.random.default_rng(6),
        max_violations=10,
        warmup_queries=20,
    )
    return _digest(
        [
            ("early_stopped", report.early_stopped),
            ("served", len(report.metrics)),
            ("rounds", report.scheduling_rounds),
            ("dispatched", report.dispatched_queries),
            ("unserved", report.unserved_queries),
        ]
    )


def retry_admission_run() -> str:
    """Response timeouts with backoff re-queues and admission shedding together."""
    profiles, model, config = _rm2((2, 1, 4, 0))
    queries = WorkloadGenerator(WorkloadSpec(num_queries=300)).generate(
        rate_qps=150.0, rng=5
    )
    report = ServingSimulation(
        Cluster(config, model, profiles),
        KairosPolicy(),
        rng=np.random.default_rng(6),
        warmup_queries=20,
        retry=RetryPolicy(max_attempts=3, backoff_base_ms=5.0, response_timeout_ms=150.0),
        admission=AdmissionController(target_latency_ms=model.qos_ms),
    ).run(queries)
    lines = [
        (
            "counts",
            report.scheduling_rounds,
            report.dispatched_queries,
            report.retries,
            report.unserved_queries,
        ),
        ("duration", repr(report.simulated_duration_ms)),
    ]
    lines += [
        (
            "done",
            r.query.query_id,
            r.server_id,
            repr(r.start_ms),
            repr(r.completion_ms),
            repr(r.service_ms),
        )
        for r in report.metrics.records
    ]
    lines += [("shed", e.query.query_id, repr(e.time_ms)) for e in report.shed_queries]
    lines += [
        ("dead", e.query.query_id, repr(e.time_ms), e.reason, e.attempts)
        for e in report.dead_letters
    ]
    return _digest(lines)


PINS = {
    "probe-table-seed-3": lambda: probe_table(3, noisy=False),
    "probe-table-seed-8-noise": lambda: probe_table(8, noisy=True),
    "early-stopped-run": early_stopped_run,
    "retry-admission-run": retry_admission_run,
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_static_loop_output_is_pinned(name):
    pinned = json.loads(DIGEST_FILE.read_text())
    assert PINS[name]() == pinned[name]


if __name__ == "__main__":
    DIGEST_FILE.write_text(
        json.dumps({name: PINS[name]() for name in sorted(PINS)}, indent=2) + "\n"
    )
