"""End-to-end serving simulation on a fixed heterogeneous fleet.

``simulate_serving`` drives a :class:`~repro.sim.cluster.Cluster` through a query
stream under a pluggable query-distribution policy:

1. queries arrive at the central controller and join the pending queue;
2. whenever an event fires (arrival or a server finishing a query) the policy is asked
   to map pending queries to servers;
3. committed queries are dispatched to their server's local FIFO queue, their true
   service latency is drawn from the latency profile (plus optional noise), and a
   completion event is scheduled;
4. per-query records feed :class:`~repro.sim.metrics.ServingMetrics`.

:class:`ServingSimulation` is the single-cluster topology of the serving kernel
(:class:`~repro.sim.kernel.ServingKernel`) with a fixed fleet and no controller: the
same event loop, admission valve, dispatch commit, response timeouts and retries
as the elastic and multi-model loops.  It adds the early-stop violation budget the
capacity bisection uses, and a report without billing.

A policy is any object implementing the small protocol documented in
:class:`repro.schedulers.base.SchedulingPolicy` (``bind``, ``schedule``,
``observe_completion``); the simulator itself only relies on duck typing so the Kairos
controller and all baselines plug in identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cloud.config import HeterogeneousConfig
from repro.cloud.models import MLModel
from repro.cloud.profiles import ProfileRegistry
from repro.sim.cluster import Cluster
from repro.sim.elasticity import ElasticServingSimulation
from repro.sim.faults import AdmissionController, DeadLetterEntry, RetryPolicy, ShedEntry
from repro.sim.metrics import ServingMetrics
from repro.sim.server import ServiceNoiseModel
from repro.utils.rng import RngLike
from repro.workload.query import Query


@dataclass
class SimulationReport:
    """Everything a serving run produced."""

    metrics: ServingMetrics
    cluster: Cluster
    policy_name: str
    scheduling_rounds: int
    dispatched_queries: int
    total_queries: int
    simulated_duration_ms: float
    early_stopped: bool = False
    shed_queries: List[ShedEntry] = field(default_factory=list)
    dead_letters: List[DeadLetterEntry] = field(default_factory=list)
    retries: int = 0
    unserved_queries: int = 0

    @property
    def completed_all(self) -> bool:
        return self.dispatched_queries == self.total_queries and not self.early_stopped

    def utilization_by_type(self) -> Dict[str, float]:
        return self.cluster.utilization_by_type(self.simulated_duration_ms)

    def summary(self) -> Dict[str, float]:
        data = dict(self.metrics.summary())
        data["scheduling_rounds"] = float(self.scheduling_rounds)
        data["simulated_duration_ms"] = self.simulated_duration_ms
        data["early_stopped"] = float(self.early_stopped)
        return data


class ServingSimulation(ElasticServingSimulation):
    """Serve a query stream on a fixed fleet (see module docstring).

    ``max_violations`` is the early-stop budget: the run ends as soon as more
    measured completions than this miss ``qos_ms``, and every query not yet settled
    then counts as unserved.  ``warmup_queries``, ``retry`` and ``admission`` are
    those of :class:`~repro.sim.elasticity.ElasticServingSimulation`.  The fleet is
    fixed, so crash and gray-failure injection live only in the elastic loops.
    Like every kernel topology the driver is one-shot: build a fresh one per run.
    """

    def __init__(
        self,
        cluster: Cluster,
        policy,
        *,
        qos_ms: Optional[float] = None,
        qos_percentile: float = 99.0,
        noise: Optional[ServiceNoiseModel] = None,
        rng: RngLike = None,
        max_violations: Optional[int] = None,
        warmup_queries: int = 0,
        retry: Optional[RetryPolicy] = None,
        admission: Optional[AdmissionController] = None,
    ):
        super().__init__(
            cluster,
            policy,
            qos_ms=qos_ms,
            qos_percentile=qos_percentile,
            noise=noise,
            rng=rng,
            warmup_queries=warmup_queries,
            retry=retry,
            admission=admission,
        )
        self.max_violations = max_violations

    def run(self, queries: Sequence[Query]) -> SimulationReport:
        """Serve ``queries`` to completion (or until the early-stop violation budget).

        An empty stream is a valid no-op and returns a report with empty metrics.
        """
        if self.admission is not None:
            self.admission.reset()
        served = self._serve(queries)
        return SimulationReport(
            early_stopped=self.early_stopped,
            **{f.name: served[f.name] for f in fields(SimulationReport) if f.name in served},
        )

    def _active_view(self) -> Cluster:
        # no provisioning, draining or quarantine: the cluster itself is index-stable
        return self.cluster

    def _open_initial_billing(self, ledger, events) -> None:
        pass  # the report carries no ledger, so the fixed fleet is never billed


def simulate_serving(
    config: HeterogeneousConfig,
    model: MLModel,
    profiles: ProfileRegistry,
    policy,
    queries: Sequence[Query],
    *,
    qos_ms: Optional[float] = None,
    qos_percentile: float = 99.0,
    dispatch_overhead_ms: float = 0.0,
    noise: Optional[ServiceNoiseModel] = None,
    rng: RngLike = None,
    max_violations: Optional[int] = None,
    warmup_queries: int = 0,
) -> SimulationReport:
    """Convenience wrapper: build the cluster and run one serving simulation."""
    cluster = Cluster(config, model, profiles, dispatch_overhead_ms=dispatch_overhead_ms)
    sim = ServingSimulation(
        cluster,
        policy,
        qos_ms=qos_ms,
        qos_percentile=qos_percentile,
        noise=noise,
        rng=rng,
        max_violations=max_violations,
        warmup_queries=warmup_queries,
    )
    return sim.run(queries)


def gaussian_service_noise(relative_std: float) -> ServiceNoiseModel:
    """A multiplicative Gaussian service-time noise model (Fig. 16b uses 5%)."""
    if relative_std < 0:
        raise ValueError("relative_std must be non-negative")

    def noise(latency_ms: float, rng: np.random.Generator) -> float:
        return latency_ms * float(1.0 + relative_std * rng.standard_normal())

    return noise
