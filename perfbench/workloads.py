"""The four benchmark workloads: capacity, fleet, churn and dag.

Each workload has three parts.  ``build(seed, scale)`` turns the benchmark seed
into the program's inputs (query streams, graph fleets, fleet configurations, RNG
seeds) and runs during set-up.  ``run_pass(inputs)`` is one timed pass: it drives
the program through its public entry points with default flags and returns the
program's raw outputs.  ``evaluate(inputs, raw)`` runs after the timer stops and
turns those outputs into a :class:`PassOutput`: the simulated metrics, the
output-check verdicts and a digest of every simulated outcome.

Sizes live in :data:`SCALES`.  ``full`` is what the benchmark measures; ``tiny``
runs the same code paths in well under a second per pass and exists for the
benchmark's own tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro import KairosServingSystem, SpotMarket, default_profile_registry
from repro.cloud.billing import MS_PER_HOUR
from repro.cloud.config import HeterogeneousConfig
from repro.core.controller import ElasticKairosController
from repro.pipeline import (
    CriticalPathKairosPolicy,
    PipelineServingSimulation,
    chain_graph,
    diamond_graph,
    realize_graphs,
)
from repro.schedulers.kairos_policy import KairosPolicy, MultiModelKairosPolicy
from repro.sim.cluster import Cluster, MultiModelCluster
from repro.sim.faults import AdmissionController, FaultInjector, RetryPolicy
from repro.sim.health import HealthConfig, HedgePolicy
from repro.sim.multi_model import MultiModelServingSimulation
from repro.sim.preemption import PreemptibleElasticSimulation, initial_spot_server_ids
from repro.workload.arrivals import BurstyArrivalProcess
from repro.workload.batch_sizes import production_batch_distribution
from repro.workload.generator import WorkloadGenerator, WorkloadSpec, interleave_model_streams
from repro.workload.phases import LoadPhase, PhasedTrace

from perfbench import checks

#: Budget of the capacity workload's plan, in $/hr (also the reference ``plan_s`` call).
PLAN_BUDGET = 10.0
PLAN_MODEL = "RM2"
#: reference ``plan_s`` calls per worker process, made after its timed passes
REFERENCE_PLANS = 4

# The dag workload's fleet configurations are fixed so it never runs the planner.
# At full scale WND gets what ``KairosPlanner`` selects at $1/hr and RM2 the $5/hr
# selection plus one g4dn.xlarge, so that large RM2 batches do not queue for a GPU:
# such queueing episodes come and go with the seed and would make the amount of
# work in a pass depend on it.
SCALES: Dict[str, Dict[str, dict]] = {
    "full": {
        "capacity": dict(budget=PLAN_BUDGET, probe_queries=1000, serve_queries=2000, serve_frac=0.8),
        "fleet": dict(queries_per_model=1500, rate_qps=800.0, burst=64, counts=(56, 56, 112, 0)),
        "churn": dict(budget=2.5, rate_qps=44.0, surge=1.5, cycles=2, phase_ms=10000.0),
        "dag": dict(
            span_ms=3000.0, graphs=36, rm2_rate=145.0, wnd_rate=270.0,
            configs={"RM2": (3, 0, 21, 4), "WND": (1, 0, 3, 0)},
        ),
    },
    "tiny": {
        "capacity": dict(budget=1.0, probe_queries=150, serve_queries=200, serve_frac=0.8),
        "fleet": dict(queries_per_model=100, rate_qps=60.0, burst=8, counts=(2, 2, 4, 0)),
        "churn": dict(budget=1.0, rate_qps=20.0, surge=1.5, cycles=1, phase_ms=4000.0),
        "dag": dict(
            span_ms=600.0, graphs=4, rm2_rate=145.0, wnd_rate=270.0,
            configs={"RM2": (1, 0, 4, 0), "WND": (1, 0, 1, 0)},
        ),
    },
}


@dataclass
class PassOutput:
    """What one pass produced, as far as the benchmark is concerned."""

    sim: Dict[str, float]
    digest: str
    problems: List[str]
    #: per-layer counts read off the program's outputs (reported by the traced run)
    counts: Dict[str, float] = field(default_factory=dict)
    plan_s: float = float("nan")


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, str], dict]
    run_pass: Callable[[dict], dict]
    evaluate: Callable[[dict, dict], PassOutput]


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _qos_by_model(profiles, names: Sequence[str]) -> Dict[str, float]:
    return {name: profiles.models[name].qos_ms for name in names}


# ---------------------------------------------------------------------------------------
# capacity: plan at $10/hr, measure allowable throughput, serve at 80% of it
# ---------------------------------------------------------------------------------------

def build_capacity(seed: int, scale: str) -> dict:
    return dict(seed=seed, **SCALES[scale]["capacity"])


def run_capacity(inputs: dict) -> dict:
    seed = inputs["seed"]
    # The plan and the bisection use fixed streams: every seed plans the same
    # configuration and probes it with the same streams, so the amount of work in
    # a pass does not depend on the seed (early-stopped overloaded probes otherwise
    # make it vary by +-15%).  The seed drives the serving stream.
    system = KairosServingSystem(
        PLAN_MODEL, budget_per_hour=inputs["budget"], rng=_rng(0, 1)
    )
    start = time.perf_counter()
    plan = system.plan()
    plan_s = time.perf_counter() - start
    capacity = system.measure_throughput(
        num_queries=int(inputs["probe_queries"]), rng=_rng(0, 2)
    )
    # Serve a fresh stream at the operating point a user would provision for:
    # 80% of the measured allowable rate.
    spec = WorkloadSpec(
        batch_sizes=system.batch_distribution, num_queries=int(inputs["serve_queries"])
    )
    queries = WorkloadGenerator(spec).generate(
        inputs["serve_frac"] * capacity.qps, rng=_rng(seed, 3)
    )
    report = system.simulate(queries, rng=_rng(seed, 4))
    return dict(
        plan=plan, plan_s=plan_s, capacity=capacity, queries=queries, report=report,
        qos=system.model.qos_ms,
    )


def evaluate_capacity(inputs: dict, raw: dict) -> PassOutput:
    report, queries, capacity, plan = raw["report"], raw["queries"], raw["capacity"], raw["plan"]
    problems = checks.check_bisection(capacity)
    problems += checks.check_conservation(report, queries)
    outcome = checks.serving_outcome(report, queries, {None: raw["qos"]})
    sim = {
        "sim_allowable_qps": capacity.qps,
        "sim_attainment": outcome.attainment,
        "sim_p99_ms": outcome.p99_ms,
        "sim_cost_per_hr": plan.selected_config.cost_per_hour(),
        # no task graphs: every query is a one-stage graph
        "sim_graph_attainment": outcome.attainment,
    }
    extra = [("config", *plan.selected_config.counts)]
    extra += [
        ("probe", repr(p.rate_qps), int(p.feasible), repr(p.tail_latency_ms))
        for p in capacity.probes
    ]
    return PassOutput(
        sim=sim,
        digest=checks.digest(report, sim, extra),
        problems=problems,
        counts=checks.layer_counts(report, outcome),
        plan_s=raw["plan_s"],
    )


# ---------------------------------------------------------------------------------------
# fleet: five models on one 1,120-server fleet, bursty arrivals, joint matching
# ---------------------------------------------------------------------------------------

def build_fleet(seed: int, scale: str) -> dict:
    p = SCALES[scale]["fleet"]
    profiles = default_profile_registry()
    names = [m.name for m in profiles.models]
    configs = {
        name: HeterogeneousConfig(tuple(p["counts"]), profiles.catalog) for name in names
    }
    streams = {}
    for i, name in enumerate(names):
        spec = WorkloadSpec(
            batch_sizes=production_batch_distribution(),
            num_queries=int(p["queries_per_model"]),
            model_name=name,
            arrivals=BurstyArrivalProcess(burst_size=int(p["burst"])),
        )
        streams[name] = WorkloadGenerator(spec).generate(
            p["rate_qps"], rng=_rng(seed, 10 + i)
        )
    return dict(
        seed=seed,
        profiles=profiles,
        configs=configs,
        queries=interleave_model_streams(streams),
        qos=_qos_by_model(profiles, names),
        offered_qps=p["rate_qps"] * len(names),
    )


def run_fleet(inputs: dict) -> dict:
    sim_loop = MultiModelServingSimulation(
        MultiModelCluster(inputs["configs"], inputs["profiles"]),
        MultiModelKairosPolicy(),
        rng=_rng(inputs["seed"], 20),
    )
    return dict(report=sim_loop.run(inputs["queries"]))


def evaluate_fleet(inputs: dict, raw: dict) -> PassOutput:
    return _serving_pass(raw["report"], inputs["queries"], inputs["qos"], inputs["offered_qps"])


# ---------------------------------------------------------------------------------------
# churn: RM2 on the elastic spot loop, base -> surge -> ebb, faults + health + hedging
# ---------------------------------------------------------------------------------------

def build_churn(seed: int, scale: str) -> dict:
    p = SCALES[scale]["churn"]
    profiles = default_profile_registry()
    model = profiles.models[PLAN_MODEL]
    rate = p["rate_qps"]
    phase_ms = p["phase_ms"]
    phases = []
    for _ in range(int(p["cycles"])):
        phases += [
            LoadPhase.step(rate, phase_ms, label="base"),
            LoadPhase.step(p["surge"] * rate, phase_ms, label="surge"),
            LoadPhase.step(0.5 * rate, phase_ms, label="ebb"),
        ]
    trace = PhasedTrace(
        phases, WorkloadSpec(batch_sizes=production_batch_distribution(model.max_batch_size))
    )
    queries = list(trace.generate(_rng(seed, 30)).queries)
    return dict(
        seed=seed,
        profiles=profiles,
        model=model,
        budget=p["budget"],
        surge=p["surge"],
        rate=rate,
        phase_ms=phase_ms,
        duration_ms=3.0 * phase_ms * int(p["cycles"]),
        queries=queries,
    )


def run_churn(inputs: dict) -> dict:
    seed = inputs["seed"]
    profiles = inputs["profiles"]
    model = inputs["model"]
    catalog = profiles.catalog
    phase_ms = inputs["phase_ms"]
    # Hazards are per instance-hour; over the whole trace they give each instance
    # about 0.05 crashes, 0.03 permanent degradations, 0.03 zombie onsets, 0.05
    # spot preemptions and 0.1 flaky windows.  Flaky windows slow a server 1.5x,
    # below the health monitor's 2.8x trip ratio.  The market and fault streams do
    # not depend on the seed: every seed meets the same fault schedule, and each
    # fault triggers a re-plan, so the amount of work in a pass varies little with
    # the seed, which drives the traffic and service times.
    per_run = MS_PER_HOUR / inputs["duration_ms"]
    controller = ElasticKairosController(
        model,
        inputs["budget"],
        inputs["rate"],
        profiles=profiles,
        window_ms=phase_ms / 4.0,
        cooldown_ms=phase_ms / 2.0,
        max_budget_per_hour=inputs["surge"] * inputs["budget"],
        rng=_rng(seed, 31),
    )
    config = controller.initial_plan().selected_config
    cluster = Cluster(config, model, profiles)
    spot_half = HeterogeneousConfig.from_mapping(
        {name: count // 2 for name, count in config}, catalog
    )
    sim_loop = PreemptibleElasticSimulation(
        cluster,
        KairosPolicy(),
        market=SpotMarket.uniform(
            catalog, discount=0.65, preemptions_per_hour=0.05 * per_run, warning_ms=model.qos_ms
        ),
        spot_server_ids=initial_spot_server_ids(cluster, spot_half),
        market_rng=_rng(0, 32),
        controller=controller,
        startup_delay_ms=phase_ms / 10.0,
        rng=_rng(seed, 33),
        faults=FaultInjector.uniform(
            catalog,
            failures_per_hour=0.05 * per_run,
            degradations_per_hour=0.03 * per_run,
            degradation_factor=6.0,
            flaky_per_hour=0.1 * per_run,
            flaky_factor=1.5,
            flaky_duration_ms=phase_ms / 10.0,
            zombies_per_hour=0.03 * per_run,
            auto_replace=True,
        ),
        fault_rng=_rng(0, 34),
        gray_rng=_rng(0, 35),
        retry=RetryPolicy(
            max_attempts=3,
            backoff_base_ms=model.qos_ms / 10.0,
            response_timeout_ms=4.0 * model.qos_ms,
        ),
        admission=AdmissionController(target_latency_ms=model.qos_ms, initial_concurrency=16),
        health=HealthConfig(ewma_alpha=0.15, degrade_ratio=2.8, min_samples=10),
        hedge=HedgePolicy(quantile=0.9, delay_factor=1.3, min_samples=8),
    )
    return dict(report=sim_loop.run(inputs["queries"]))


def evaluate_churn(inputs: dict, raw: dict) -> PassOutput:
    report = raw["report"]
    out = _serving_pass(
        report,
        inputs["queries"],
        {None: inputs["model"].qos_ms},
        inputs["rate"] * (1.0 + inputs["surge"] + 0.5) / 3.0,
        extra=[("replan", repr(d.time_ms), *d.new_config.counts) for d in report.replans],
    )
    out.problems += checks.check_ledger_partition(report.ledger, report.billing_horizon_ms)
    return out


# ---------------------------------------------------------------------------------------
# dag: chain and diamond task graphs over two-model background traffic
# ---------------------------------------------------------------------------------------

def build_dag(seed: int, scale: str) -> dict:
    p = SCALES[scale]["dag"]
    profiles = default_profile_registry()
    configs = {
        name: HeterogeneousConfig(c, profiles.catalog) for name, c in p["configs"].items()
    }
    span_ms = p["span_ms"]
    rates = {"RM2": p["rm2_rate"], "WND": p["wnd_rate"]}
    streams = {}
    for i, (name, rate) in enumerate(rates.items()):
        spec = WorkloadSpec(
            batch_sizes=production_batch_distribution(),
            num_queries=max(1, int(rate * span_ms / 1000.0)),
            model_name=name,
        )
        streams[name] = WorkloadGenerator(spec).generate(rate, rng=_rng(seed, 40 + i))
    background = interleave_model_streams(streams)
    # Graphs arrive in waves of four, evenly across 10%..90% of the trace, so the
    # number of live graphs (the doomed sweep's cost) does not depend on the seed.
    # Half carry a tight deadline (and double value), half a loose one.
    n_graphs = int(p["graphs"])
    waves = (n_graphs + 3) // 4
    graphs = []
    for g in range(n_graphs):
        release = span_ms * (0.1 + 0.8 * (g // 4) / max(1, waves - 1))
        tight = g % 2 == 0
        deadline = 400.0 if tight else 1500.0
        value = 2.0 if tight else 1.0
        if g % 4 < 2:
            graphs.append(
                chain_graph(
                    g, (("RM2", 24), ("WND", 16), ("RM2", 8)), deadline,
                    value=value, release_ms=release,
                )
            )
        else:
            graphs.append(
                diamond_graph(
                    g, ("RM2", 24), ("WND", 12), ("RM2", 12), ("WND", 8), deadline,
                    value=value, release_ms=release,
                )
            )
    return dict(
        seed=seed,
        profiles=profiles,
        configs=configs,
        background=background,
        graphs=graphs,
        rates=rates,
        qos=_qos_by_model(profiles, list(rates)),
    )


def run_dag(inputs: dict) -> dict:
    background = inputs["background"]
    graphs = inputs["graphs"]
    # Fresh realization per pass: graph runtimes and stage queries are stateful.
    sources, coordinator = realize_graphs(graphs, len(background))
    sim_loop = PipelineServingSimulation(
        MultiModelCluster(inputs["configs"], inputs["profiles"]),
        CriticalPathKairosPolicy(coordinator),
        coordinator=coordinator,
        graph_aware=True,
        rng=_rng(inputs["seed"], 43),
    )
    queries = sorted(background + sources, key=lambda q: q.arrival_time_ms)
    report = sim_loop.run(queries)
    return dict(
        report=report,
        offered=queries + list(sim_loop.released_queries),
        outcomes=sim_loop.graph_outcomes,
    )


def evaluate_dag(inputs: dict, raw: dict) -> PassOutput:
    outcomes, graphs = raw["outcomes"], inputs["graphs"]
    out = _serving_pass(
        raw["report"],
        raw["offered"],
        inputs["qos"],
        sum(inputs["rates"].values()),
        extra=[
            ("graph", o.graph_id, o.outcome, int(o.deadline_met), repr(o.end_ms))
            for o in outcomes
        ],
        graph_attainment=sum(1 for o in outcomes if o.deadline_met) / len(graphs),
    )
    out.problems += checks.check_graph_partition(outcomes, graphs)
    out.counts["pipeline.graphs_shed"] = float(sum(1 for o in outcomes if o.outcome == "shed"))
    return out


# ---------------------------------------------------------------------------------------
# shared: a serving run's outputs -> simulated metrics, checks, counts
# ---------------------------------------------------------------------------------------

def _serving_pass(
    report, offered, qos: Dict, offered_qps: float, extra=(), graph_attainment=None
) -> PassOutput:
    """Checks and simulated metrics of a fixed-load serving run.

    Such a run has no bisection, so ``sim_allowable_qps`` is the QoS-met part of the
    load it was offered: the nominal offered rate times the attainment.
    """
    problems = checks.check_conservation(report, offered)
    outcome = checks.serving_outcome(report, offered, qos)
    sim = {
        "sim_allowable_qps": offered_qps * outcome.attainment,
        "sim_attainment": outcome.attainment,
        "sim_p99_ms": outcome.p99_ms,
        "sim_cost_per_hr": report.ledger.total_cost(report.billing_horizon_ms)
        / (report.billing_horizon_ms / MS_PER_HOUR),
        # without task graphs every query is a one-stage graph
        "sim_graph_attainment": (
            outcome.attainment if graph_attainment is None else graph_attainment
        ),
    }
    return PassOutput(
        sim=sim,
        digest=checks.digest(report, sim, extra),
        problems=problems,
        counts=checks.layer_counts(report, outcome),
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "capacity",
            build_capacity,
            run_capacity,
            evaluate_capacity,
        ),
        Workload(
            "fleet",
            build_fleet,
            run_fleet,
            evaluate_fleet,
        ),
        Workload(
            "churn",
            build_churn,
            run_churn,
            evaluate_churn,
        ),
        Workload(
            "dag",
            build_dag,
            run_dag,
            evaluate_dag,
        ),
    )
}


def reference_plan_s() -> float:
    """Host seconds of one ``KairosServingSystem(RM2, $10/hr).plan()`` call.

    Every workload reports ``plan_s`` from this call, made :data:`REFERENCE_PLANS`
    times per worker process after its timed passes; ``capacity`` adds the same
    plan timed inside each of its passes.
    """
    system = KairosServingSystem(PLAN_MODEL, budget_per_hour=PLAN_BUDGET, rng=_rng(0, 1))
    start = time.perf_counter()
    system.plan()
    return time.perf_counter() - start
