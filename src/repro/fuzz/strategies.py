"""Hypothesis strategies over the scenario space.

Every strategy is bounded so a drawn scenario simulates in well under a second:
phases are sized by *offered query count* (duration is derived from the drawn count
and rate), streams are capped at two phases, clusters at a few instances per type.
Shrinking therefore moves toward few queries, one phase, one instance — minimal
counterexamples by construction.

``scenario_specs()`` draws across all five serving loops; per-loop strategies are
exposed for targeted properties.  All strategies draw only spec-level data, never
live numpy state, so every example is reproducible from its ``seed`` field alone.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from hypothesis import strategies as st

from repro.cloud.instances import DEFAULT_INSTANCE_CATALOG
from repro.fuzz.spec import (
    CATALOG_SIZE,
    AdmissionSpec,
    BurstSpec,
    FaultSpec,
    HealthSpec,
    HedgeSpec,
    PhaseSpec,
    PipelineSpec,
    RetrySpec,
    ScaleEventSpec,
    ScenarioSpec,
    SpotSpec,
    StageSpec,
    StormSpec,
    StreamSpec,
)

#: Models the fuzzer serves (kept to the fast-profile pair so examples stay cheap).
FUZZ_MODELS: Tuple[str, ...] = ("RM2", "WND")

_TYPE_NAMES = tuple(DEFAULT_INSTANCE_CATALOG.names)


@st.composite
def phase_specs(draw, max_queries: int = 50) -> PhaseSpec:
    """One load phase, sized by offered query count rather than raw duration."""
    shape = draw(st.sampled_from(("step", "ramp", "spike", "diurnal")))
    rate = draw(st.floats(min_value=20.0, max_value=120.0, allow_nan=False))
    n_queries = draw(st.integers(min_value=5, max_value=max_queries))
    duration = max(250.0, n_queries / rate * 1000.0)
    factor = draw(st.floats(min_value=0.5, max_value=2.5, allow_nan=False))
    return PhaseSpec(shape=shape, rate_qps=rate, duration_ms=duration, factor=factor)


@st.composite
def stream_specs(
    draw,
    model_names: Sequence[str] = FUZZ_MODELS,
    max_queries: int = 60,
) -> StreamSpec:
    n_phases = draw(st.integers(min_value=1, max_value=2))
    phases = tuple(
        draw(phase_specs(max_queries=max_queries // n_phases)) for _ in range(n_phases)
    )
    return StreamSpec(
        model_name=draw(st.sampled_from(tuple(model_names))),
        phases=phases,
        batch_median=draw(st.floats(min_value=20.0, max_value=160.0, allow_nan=False)),
        batch_sigma=draw(st.floats(min_value=0.6, max_value=1.4, allow_nan=False)),
        arrival=draw(st.sampled_from(("poisson", "deterministic", "bursty"))),
        burst_size=draw(st.integers(min_value=2, max_value=6)),
    )


@st.composite
def config_vectors(draw, min_total: int = 1, max_per_type: int = 2) -> Tuple[int, ...]:
    counts = tuple(
        draw(st.integers(min_value=0, max_value=max_per_type))
        for _ in range(CATALOG_SIZE)
    )
    if sum(counts) < min_total:
        # Guarantee serving capacity: fall back to one accelerator instance.
        counts = (1,) + counts[1:]
    return counts


def _seeds() -> st.SearchStrategy[int]:
    return st.integers(min_value=0, max_value=2**20)


def _noise() -> st.SearchStrategy[float]:
    return st.one_of(
        st.just(0.0), st.floats(min_value=0.01, max_value=0.2, allow_nan=False)
    )


@st.composite
def scale_event_specs(draw, duration_ms: float) -> ScaleEventSpec:
    return ScaleEventSpec(
        time_ms=draw(st.floats(min_value=0.0, max_value=duration_ms, allow_nan=False)),
        action=draw(st.sampled_from(("up", "down"))),
        type_name=draw(st.sampled_from(_TYPE_NAMES)),
        count=draw(st.integers(min_value=1, max_value=2)),
    )


def _hazard() -> st.SearchStrategy[float]:
    """A per-hour hazard hot enough to fire inside short scenarios, or off."""
    return st.one_of(
        st.just(0.0),
        st.floats(min_value=60.0, max_value=3600.0, allow_nan=False),
    )


@st.composite
def fault_specs(draw, duration_ms: float, gray: bool = False) -> FaultSpec:
    """Crash/slowdown hazards scaled so faults actually fire inside short scenarios.

    ``gray=True`` additionally draws the gray-failure hazards (permanent
    degradations, flaky windows, zombie onsets), each independently off or hot.
    """
    n_storms = draw(st.integers(min_value=0, max_value=2))
    storms = tuple(
        StormSpec(
            time_ms=draw(
                st.floats(min_value=0.0, max_value=duration_ms, allow_nan=False)
            ),
            count=draw(st.integers(min_value=1, max_value=3)),
        )
        for _ in range(n_storms)
    )
    gray_fields: dict = {}
    if gray:
        gray_fields = dict(
            degradations_per_hour=draw(_hazard()),
            degradation_factor=draw(
                st.floats(min_value=1.5, max_value=5.0, allow_nan=False)
            ),
            flaky_per_hour=draw(_hazard()),
            flaky_factor=draw(st.floats(min_value=1.0, max_value=4.0, allow_nan=False)),
            flaky_duration_ms=draw(
                st.floats(min_value=50.0, max_value=1_000.0, allow_nan=False)
            ),
            zombies_per_hour=draw(_hazard()),
        )
    return FaultSpec(
        failures_per_hour=draw(_hazard()),
        slowdowns_per_hour=draw(_hazard()),
        slowdown_factor=draw(st.floats(min_value=1.0, max_value=4.0, allow_nan=False)),
        slowdown_duration_ms=draw(
            st.floats(min_value=50.0, max_value=1_000.0, allow_nan=False)
        ),
        storms=storms,
        auto_replace=draw(st.booleans()),
        **gray_fields,
    )


@st.composite
def retry_specs(draw, duration_ms: float) -> RetrySpec:
    return RetrySpec(
        max_attempts=draw(st.integers(min_value=1, max_value=4)),
        # zero backoff re-queues a failed attempt at its failure instant, which
        # exercises the same-instant re-drain of every loop
        backoff_base_ms=draw(
            st.one_of(
                st.just(0.0),
                st.floats(min_value=1.0, max_value=200.0, allow_nan=False),
            )
        ),
        backoff_factor=draw(st.floats(min_value=1.0, max_value=3.0, allow_nan=False)),
        # Deadlines tight enough to trip on slow instances but not on every dispatch.
        response_timeout_ms=draw(
            st.one_of(
                st.none(),
                st.floats(min_value=200.0, max_value=2_000.0, allow_nan=False),
            )
        ),
    )


@st.composite
def admission_specs(draw) -> AdmissionSpec:
    initial = draw(st.integers(min_value=2, max_value=64))
    return AdmissionSpec(
        target_latency_ms=draw(
            st.floats(min_value=100.0, max_value=1_000.0, allow_nan=False)
        ),
        initial_concurrency=initial,
        min_concurrency=draw(st.integers(min_value=1, max_value=min(4, initial))),
        max_concurrency=draw(st.integers(min_value=initial, max_value=256)),
        shed_backlog_factor=draw(
            st.floats(min_value=1.5, max_value=8.0, allow_nan=False)
        ),
        smoothing=draw(st.floats(min_value=0.05, max_value=1.0, allow_nan=False)),
    )


@st.composite
def health_specs(draw) -> HealthSpec:
    """Health scoring / breaker knobs, with probation short enough to fire in-scenario."""
    return HealthSpec(
        ewma_alpha=draw(st.floats(min_value=0.1, max_value=1.0, allow_nan=False)),
        degrade_ratio=draw(st.floats(min_value=1.3, max_value=4.0, allow_nan=False)),
        min_samples=draw(st.integers(min_value=1, max_value=8)),
        suspicion_threshold=draw(
            st.floats(min_value=0.5, max_value=3.0, allow_nan=False)
        ),
        overdue_grace_factor=draw(
            st.floats(min_value=1.5, max_value=5.0, allow_nan=False)
        ),
        probation_ms=draw(st.floats(min_value=200.0, max_value=5_000.0, allow_nan=False)),
        probation_backoff=draw(st.floats(min_value=1.0, max_value=3.0, allow_nan=False)),
        probe_successes=draw(st.integers(min_value=1, max_value=3)),
    )


@st.composite
def hedge_specs(draw) -> HedgeSpec:
    """Hedged-dispatch knobs, aggressive enough to actually duplicate attempts."""
    return HedgeSpec(
        quantile=draw(st.floats(min_value=0.5, max_value=0.98, allow_nan=False)),
        delay_factor=draw(st.floats(min_value=1.05, max_value=3.0, allow_nan=False)),
        min_samples=draw(st.integers(min_value=2, max_value=16)),
    )


@st.composite
def _chaos_fields(
    draw, duration_ms: float, with_faults: bool, gray: bool = False
) -> dict:
    """The chaos dimensions as kwargs; each independently present or absent.

    ``gray=True`` (elastic-family loops only) additionally draws gray fault
    hazards plus the health/hedge layers.  A drawn zombie hazard without a
    recovery path (no health layer, no retry response timeout) forces the
    health layer on — the spec space never admits a hang-forever scenario.
    """
    fields: dict = {}
    if with_faults and draw(st.booleans()):
        fields["faults"] = draw(fault_specs(duration_ms, gray=gray))
    if draw(st.booleans()):
        fields["retry"] = draw(retry_specs(duration_ms))
    if draw(st.booleans()):
        fields["admission"] = draw(admission_specs())
    if gray and with_faults:
        if draw(st.booleans()):
            fields["health"] = draw(health_specs())
        if draw(st.booleans()):
            fields["hedge"] = draw(hedge_specs())
        faults = fields.get("faults")
        retry = fields.get("retry")
        if (
            faults is not None
            and faults.zombies_per_hour > 0.0
            and "health" not in fields
            and (retry is None or retry.response_timeout_ms is None)
        ):
            fields["health"] = draw(health_specs())
    return fields


@st.composite
def static_scenarios(draw, chaos: bool = False) -> ScenarioSpec:
    stream = draw(stream_specs())
    return ScenarioSpec(
        loop="static",
        streams=(stream,),
        config_counts=(draw(config_vectors()),),
        seed=draw(_seeds()),
        noise_std=draw(_noise()),
        online_learning=draw(st.booleans()),
        warmup_queries=draw(st.integers(min_value=0, max_value=3)),
        max_queries_per_round=draw(st.sampled_from((8, 16, 64))),
        # static clusters cannot re-provision: retry/admission only, never faults
        **(draw(_chaos_fields(stream.duration_ms, with_faults=False)) if chaos else {}),
    )


@st.composite
def elastic_scenarios(
    draw, with_events: bool = True, chaos: bool = False, gray: bool = False
) -> ScenarioSpec:
    stream = draw(stream_specs())
    n_events = draw(st.integers(min_value=0, max_value=2)) if with_events else 0
    events = tuple(
        draw(scale_event_specs(stream.duration_ms)) for _ in range(n_events)
    )
    return ScenarioSpec(
        loop="elastic",
        streams=(stream,),
        config_counts=(draw(config_vectors()),),
        seed=draw(_seeds()),
        noise_std=draw(_noise()),
        online_learning=draw(st.booleans()),
        use_controller=draw(st.booleans()),
        budget_per_hour=draw(st.floats(min_value=1.5, max_value=5.0, allow_nan=False)),
        startup_delay_ms=draw(st.floats(min_value=50.0, max_value=800.0, allow_nan=False)),
        warmup_queries=draw(st.integers(min_value=0, max_value=3)),
        max_queries_per_round=draw(st.sampled_from((8, 16, 64))),
        scale_events=events,
        **(
            draw(_chaos_fields(stream.duration_ms, with_faults=True, gray=gray))
            if chaos
            else {}
        ),
    )


@st.composite
def spot_specs(draw, config: Tuple[int, ...], duration_ms: float) -> SpotSpec:
    spot_counts = tuple(
        draw(st.integers(min_value=0, max_value=c)) for c in config
    )
    n_bursts = draw(st.integers(min_value=0, max_value=2))
    bursts = tuple(
        BurstSpec(
            time_ms=draw(
                st.floats(min_value=0.0, max_value=duration_ms, allow_nan=False)
            ),
            count=draw(st.integers(min_value=1, max_value=3)),
        )
        for _ in range(n_bursts)
    )
    return SpotSpec(
        discount=draw(st.floats(min_value=0.3, max_value=0.9, allow_nan=False)),
        # Hazards far above real markets so preemptions actually fire inside the
        # few seconds a fuzz scenario simulates.
        preemptions_per_hour=draw(
            st.one_of(
                st.just(0.0),
                st.floats(min_value=60.0, max_value=3600.0, allow_nan=False),
            )
        ),
        warning_ms=draw(st.floats(min_value=0.0, max_value=500.0, allow_nan=False)),
        spot_counts=spot_counts,
        bursts=bursts,
    )


@st.composite
def spot_scenarios(draw, chaos: bool = False, gray: bool = False) -> ScenarioSpec:
    stream = draw(stream_specs())
    config = draw(config_vectors())
    return ScenarioSpec(
        loop="spot",
        streams=(stream,),
        config_counts=(config,),
        seed=draw(_seeds()),
        noise_std=draw(_noise()),
        online_learning=draw(st.booleans()),
        use_controller=draw(st.booleans()),
        budget_per_hour=draw(st.floats(min_value=1.5, max_value=5.0, allow_nan=False)),
        startup_delay_ms=draw(st.floats(min_value=50.0, max_value=800.0, allow_nan=False)),
        warmup_queries=draw(st.integers(min_value=0, max_value=2)),
        max_queries_per_round=draw(st.sampled_from((8, 16, 64))),
        spot=draw(spot_specs(config, stream.duration_ms)),
        **(
            draw(_chaos_fields(stream.duration_ms, with_faults=True, gray=gray))
            if chaos
            else {}
        ),
    )


@st.composite
def multi_model_scenarios(draw, chaos: bool = False, gray: bool = False) -> ScenarioSpec:
    n_models = draw(st.integers(min_value=1, max_value=2))
    names = draw(
        st.permutations(FUZZ_MODELS).map(lambda p: tuple(p[:n_models]))
    )
    streams = tuple(
        draw(stream_specs(model_names=(name,), max_queries=40)) for name in names
    )
    duration = max(s.duration_ms for s in streams)
    return ScenarioSpec(
        loop="multi_model",
        streams=streams,
        config_counts=tuple(draw(config_vectors()) for _ in streams),
        seed=draw(_seeds()),
        noise_std=draw(_noise()),
        online_learning=draw(st.booleans()),
        startup_delay_ms=draw(st.floats(min_value=50.0, max_value=800.0, allow_nan=False)),
        warmup_queries=draw(st.integers(min_value=0, max_value=2)),
        max_queries_per_round=draw(st.sampled_from((8, 16, 64))),
        sharded=draw(st.booleans()),
        **(
            draw(_chaos_fields(duration, with_faults=True, gray=gray))
            if chaos
            else {}
        ),
    )


def _stage_batches(draw) -> int:
    return draw(st.integers(min_value=4, max_value=64))


@st.composite
def pipeline_specs(
    draw,
    model_names: Sequence[str] = FUZZ_MODELS,
    duration_ms: float = 1_000.0,
) -> PipelineSpec:
    """One DAG: a chain, a fan-out/fan-in, or a diamond, with a mixed deadline.

    Deadlines span comfortable to hopeless so both arms of graph-aware admission
    (serve vs shed-whole-graph) are exercised; releases land inside the streams'
    span so stages contend with standalone load.
    """
    names = tuple(model_names)

    def stage(name: str, parents: Tuple[str, ...] = ()) -> StageSpec:
        return StageSpec(
            name=name,
            model_name=draw(st.sampled_from(names)),
            batch_size=_stage_batches(draw),
            parents=parents,
        )

    shape = draw(st.sampled_from(("chain", "fan", "diamond")))
    if shape == "chain":
        n = draw(st.integers(min_value=2, max_value=4))
        stages = [stage("s0")]
        stages.extend(stage(f"s{i}", (f"s{i - 1}",)) for i in range(1, n))
    elif shape == "diamond":
        stages = [
            stage("src"),
            stage("left", ("src",)),
            stage("right", ("src",)),
            stage("sink", ("left", "right")),
        ]
    else:  # fan-out / fan-in
        k = draw(st.integers(min_value=2, max_value=3))
        stages = [stage("src")]
        stages.extend(stage(f"b{i}", ("src",)) for i in range(k))
        stages.append(stage("sink", tuple(f"b{i}" for i in range(k))))
    return PipelineSpec(
        stages=tuple(stages),
        deadline_ms=draw(st.floats(min_value=200.0, max_value=6_000.0, allow_nan=False)),
        value=draw(st.floats(min_value=0.5, max_value=3.0, allow_nan=False)),
        release_ms=draw(st.floats(min_value=0.0, max_value=duration_ms, allow_nan=False)),
    )


@st.composite
def pipeline_scenarios(draw, chaos: bool = False, gray: bool = False) -> ScenarioSpec:
    n_models = draw(st.integers(min_value=1, max_value=2))
    names = draw(st.permutations(FUZZ_MODELS).map(lambda p: tuple(p[:n_models])))
    streams = tuple(
        draw(stream_specs(model_names=(name,), max_queries=30)) for name in names
    )
    duration = max(s.duration_ms for s in streams)
    n_pipes = draw(st.integers(min_value=1, max_value=3))
    pipelines = tuple(
        draw(pipeline_specs(model_names=names, duration_ms=duration))
        for _ in range(n_pipes)
    )
    return ScenarioSpec(
        loop="pipeline",
        streams=streams,
        config_counts=tuple(draw(config_vectors()) for _ in streams),
        seed=draw(_seeds()),
        noise_std=draw(_noise()),
        online_learning=draw(st.booleans()),
        startup_delay_ms=draw(st.floats(min_value=50.0, max_value=800.0, allow_nan=False)),
        warmup_queries=draw(st.integers(min_value=0, max_value=2)),
        max_queries_per_round=draw(st.sampled_from((8, 16, 64))),
        sharded=draw(st.booleans()),
        pipelines=pipelines,
        **(
            draw(_chaos_fields(duration, with_faults=True, gray=gray))
            if chaos
            else {}
        ),
    )


def scenario_specs(
    loop: Optional[str] = None, *, chaos: bool = False, gray: bool = False
) -> st.SearchStrategy[ScenarioSpec]:
    """Scenarios across all loops, or restricted to one loop.

    ``chaos=True`` additionally draws the fault/retry/admission dimensions (each
    independently present or absent), so a chaos campaign still covers the
    fault-free corner.  ``gray=True`` (implies nothing without ``chaos``) widens
    the fault dimension with gray hazards and the health/hedge layers on the
    elastic-family loops.
    """
    by_loop = {
        "static": static_scenarios(chaos=chaos),
        "elastic": elastic_scenarios(chaos=chaos, gray=gray),
        "multi_model": multi_model_scenarios(chaos=chaos, gray=gray),
        "spot": spot_scenarios(chaos=chaos, gray=gray),
        "pipeline": pipeline_scenarios(chaos=chaos, gray=gray),
    }
    if loop is not None:
        return by_loop[loop]
    return st.one_of(*by_loop.values())


def budget_ladders(
    min_budget: float = 1.0, max_budget: float = 6.0
) -> st.SearchStrategy[Tuple[float, ...]]:
    """Sorted budget lists for the QoS-monotonicity invariant."""
    return (
        st.lists(
            st.floats(min_value=min_budget, max_value=max_budget, allow_nan=False),
            min_size=2,
            max_size=4,
            unique=True,
        )
        .map(lambda bs: tuple(sorted(bs)))
    )
