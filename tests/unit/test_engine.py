"""Tests for repro.sim.events and repro.sim.engine.

Includes the property-style determinism suite that pins the engine's ordering
contract: events at equal timestamps always pop in kind-then-insertion order
(completions before arrivals before provisioning events), the clock never moves
backwards, and ``pop_until`` honours its epsilon boundary.  The online-elasticity
subsystem relies on this contract for seed-stable replays.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import TIME_EPSILON_MS, EventQueue, SimulationClock
from repro.sim.events import Event, EventKind, ScaleRequest


class TestEvent:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            Event(-1.0, EventKind.QUERY_ARRIVAL)

    def test_sort_key_orders_completions_before_arrivals(self):
        completion = Event(10.0, EventKind.SERVICE_COMPLETION)
        arrival = Event(10.0, EventKind.QUERY_ARRIVAL)
        assert completion.sort_key(1) < arrival.sort_key(0)


class TestSimulationClock:
    def test_advance(self):
        clock = SimulationClock()
        assert clock.advance_to(5.0) == 5.0
        assert clock.now_ms == 5.0

    def test_cannot_go_backwards(self):
        clock = SimulationClock(10.0)
        with pytest.raises(ValueError):
            clock.advance_to(5.0)

    def test_same_time_is_fine(self):
        clock = SimulationClock(10.0)
        assert clock.advance_to(10.0) == 10.0

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            SimulationClock(-1.0)


class TestEventQueue:
    def test_ordering_by_time(self):
        q = EventQueue()
        q.push(Event(5.0, EventKind.QUERY_ARRIVAL, "late"))
        q.push(Event(1.0, EventKind.QUERY_ARRIVAL, "early"))
        assert q.pop().payload == "early"
        assert q.pop().payload == "late"

    def test_completion_before_arrival_at_same_time(self):
        q = EventQueue()
        q.push(Event(3.0, EventKind.QUERY_ARRIVAL, "arrival"))
        q.push(Event(3.0, EventKind.SERVICE_COMPLETION, "completion"))
        assert q.pop().payload == "completion"

    def test_insertion_order_breaks_ties(self):
        q = EventQueue()
        q.push(Event(3.0, EventKind.QUERY_ARRIVAL, "first"))
        q.push(Event(3.0, EventKind.QUERY_ARRIVAL, "second"))
        assert q.pop().payload == "first"

    def test_len_and_bool(self):
        q = EventQueue()
        assert not q and len(q) == 0
        q.push(Event(1.0, EventKind.CONTROL))
        assert q and len(q) == 1

    def test_peek_does_not_remove(self):
        q = EventQueue()
        q.push(Event(2.0, EventKind.CONTROL, "x"))
        assert q.peek().payload == "x"
        assert len(q) == 1
        assert q.peek_time() == 2.0

    def test_peek_time_empty(self):
        assert EventQueue().peek_time() is None

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()
        with pytest.raises(IndexError):
            EventQueue().peek()

    def test_pop_until(self):
        q = EventQueue()
        q.push_all([Event(t, EventKind.CONTROL, t) for t in (1.0, 2.0, 3.0, 4.0)])
        popped = [e.payload for e in q.pop_until(2.5)]
        assert popped == [1.0, 2.0]
        assert len(q) == 2

    def test_clear(self):
        q = EventQueue()
        q.push(Event(1.0, EventKind.CONTROL))
        q.clear()
        assert len(q) == 0
        assert q.pop_batch() == []

    def test_only_kinds(self):
        q = EventQueue()
        q.push(Event(3.0, EventKind.QUERY_ARRIVAL, "a"))
        q.push(Event(1.0, EventKind.SERVICE_COMPLETION, "c"))
        q.push(Event(2.0, EventKind.SCALE_UP, None))
        assert not q.only_kinds({EventKind.QUERY_ARRIVAL})
        assert q.only_kinds(
            {EventKind.QUERY_ARRIVAL, EventKind.SERVICE_COMPLETION, EventKind.SCALE_UP}
        )
        assert not q.only_kinds(set())  # empty kinds always answers False
        assert not EventQueue().only_kinds({EventKind.CONTROL})

    def test_discard_preserves_survivor_order(self):
        q = EventQueue()
        q.push_all(Event(float(i % 4), EventKind.CONTROL, i) for i in range(12))
        assert q.discard(lambda e: e.payload % 2 == 0) == 6
        drained = []
        while q:
            drained.append(q.pop().payload)
        # survivors keep their (time, insertion) order
        assert drained == [1, 5, 9, 3, 7, 11]


class TestScaleEventKinds:
    """The new provisioning events slot in behind the pre-elasticity kinds."""

    def test_priority_order(self):
        assert (
            EventKind.SERVICE_COMPLETION
            < EventKind.QUERY_ARRIVAL
            < EventKind.CONTROL
            < EventKind.SCALE_UP
            < EventKind.SCALE_DOWN
            < EventKind.INSTANCE_READY
        )

    def test_completion_still_first_at_equal_time(self):
        q = EventQueue()
        q.push(Event(5.0, EventKind.INSTANCE_READY, "ready"))
        q.push(Event(5.0, EventKind.SCALE_UP, ScaleRequest("g4dn.xlarge", 1)))
        q.push(Event(5.0, EventKind.QUERY_ARRIVAL, "arrival"))
        q.push(Event(5.0, EventKind.SERVICE_COMPLETION, "completion"))
        kinds = [q.pop().kind for _ in range(4)]
        assert kinds == sorted(kinds)
        assert kinds[0] == EventKind.SERVICE_COMPLETION

    def test_scale_request_validation(self):
        with pytest.raises(ValueError):
            ScaleRequest("g4dn.xlarge", 0)
        with pytest.raises(ValueError):
            ScaleRequest("g4dn.xlarge", -2)


# -- property-style determinism suite -----------------------------------------------------

#: All event kinds, including the elasticity ones, as plain ints for strategy reuse.
ALL_KINDS = list(EventKind)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from([0.0, 1.0, 2.5, 7.0]), st.sampled_from(ALL_KINDS)),
        min_size=1,
        max_size=40,
    )
)
def test_same_timestamp_interleavings_pop_in_kind_then_sequence_order(items):
    """Any insertion interleaving pops time-sorted, then kind-sorted, then FIFO."""
    q = EventQueue()
    for seq, (t, kind) in enumerate(items):
        q.push(Event(t, kind, payload=seq))
    popped = []
    while q:
        popped.append(q.pop())
    keys = [(e.time_ms, int(e.kind), e.payload) for e in popped]
    assert keys == sorted(keys), "pop order must be (time, kind, insertion) sorted"
    # FIFO among exact duplicates: payload (the insertion sequence) must rise within
    # each (time, kind) group.
    groups = {}
    for e in popped:
        groups.setdefault((e.time_ms, int(e.kind)), []).append(e.payload)
    for seqs in groups.values():
        assert seqs == sorted(seqs)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1e7, allow_nan=False), min_size=1, max_size=30
    )
)
def test_clock_never_moves_backwards(times):
    clock = SimulationClock(0.0)
    high_water = 0.0
    for t in times:
        if t + 1e-9 < high_water:
            with pytest.raises(ValueError):
                clock.advance_to(t)
        else:
            clock.advance_to(t)
            high_water = max(high_water, t)
        assert clock.now_ms == high_water


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        min_size=1,
        max_size=30,
    ),
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
)
def test_pop_until_respects_epsilon_boundary(times, cutoff):
    q = EventQueue()
    for t in times:
        q.push(Event(t, EventKind.CONTROL, t))
    popped = [e.payload for e in q.pop_until(cutoff)]
    remaining = []
    while q:
        remaining.append(q.pop().payload)
    assert all(t <= cutoff + TIME_EPSILON_MS for t in popped)
    assert all(t > cutoff + TIME_EPSILON_MS for t in remaining)
    assert sorted(popped + remaining) == sorted(times)


class TestSharedTimeEpsilon:
    """Pins the module-level epsilon shared by the queue and the clock.

    ``pop_until`` historically used an ad-hoc ``1e-12`` while
    ``SimulationClock.advance_to`` tolerated ``1e-9`` of backward motion; both now
    read :data:`TIME_EPSILON_MS`, so "same instant" means the same thing in event
    batching and in clock monotonicity."""

    def test_value_is_the_clock_tolerance(self):
        assert TIME_EPSILON_MS == 1e-9

    def test_pop_until_boundary(self):
        q = EventQueue()
        q.push(Event(10.0, EventKind.CONTROL, "at"))
        q.push(Event(10.0 + 1e-13, EventKind.CONTROL, "within-eps"))
        q.push(Event(10.0 + TIME_EPSILON_MS, EventKind.CONTROL, "on-boundary"))
        q.push(Event(10.0 + 3e-9, EventKind.CONTROL, "beyond-eps"))
        assert [e.payload for e in q.pop_until(10.0)] == [
            "at",
            "within-eps",
            "on-boundary",  # inclusive: time <= cutoff + epsilon
        ]
        assert [e.payload for e in q.pop_until(10.0 + 3e-9)] == ["beyond-eps"]

    def test_clock_boundary(self):
        clock = SimulationClock(10.0)
        clock.advance_to(10.0 - TIME_EPSILON_MS)  # inside the tolerance: allowed, no-op
        assert clock.now_ms == 10.0
        with pytest.raises(ValueError):
            clock.advance_to(10.0 - 3e-9)  # beyond it: backward motion rejected

    def test_pop_batch_matches_pop_until(self):
        make = lambda: [  # noqa: E731 - tiny local fixture
            Event(10.0, EventKind.QUERY_ARRIVAL, "arrival"),
            Event(10.0, EventKind.SERVICE_COMPLETION, "completion"),
            Event(10.0 + 3e-9, EventKind.CONTROL, "later"),
        ]
        q1, q2 = EventQueue(), EventQueue()
        for e in make():
            q1.push(e)
        for e in make():
            q2.push(e)
        batch = q1.pop_batch(10.0)
        assert [e.payload for e in batch] == [e.payload for e in q2.pop_until(10.0)]
        # completions sort before arrivals inside the batch, as in the lazy form
        assert [e.payload for e in batch] == ["completion", "arrival"]
        assert len(q1) == 1


def test_pop_batch_without_time_takes_earliest_instant():
    q = EventQueue()
    q.push(Event(5.0, EventKind.CONTROL, "b"))
    q.push(Event(3.0, EventKind.CONTROL, "a1"))
    q.push(Event(3.0, EventKind.CONTROL, "a2"))
    assert [e.payload for e in q.pop_batch()] == ["a1", "a2"]
    assert [e.payload for e in q.pop_batch()] == ["b"]
    assert q.pop_batch() == []


class TestPopBatchAnchorRule:
    """Pins the anchor-based (non-transitive) coalescing rule of ``pop_batch``.

    A chain of events whose *consecutive* gaps are each below ``TIME_EPSILON_MS``
    still partitions greedily from the earliest event: the batch limit is
    ``anchor + epsilon`` where the anchor is one single timestamp, never the
    last event admitted so far.  Sharded queues must reuse exactly this rule
    with one global anchor — per-shard anchors would split the same chain
    differently per shard and diverge from the unsharded loop.
    """

    CHAIN = [5.0 + i * 0.6e-9 for i in range(5)]  # gaps 0.6 eps, span 2.4 eps

    def fill(self, times=None):
        q = EventQueue()
        for i, t in enumerate(times if times is not None else self.CHAIN):
            q.push(Event(t, EventKind.CONTROL, i))
        return q

    def test_sub_epsilon_chain_partitions_greedily(self):
        # anchor=5.0 admits offsets {0, 0.6eps}; 1.2eps anchors the next batch
        # (admitting 1.8eps); 2.4eps anchors the last.  Transitive coalescing
        # would drain all five as one batch — that must not happen.
        q = self.fill()
        batches = []
        while q:
            batches.append([e.payload for e in q.pop_batch()])
        assert batches == [[0, 1], [2, 3], [4]]

    def test_explicit_anchor_reproduces_the_implicit_split(self):
        q = self.fill()
        assert [e.payload for e in q.pop_batch(5.0)] == [0, 1]

    def test_anchor_choice_decides_the_split(self):
        # Anchoring at the third chain event widens the limit to 2.2 eps past the
        # base: four events coalesce.  The split is a function of the anchor —
        # which is exactly why a sharded merge must use ONE global anchor.
        q = self.fill()
        assert [e.payload for e in q.pop_batch(self.CHAIN[2])] == [0, 1, 2, 3]

    def test_insertion_order_never_changes_the_partition(self):
        q = self.fill(reversed(self.CHAIN))
        batches = []
        while q:
            batches.append([e.time_ms for e in q.pop_batch()])
        assert batches == [
            [self.CHAIN[0], self.CHAIN[1]],
            [self.CHAIN[2], self.CHAIN[3]],
            [self.CHAIN[4]],
        ]

    def test_event_exactly_on_the_limit_is_admitted(self):
        q = self.fill([5.0, 5.0 + TIME_EPSILON_MS, 5.0 + 2.0 * TIME_EPSILON_MS])
        assert [e.payload for e in q.pop_batch()] == [0, 1]  # limit is inclusive
        assert [e.payload for e in q.pop_batch()] == [2]


class TestEpsilonClusterFuzz:
    """Fuzzed equal-instant event clusters against the pop_batch/TIME_EPSILON_MS
    boundary: timestamps packed below the epsilon must drain as one batch, gaps
    above it must split batches, and nothing is ever lost or reordered."""

    @given(
        base=st.floats(min_value=1.0, max_value=1e6, allow_nan=False),
        offsets=st.lists(
            st.floats(min_value=0.0, max_value=TIME_EPSILON_MS * 0.9, allow_nan=False),
            min_size=1,
            max_size=12,
        ),
        gap=st.floats(min_value=2.5, max_value=10.0, allow_nan=False),
    )
    def test_sub_epsilon_cluster_drains_as_one_batch(self, base, offsets, gap):
        q = EventQueue()
        times = [base + o for o in offsets]
        for t in times:
            q.push(Event(t, EventKind.CONTROL, t))
        straggler = base + gap * TIME_EPSILON_MS
        q.push(Event(straggler, EventKind.CONTROL, straggler))
        batch = q.pop_batch()
        # Large bases absorb sub-epsilon offsets entirely (float granularity), but
        # whatever distinct times exist within the window must drain together.
        assert len(batch) == len(times)
        assert all(e.time_ms <= base + TIME_EPSILON_MS for e in batch)
        remaining = q.pop_batch()
        assert [e.payload for e in remaining] == [straggler] or straggler <= base + TIME_EPSILON_MS

    @given(
        cluster_times=st.lists(
            st.floats(min_value=0.0, max_value=1_000.0, allow_nan=False),
            min_size=1,
            max_size=30,
        )
    )
    def test_repeated_pop_batch_conserves_and_orders_events(self, cluster_times):
        q = EventQueue()
        for i, t in enumerate(cluster_times):
            q.push(Event(t, EventKind.CONTROL, i))
        drained = []
        batch_starts = []
        while len(q):
            batch = q.pop_batch()
            assert batch, "pop_batch on a non-empty queue must yield events"
            batch_starts.append(batch[0].time_ms)
            spread = batch[-1].time_ms - batch[0].time_ms
            assert spread <= TIME_EPSILON_MS
            drained.extend(batch)
        assert len(drained) == len(cluster_times)  # conservation
        assert sorted(e.payload for e in drained) == list(range(len(cluster_times)))
        times = [e.time_ms for e in drained]
        assert times == sorted(times)  # global order across batches
        for a, b in zip(batch_starts, batch_starts[1:]):
            assert b - a > TIME_EPSILON_MS  # distinct batches are distinct instants

    @given(
        base=st.floats(min_value=1.0, max_value=10_000.0, allow_nan=False),
        n_arrivals=st.integers(min_value=1, max_value=8),
        n_completions=st.integers(min_value=1, max_value=8),
    )
    def test_completions_sort_before_arrivals_at_an_exact_instant(
        self, base, n_arrivals, n_completions
    ):
        # The kind order (completions first) breaks ties only between events with
        # *exactly* equal timestamps; inside a wider sub-epsilon batch, raw time
        # still orders the events.  Push interleaved to rule out insertion-order luck.
        q = EventQueue()
        for i in range(max(n_arrivals, n_completions)):
            if i < n_arrivals:
                q.push(Event(base, EventKind.QUERY_ARRIVAL, f"a{i}"))
            if i < n_completions:
                q.push(Event(base, EventKind.SERVICE_COMPLETION, f"c{i}"))
        kinds = [e.kind for e in q.pop_batch()]
        assert kinds == (
            [EventKind.SERVICE_COMPLETION] * n_completions
            + [EventKind.QUERY_ARRIVAL] * n_arrivals
        )
