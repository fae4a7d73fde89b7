"""Event-queue engine: a deterministic binary-heap scheduler and a simulation clock."""

from __future__ import annotations

import heapq
from typing import Iterator, List, Optional, Tuple

from repro.sim.events import Event

#: Timestamp comparison tolerance (milliseconds) shared by the whole engine: events
#: within this distance of an instant belong to the same scheduling round
#: (:meth:`EventQueue.pop_until` / :meth:`EventQueue.pop_batch`), and the clock
#: tolerates backward requests up to it (:meth:`SimulationClock.advance_to`).
#: Historically ``pop_until`` used an ad-hoc ``1e-12`` while the clock used ``1e-9``;
#: one named epsilon keeps "same instant" meaning the same thing everywhere.  Note
#: the unification *widens* the event-coalescing window from 1e-12 to 1e-9 ms:
#: events less than a nanosecond apart — below any physical meaning the simulation
#: assigns to time — now share a scheduling round.  Every committed figure, the
#: full test suite, and the pre-overhaul byte-identity digests are unchanged under
#: the wider window.
TIME_EPSILON_MS = 1e-9


class SimulationClock:
    """Monotone simulated-time clock (milliseconds)."""

    def __init__(self, start_ms: float = 0.0):
        if start_ms < 0:
            raise ValueError("start time must be non-negative")
        self._now = float(start_ms)

    @property
    def now_ms(self) -> float:
        return self._now

    def advance_to(self, time_ms: float) -> float:
        """Advance the clock; simulated time can never move backwards."""
        if time_ms < self._now - TIME_EPSILON_MS:
            raise ValueError(
                f"cannot move the clock backwards: now={self._now}, requested={time_ms}"
            )
        self._now = max(self._now, float(time_ms))
        return self._now


class EventQueue:
    """A deterministic priority queue of :class:`~repro.sim.events.Event` objects.

    Events at the same timestamp are ordered by event kind (completions before
    arrivals) and then by insertion order, which makes whole simulations reproducible
    for a fixed seed.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[tuple, Event]] = []
        self._sequence = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, event: Event) -> None:
        """Insert an event."""
        heapq.heappush(self._heap, (event.sort_key(self._sequence), event))
        self._sequence += 1

    def push_all(self, events) -> None:
        for event in events:
            self.push(event)

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        if not self._heap:
            raise IndexError("pop from an empty event queue")
        return heapq.heappop(self._heap)[1]

    def peek(self) -> Event:
        """Return (without removing) the earliest event."""
        if not self._heap:
            raise IndexError("peek on an empty event queue")
        return self._heap[0][1]

    def peek_time(self) -> Optional[float]:
        """Time of the earliest event, or ``None`` when empty."""
        return self._heap[0][1].time_ms if self._heap else None

    def pop_until(self, time_ms: float) -> Iterator[Event]:
        """Yield and remove every event with ``time <= time_ms`` (within epsilon)."""
        while self._heap and self._heap[0][1].time_ms <= time_ms + TIME_EPSILON_MS:
            yield self.pop()

    def pop_batch(self, time_ms: Optional[float] = None) -> List[Event]:
        """Remove and return the whole equal-timestamp batch as a list, in order.

        With ``time_ms`` given, this is the eager form of :meth:`pop_until` — every
        event within :data:`TIME_EPSILON_MS` of ``time_ms`` — which the serving
        simulators use so all events of one instant trigger a *single* scheduling
        round.  Without it, the batch is taken at the earliest queued timestamp
        (empty queue returns an empty list).  Kind/insertion ordering inside the
        batch is exactly the heap order (completions before arrivals).

        **Anchor rule (load-bearing, do not change):** the batch limit is pinned at
        ``anchor + TIME_EPSILON_MS`` where the *anchor* is the single timestamp the
        batch was taken at (``time_ms`` when given, else the earliest queued event).
        Coalescing is deliberately **not transitive**: a chain of events whose
        consecutive gaps are each below epsilon still splits at the anchor boundary —
        events past ``anchor + epsilon`` stay queued and anchor the *next* batch.
        Sub-epsilon chains are therefore partitioned greedily from the earliest event
        forward, which makes the split a deterministic function of the queue contents
        alone.  Any partitioned or merged queue must reuse this exact rule with one
        **global** anchor across all partitions: letting each partition anchor its
        own batch would split the same chain differently and diverge from this
        single-heap event loop.
        """
        heap = self._heap
        if not heap:
            return []
        limit = (heap[0][1].time_ms if time_ms is None else time_ms) + TIME_EPSILON_MS
        batch: List[Event] = []
        pop = heapq.heappop
        while heap and heap[0][1].time_ms <= limit:
            batch.append(pop(heap)[1])
        return batch

    def only_kinds(self, kinds) -> bool:
        """True when the queue is non-empty and every queued event's kind is in ``kinds``.

        An empty ``kinds`` set always answers False: the question only makes sense
        for a real set of timer kinds, and a fault-free caller passing the empty set
        must get the same answer as before timers existed.
        """
        return bool(self._heap) and all(entry[1].kind in kinds for entry in self._heap)

    def discard(self, predicate) -> int:
        """Remove every queued event matching ``predicate``; returns how many.

        Surviving entries keep their original sort keys (timestamp, kind, insertion
        sequence), so the relative order of everything left is untouched —
        determinism is preserved.
        """
        kept = [entry for entry in self._heap if not predicate(entry[1])]
        removed = len(self._heap) - len(kept)
        if removed:
            self._heap = kept
            heapq.heapify(self._heap)
        return removed

    def clear(self) -> None:
        self._heap.clear()
