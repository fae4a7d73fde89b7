"""PendingQueue: arrival-ordered semantics identical to the plain list it replaced."""

import pytest

from repro.sim.pending import PendingQueue
from repro.workload.query import Query


def q(query_id, batch=10, arrival=0.0):
    return Query(query_id, batch, arrival)


class TestPendingQueue:
    def test_append_and_snapshot_order(self):
        queue = PendingQueue()
        for i in (3, 1, 7):
            queue.append(q(i))
        assert [query.query_id for query in queue.snapshot()] == [3, 1, 7]
        assert len(queue) == 3 and bool(queue)

    def test_remove_preserves_relative_order(self):
        queue = PendingQueue()
        for i in range(6):
            queue.append(q(i))
        queue.remove(2)
        queue.remove(4)
        assert [query.query_id for query in queue.snapshot()] == [0, 1, 3, 5]

    def test_remove_returns_query_and_updates_membership(self):
        queue = PendingQueue()
        queue.append(q(9))
        assert 9 in queue
        removed = queue.remove(9)
        assert removed.query_id == 9
        assert 9 not in queue
        assert len(queue) == 0 and not queue

    def test_remove_missing_raises_keyerror(self):
        queue = PendingQueue()
        queue.append(q(1))
        with pytest.raises(KeyError):
            queue.remove(2)
        queue.remove(1)
        with pytest.raises(KeyError):
            queue.remove(1)  # double-remove

    def test_duplicate_append_rejected(self):
        queue = PendingQueue()
        queue.append(q(5))
        with pytest.raises(ValueError):
            queue.append(q(5))

    def test_snapshot_is_memoized_until_mutation(self):
        queue = PendingQueue()
        queue.append(q(1))
        first = queue.snapshot()
        assert queue.snapshot() is first  # unchanged queue: same list object
        queue.append(q(2))
        assert queue.snapshot() is not first

    def test_iteration_matches_snapshot(self):
        queue = PendingQueue()
        for i in (4, 2, 8):
            queue.append(q(i))
        queue.remove(2)
        assert [query.query_id for query in queue] == [4, 8]

    def test_compaction_keeps_order_under_churn(self):
        queue = PendingQueue()
        alive = []
        for i in range(500):
            queue.append(q(i))
            alive.append(i)
            if i % 3 == 0 and len(alive) > 1:
                victim = alive.pop(0)
                queue.remove(victim)
        assert [query.query_id for query in queue.snapshot()] == alive
        assert len(queue) == len(alive)
        # the tombstone backlog is bounded by the compaction policy
        assert len(queue._entries) <= max(32, 2 * len(alive) + 1)

    def test_interleaved_append_remove_append(self):
        queue = PendingQueue()
        queue.append(q(1))
        queue.append(q(2))
        queue.remove(1)
        queue.append(q(3))
        queue.append(q(1))  # a removed id may be admitted again
        assert [query.query_id for query in queue.snapshot()] == [2, 3, 1]

    def test_version_bumps_on_change(self):
        queue = PendingQueue()
        v0 = queue.version
        queue.append(q(0))
        v1 = queue.version
        queue.remove(0)
        assert v0 < v1 < queue.version

    def test_snapshot_arrays_parallel_snapshot(self):
        queue = PendingQueue()
        for i in range(3):
            queue.append(q(i, batch=10 + i, arrival=2.0 * i))
        snapshot, batches, arrivals = queue.snapshot_arrays()
        assert [query.query_id for query in snapshot] == [0, 1, 2]
        assert list(batches) == [10, 11, 12]
        assert list(arrivals) == [0.0, 2.0, 4.0]
