"""Unit tests for the wake-up event heap (repro.arch.events)."""

from heapq import heappop, heappush

import pytest

from repro.arch.events import EventKind, EventQueue


def pop_due(queue, cycle):
    """Pop every event due by ``cycle`` the way the event engine drains
    its wake-up heap; return ``(cycle, kind, payload)`` per event."""
    heap = queue._heap
    due = []
    while heap and heap[0][0] <= cycle:
        event_cycle, _, kind, payload = heappop(heap)
        due.append((event_cycle, kind, payload))
    return due


class TestOrdering:
    def test_pops_in_cycle_order(self):
        queue = EventQueue()
        queue.push(30, EventKind.MEMORY_RESPONSE, "c")
        queue.push(10, EventKind.PREFETCH_ARRIVAL, "a")
        queue.push(20, EventKind.SCOREBOARD_RELEASE, "b")
        due = pop_due(queue, 100)
        assert [payload for _, _, payload in due] == ["a", "b", "c"]
        assert [cycle for cycle, _, _ in due] == [10, 20, 30]

    def test_same_cycle_ties_pop_fifo(self):
        """Same-cycle events drain in push order -- the determinism
        guarantee the engine's replay identity rests on."""
        queue = EventQueue()
        for tag in ("first", "second", "third", "fourth"):
            queue.push(7, EventKind.SCOREBOARD_RELEASE, tag)
        due = pop_due(queue, 7)
        assert [payload for _, _, payload in due] == [
            "first", "second", "third", "fourth"
        ]

    def test_interleaved_ties_stay_fifo_per_cycle(self):
        queue = EventQueue()
        queue.push(5, EventKind.MEMORY_RESPONSE, "a5")
        queue.push(3, EventKind.MEMORY_RESPONSE, "a3")
        queue.push(5, EventKind.WCB_DRAIN, "b5")
        queue.push(3, EventKind.WCB_DRAIN, "b3")
        due = pop_due(queue, 5)
        assert [payload for _, _, payload in due] == ["a3", "b3", "a5", "b5"]

    def test_deterministic_across_identical_push_sequences(self):
        def build():
            queue = EventQueue()
            for cycle, kind, payload in (
                (4, EventKind.MEMORY_RESPONSE, 1),
                (4, EventKind.PREFETCH_ARRIVAL, 2),
                (2, EventKind.WCB_DRAIN, 3),
                (4, EventKind.SCOREBOARD_RELEASE, 4),
            ):
                queue.push(cycle, kind, payload)
            return pop_due(queue, 10)

        assert build() == build()


class TestCounters:
    def test_counts_by_kind(self):
        queue = EventQueue()
        queue.push(1, EventKind.MEMORY_RESPONSE)
        queue.push(2, EventKind.MEMORY_RESPONSE)
        queue.push(3, EventKind.WCB_DRAIN)
        assert queue.counts[EventKind.MEMORY_RESPONSE] == 2
        assert queue.counts[EventKind.WCB_DRAIN] == 1
        assert queue.counts[EventKind.PREFETCH_ARRIVAL] == 0
        assert queue.counts[EventKind.SCOREBOARD_RELEASE] == 0

    def test_all_kinds_preinitialised(self):
        queue = EventQueue()
        assert set(queue.counts) == set(EventKind.ALL)

    def test_unknown_kind_rejected(self):
        queue = EventQueue()
        with pytest.raises(KeyError):
            queue.push(1, "not-a-kind")


class TestFoldBatched:
    """The event engine pushes straight onto the heap against a local
    sequence counter and hands the batch back with ``fold_batched``."""

    def test_batched_pushes_match_push_calls(self):
        events = [
            (7, EventKind.MEMORY_RESPONSE, "a"),
            (3, EventKind.PREFETCH_ARRIVAL, "b"),
            (7, EventKind.SCOREBOARD_RELEASE, "c"),
            (7, EventKind.WCB_DRAIN, "d"),
        ]
        unbatched = EventQueue()
        unbatched.push(7, EventKind.MEMORY_RESPONSE, "first")
        for event in events:
            unbatched.push(*event)

        batched = EventQueue()
        batched.push(7, EventKind.MEMORY_RESPONSE, "first")
        seq = batched._seq
        for cycle, kind, payload in events:
            heappush(batched._heap, (cycle, seq, kind, payload))
            seq += 1
        batched.fold_batched(seq, memory=1, prefetch=1, scoreboard=1,
                             drain=1)

        # A push after the fold still ties FIFO behind the batch.
        for queue in (unbatched, batched):
            queue.push(7, EventKind.WCB_DRAIN, "last")
        assert batched.counts == unbatched.counts
        assert pop_due(batched, 10) == pop_due(unbatched, 10)

    def test_fold_adds_to_existing_counts(self):
        queue = EventQueue()
        queue.push(1, EventKind.MEMORY_RESPONSE)
        queue.push(2, EventKind.WCB_DRAIN)
        queue.fold_batched(2, memory=3)
        assert queue.counts == {
            EventKind.MEMORY_RESPONSE: 4,
            EventKind.PREFETCH_ARRIVAL: 0,
            EventKind.SCOREBOARD_RELEASE: 0,
            EventKind.WCB_DRAIN: 1,
        }
