"""Wake-up event infrastructure for the event-driven SM core.

The streaming multiprocessor schedules forward progress through one
wake-up heap keyed by *absolute cycle*.  Latency-producing components
never poll a per-cycle ``tick()``; they return completion times, and the
SM registers each completion as a typed event:

* ``MEMORY_RESPONSE`` -- an L1-miss load completes and its warp becomes
  resumable (:meth:`repro.arch.memory.MemoryHierarchy.access`);
* ``PREFETCH_ARRIVAL`` -- a PREFETCH (or activation refetch) bulk
  transfer lands in the RFC
  (:meth:`repro.arch.main_register_file.MainRegisterFile.bulk_read`);
* ``SCOREBOARD_RELEASE`` -- a warp's pending register writes settle and
  its next instruction becomes hazard-free
  (:meth:`repro.arch.warp.Warp.dependencies_ready_at`);
* ``WCB_DRAIN`` -- a deactivating/retiring warp's dirty registers finish
  writing back to the MRF (instrumentation only: nothing in the modelled
  microarchitecture waits on the drain, so the event wakes no warp).

When no warp can issue, the SM pops the heap and jumps the clock
directly to the earliest pending event instead of ticking idle cycles.

Determinism: events are totally ordered by ``(cycle, sequence)`` where
``sequence`` is the push order, so same-cycle events pop FIFO and a
simulation replays identically run to run.  The engine additionally
never *depends* on pop order for same-cycle warp wake-ups: woken warps
are re-ordered by the scheduler's own keys (``(resume_at, warp_id)`` for
activation, round-robin ``warp_id`` for issue), which is what makes the
event engine observationally identical to the reference dense-tick
engine (see ``tests/arch/test_engine_equivalence.py``).
"""

from __future__ import annotations

from heapq import heappush
from typing import Dict, List, Tuple


class EventKind:
    """Event taxonomy: which component's completion wakes the SM."""

    MEMORY_RESPONSE = "memory_response"
    PREFETCH_ARRIVAL = "prefetch_arrival"
    SCOREBOARD_RELEASE = "scoreboard_release"
    WCB_DRAIN = "wcb_drain"

    ALL = (MEMORY_RESPONSE, PREFETCH_ARRIVAL, SCOREBOARD_RELEASE, WCB_DRAIN)


class EventQueue:
    """Wake-up heap keyed by absolute cycle, with per-kind counters.

    Entries are ``(cycle, seq, kind, payload)``; ``seq`` increases
    monotonically with each push, so the heap's total order is
    deterministic and same-cycle events drain in push (FIFO) order.
    """

    __slots__ = ("_heap", "_seq", "counts")

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, str, object]] = []
        self._seq = 0
        #: Events pushed, by kind (the per-component event counters).
        self.counts: Dict[str, int] = dict.fromkeys(EventKind.ALL, 0)

    def push(self, cycle: int, kind: str, payload: object = None) -> None:
        """Register a completion at absolute ``cycle``."""
        self.counts[kind] += 1
        heappush(self._heap, (cycle, self._seq, kind, payload))
        self._seq += 1

    def fold_batched(self, seq: int, memory: int = 0, prefetch: int = 0,
                     scoreboard: int = 0, drain: int = 0) -> None:
        """Fold an engine's locally batched push accounting back in.

        The event engine inlines its heap pushes against a local
        sequence counter and per-kind tallies (the per-push method
        dispatch is measurable at millions of events); on exit it
        hands the batch back here so telemetry (:attr:`counts`) and
        any later pushes observe the same state as unbatched
        :meth:`push` calls would have produced.
        """
        self._seq = seq
        counts = self.counts
        counts[EventKind.MEMORY_RESPONSE] += memory
        counts[EventKind.PREFETCH_ARRIVAL] += prefetch
        counts[EventKind.SCOREBOARD_RELEASE] += scoreboard
        counts[EventKind.WCB_DRAIN] += drain
