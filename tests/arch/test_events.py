"""Unit tests for the wake-up event kinds (repro.arch.events) and the
per-kind counts both engines report as ``SimulationResult.event_counts``."""

from repro.arch import GPUConfig, StreamingMultiprocessor
from repro.arch.events import EventKind
from repro.policies import POLICIES
from repro.workloads import get_kernel


def run(policy, engine="event"):
    config = GPUConfig(max_resident_warps=8, active_warps=4)
    sm = StreamingMultiprocessor(config, POLICIES[policy], engine=engine)
    return sm.run(get_kernel("kmeans"))


class TestOrdering:
    def test_deterministic_across_identical_push_sequences(self):
        """Two fresh SMs fed the same kernel push the same events in the
        same order, so the telemetry the result equality skips agrees
        too: per-kind counts and skipped cycles."""
        first, second = run("LTRF"), run("LTRF")
        assert first == second
        assert first.event_counts == second.event_counts
        assert first.cycles_skipped == second.cycles_skipped


class TestCounters:
    def test_counts_by_kind(self):
        """The baseline has no RFC, so it never prefetches and never
        drains a write-back buffer; LTRF does both.  Loads that miss the
        L1 and pending writes wake warps under either."""
        baseline, ltrf = run("BL").event_counts, run("LTRF").event_counts
        for counts in (baseline, ltrf):
            assert counts[EventKind.MEMORY_RESPONSE] > 0
            assert counts[EventKind.SCOREBOARD_RELEASE] > 0
        assert baseline[EventKind.PREFETCH_ARRIVAL] == 0
        assert baseline[EventKind.WCB_DRAIN] == 0
        assert ltrf[EventKind.PREFETCH_ARRIVAL] > 0
        assert ltrf[EventKind.WCB_DRAIN] > 0

    def test_all_kinds_preinitialised(self):
        """Every kind is a key on both engines, a kind that never fired
        included; the dense oracle pushes nothing, so it reports only
        its write-back drains."""
        assert len(set(EventKind.ALL)) == 4
        for engine in ("event", "dense"):
            counts = run("BL", engine).event_counts
            assert set(counts) == set(EventKind.ALL)
        dense = run("LTRF", "dense").event_counts
        assert dense[EventKind.WCB_DRAIN] > 0
        assert all(dense[kind] == 0 for kind in EventKind.ALL
                   if kind != EventKind.WCB_DRAIN)
