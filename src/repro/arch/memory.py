"""Memory hierarchy below the register file: L1D, LLC slice, DRAM.

Global loads/stores flow through a two-level set-associative LRU cache
hierarchy backed by a bandwidth-limited DRAM model.  The hierarchy's only
job in this reproduction is to produce realistic *latency mixtures* (hits
vs misses) from the synthetic address streams, because L1 misses are what
deactivate warps under the two-level scheduler -- the events whose
latency LTRF overlaps with other warps' execution.

The model is deliberately simple: no MSHRs, no sectoring, one access per
instruction (our warps issue coalesced accesses).  DRAM bandwidth is a
single server with a fixed service interval, enough to create queueing
under heavy miss traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.arch.config import MemoryConfig


@dataclass
class MemoryStats:
    l1_hits: int = 0
    #: Bounds the SM's memory-response events from above: only missing
    #: loads deactivate a warp (stores are fire-and-forget).
    l1_misses: int = 0

    @property
    def l1_accesses(self) -> int:
        return self.l1_hits + self.l1_misses

    @property
    def l1_hit_rate(self) -> float:
        total = self.l1_accesses
        return self.l1_hits / total if total else 0.0


class _SetAssociativeCache:
    """Tag-only LRU cache: tracks presence, not data."""

    def __init__(self, size_bytes: int, ways: int, line_bytes: int) -> None:
        self.ways = ways
        self.line_bytes = line_bytes
        self.sets = size_bytes // (ways * line_bytes)
        if self.sets < 1:
            raise ValueError("cache has no sets")
        self._tags: List[List[int]] = [[] for _ in range(self.sets)]

    def access(self, address: int) -> bool:
        """Touch ``address``; return True on hit.  Misses allocate."""
        line = address // self.line_bytes
        index = line % self.sets
        tags = self._tags[index]
        if line in tags:
            tags.remove(line)
            tags.append(line)           # most-recently-used position
            return True
        tags.append(line)
        if len(tags) > self.ways:
            tags.pop(0)                 # evict LRU
        return False


@dataclass(slots=True)
class AccessResult:
    """Outcome of one memory access."""

    ready_cycle: int
    level: str                          # 'l1' | 'llc' | 'dram'

    @property
    def is_l1_hit(self) -> bool:
        return self.level == "l1"


class MemoryHierarchy:
    """L1D -> LLC slice -> DRAM, with per-level fixed latencies."""

    def __init__(self, config: MemoryConfig) -> None:
        self.config = config
        self.l1 = _SetAssociativeCache(
            config.l1_size_bytes, config.l1_ways, config.line_bytes
        )
        self.llc = _SetAssociativeCache(
            config.llc_size_bytes, config.llc_ways, config.line_bytes
        )
        self.stats = MemoryStats()
        self._dram_free = 0

    def access(self, address: int, cycle: int) -> AccessResult:
        """Perform a global-memory access starting at ``cycle``.

        The hierarchy is never polled: the returned
        :attr:`AccessResult.ready_cycle` is the completion time, which
        the SM registers as a memory-response wake-up event for any
        warp the miss deactivates.
        """
        config = self.config
        stats = self.stats
        if self.l1.access(address):
            stats.l1_hits += 1
            return AccessResult(cycle + config.l1_latency, "l1")
        stats.l1_misses += 1
        if self.llc.access(address):
            return AccessResult(cycle + config.llc_latency, "llc")
        start = max(cycle, self._dram_free)
        self._dram_free = start + config.dram_service_interval
        return AccessResult(start + config.dram_latency, "dram")
