"""RFC: the hardware register file cache (Gebhart et al., ISCA'11).

A conventional cache in front of the MRF.  Following Gebhart's design,
the 16KB cache is sliced evenly across every *resident* warp (so each
warp owns only a handful of entries -- two at full 64-warp occupancy):
produced values are allocated on write (the design caches results
flowing out of the execution units), reads that miss go straight to the
MRF without allocating, per-slice LRU replacement.  No prefetching --
every miss exposes the full MRF latency to the pipeline.

The paper's Section 2.3 explains why this caches poorly (Figure 4's
8-30% hit rates), and this model reproduces all three reasons:

1. the cache must be provisioned across all resident warps, so each
   warp's share is tiny (the shared-structure displacement problem --
   unlike LTRF, which only provisions the 8 active warps);
2. register values have short temporal locality: a consumer more than a
   few writes behind the producer finds the value displaced;
3. there is no spatial locality to exploit (one register per entry).

Dirty victims are written back on eviction.  A deactivating warp's
in-flight results land in the MRF (inactive warps keep live state
there); its cached entries stay until displaced by its own writes.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional

from repro.arch.warp import Warp
from repro.ir.instruction import Instruction
from repro.policies.base import RegisterPolicy


class RFCPolicy(RegisterPolicy):
    """Hardware register cache with per-resident-warp LRU slices."""

    name = "RFC"

    def __init__(self, config, mrf, rfc) -> None:
        super().__init__(config, mrf, rfc)
        total = config.active_warps * config.regs_per_interval
        # The slicing is a hardware structure: it must be provisioned
        # for the maximum warp count, not the occupancy of one kernel
        # (16KB / 64 warps = 2 warp-registers per slice).
        self.slice_capacity = max(1, total // config.max_resident_warps)
        #: warp_id -> (register -> dirty flag, LRU order, oldest first).
        self._slices: Dict[int, "OrderedDict[int, bool]"] = {}
        # Hot-path constants (config is frozen; the stats objects live
        # as long as the policy): the per-operand attribute chains were
        # measurable in the operand-collection profile.
        self._rfc_latency = config.rfc_latency
        self._rfc_stats = rfc.stats

    def _slice(self, warp_id: int) -> "OrderedDict[int, bool]":
        if warp_id not in self._slices:
            self._slices[warp_id] = OrderedDict()
        return self._slices[warp_id]

    # -- operand path ----------------------------------------------------------

    def operand_read_latency(self, warp: Warp, instruction: Instruction,
                             cycle: int) -> int:
        entries = self._slices.get(warp.warp_id)
        if entries is None:
            entries = self._slice(warp.warp_id)
        stats = self._rfc_stats
        move_to_end = entries.move_to_end
        hit_ready = cycle + self._rfc_latency
        ready = cycle
        hits = 0
        for src in instruction.srcs:
            if src in entries:
                hits += 1
                move_to_end(src)
                if hit_ready > ready:
                    ready = hit_ready
            else:
                # Miss: read the MRF; do not allocate (read-no-allocate).
                stats.read_misses += 1
                done = self.mrf.read(warp.warp_id, src, cycle)
                if done > ready:
                    ready = done
        if hits:
            stats.read_hits += hits
            stats.reads += hits
        return ready - cycle

    def result_write(self, warp: Warp, instruction: Instruction,
                     cycle: int, to_mrf: bool = False) -> None:
        dsts = instruction.dsts
        if not dsts:
            return
        warp_id = warp.warp_id
        if to_mrf:
            # The warp is being deactivated: the in-flight result
            # lands in the MRF, where inactive warps keep live state.
            for dst in dsts:
                self.mrf.write(warp_id, dst, cycle)
            return
        # Inlined install-with-LRU-eviction (the per-issue write path):
        # mark (or re-mark) the produced value dirty and most recently
        # used; a full slice evicts its LRU entry, writing it back to
        # the MRF if dirty.
        stats = self._rfc_stats
        stats.writes += len(dsts)
        entries = self._slices.get(warp_id)
        if entries is None:
            entries = self._slice(warp_id)
        capacity = self.slice_capacity
        for dst in dsts:
            if dst in entries:
                entries[dst] = True
                entries.move_to_end(dst)
                continue
            if len(entries) >= capacity:
                victim, victim_dirty = entries.popitem(last=False)
                if victim_dirty:
                    self.mrf.write(warp_id, victim, cycle)
                    stats.writebacks += 1
            entries[dst] = True

    # -- scheduler hooks ------------------------------------------------------------

    def finish(self, warp: Warp, cycle: int) -> Optional[int]:
        """Drain the retired warp's dirty results to the MRF.

        Returns the drain's completion cycle (the SM registers it as a
        WCB-drain event), or ``None`` when nothing was dirty.
        """
        entries = self._slices.pop(warp.warp_id, None)
        if not entries:
            return None
        dirty = [register for register, is_dirty in entries.items() if is_dirty]
        if not dirty:
            return None
        drained_at = self.mrf.bulk_write(warp.warp_id, dirty, cycle)
        self.rfc.note_writeback(len(dirty))
        return drained_at
