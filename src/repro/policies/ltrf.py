"""LTRF: register-interval prefetching (the paper's contribution).

The policy executes kernels compiled by :func:`repro.compiler.compile_kernel`:
a PREFETCH at each region header names the region's register working set.
Executing the PREFETCH:

1. writes back and evicts cached registers that left the working set
   (dirty ones go to the MRF);
2. checks that the new working set fits the warp's RFC partition;
3. bulk-reads the missing registers from the MRF (bank conflicts and the
   narrow crossbar included) -- registers whose WCB valid bits are
   already set are skipped, so a loop iterating inside one interval
   re-executes its PREFETCH for free;
4. blocks *only this warp* until the transfer completes; other active
   warps keep issuing, which is how the prefetch latency is hidden.

All operand reads then hit the RFC by construction (the region working
set is an over-approximation of every register the region can touch).

On deactivation the warp's cached working set is written back and the
partition released; on activation it is refetched (charged as activation
latency, again overlapped with other warps).  ``LTRFPolicy`` moves the
full working set; :class:`repro.policies.ltrf_plus.LTRFPlusPolicy`
refines this with liveness.

``LTRFStrandPolicy`` is the Figure 14 comparison point: the same
hardware mechanism driven by strand regions instead of register-
intervals.
"""

from __future__ import annotations

from typing import Iterable, Optional, Set

from repro.arch.warp import Warp
from repro.compiler.cache import compiled_kernel_for
from repro.ir.instruction import Instruction
from repro.ir.kernel import Kernel
from repro.policies.base import RegisterPolicy


class LTRFPolicy(RegisterPolicy):
    """Software-prefetched, partitioned register file cache."""

    name = "LTRF"
    region_kind = "register-interval"
    uses_narrow_crossbar = True
    #: Pass-2 ablation switch (register-intervals only).
    run_pass2 = True

    def __init__(self, config, mrf, rfc) -> None:
        super().__init__(config, mrf, rfc)
        self._prefetch_registers_moved = 0
        self._prefetch_operations = 0
        # Hot-path constants (config is frozen; the stats object lives
        # as long as the policy).
        self._rfc_latency = config.rfc_latency
        self._port_penalty = config.wcb_extra_operand_penalty
        self._rfc_stats = rfc.stats

    # -- kernel preparation -----------------------------------------------------

    def executable_kernel(self, kernel: Kernel) -> Kernel:
        # The compiled artifact depends only on the kernel content and
        # these parameters, so it is resolved through the process-wide
        # static-artifact cache; the returned kernel is shared and must
        # not be mutated (the SM and policies only read it).
        compiled = compiled_kernel_for(
            kernel,
            region_kind=self.region_kind,
            max_registers=self.config.regs_per_interval,
            run_pass2=self.run_pass2,
        )
        return compiled.kernel

    # -- PREFETCH execution --------------------------------------------------------

    def prefetch(self, warp: Warp, instruction: Instruction,
                 cycle: int) -> int:
        wcb = warp.wcb
        working_set = instruction.prefetch_working_set
        self._prefetch_operations += 1

        self._evict_departed(warp, working_set, cycle)
        to_fetch = self._registers_to_fetch(warp, working_set)
        self.rfc.check_capacity(wcb, len(working_set))
        wcb.working_set = working_set

        completion = cycle + 1
        if to_fetch:
            completion = self.mrf.bulk_read(
                warp.warp_id, sorted(to_fetch), cycle
            )
            self.rfc.fill_registers(wcb, to_fetch)
            self._prefetch_registers_moved += len(to_fetch)
        # Registers not fetched (already valid, or provably dead) only
        # need space; marking them valid gives it to them.
        wcb.valid.update(working_set)
        return completion

    def _registers_to_fetch(self, warp: Warp, working_set: Set[int]) -> Set[int]:
        """Working-set registers whose value must come from the MRF."""
        return working_set - warp.wcb.valid

    def _writeback_filter(self, warp: Warp,
                          registers: Iterable[int]) -> Set[int]:
        """Registers among ``registers`` that must reach the MRF."""
        return set(registers)

    def _evict_departed(self, warp: Warp, working_set: Set[int],
                        cycle: int) -> None:
        wcb = warp.wcb
        departed = wcb.valid - working_set
        if not departed:
            return
        dirty = self._writeback_filter(warp, wcb.dirty & departed)
        if dirty:
            self.mrf.bulk_write(warp.warp_id, sorted(dirty), cycle)
            self.rfc.note_writeback(len(dirty))
        self.rfc.evict_registers(wcb, departed)

    # -- operand path -----------------------------------------------------------

    def operand_read_latency(self, warp: Warp, instruction: Instruction,
                             cycle: int) -> int:
        # Flattened equivalent of one rfc.read() per source: every read
        # hits by construction and costs the same one-cycle RFC access,
        # so only the counts and the port penalty remain.
        wcb = warp.wcb
        srcs = instruction.srcs
        valid = wcb.valid
        if srcs and not valid.issuperset(srcs):
            missing = next(src for src in srcs if src not in valid)
            raise RuntimeError(
                f"LTRF invariant violated: warp {warp.warp_id} read "
                f"r{missing} outside its prefetched working set"
            )
        latency = 0
        if srcs:
            count = len(srcs)
            stats = self._rfc_stats
            stats.read_hits += count
            stats.reads += count
            latency = self._rfc_latency
            if count > 2:
                latency += self._port_penalty
        if instruction.dead_srcs:
            wcb.live.difference_update(instruction.dead_srcs)
        return latency

    def result_write(self, warp: Warp, instruction: Instruction,
                     cycle: int, to_mrf: bool = False) -> None:
        # Flattened per-destination write: mark the register live,
        # cache it (checking the partition's capacity when it is new)
        # and mark it dirty.  The per-issue write path is hot enough
        # that a method hop per register was measurable.
        wcb = warp.wcb
        dsts = instruction.dsts
        if not dsts:
            return
        if to_mrf:
            live_add = wcb.live.add
            for dst in dsts:
                live_add(dst)
                self.mrf.write(warp.warp_id, dst, cycle)
            return
        live_add = wcb.live.add
        valid = wcb.valid
        dirty_add = wcb.dirty.add
        for dst in dsts:
            live_add(dst)
            if dst not in valid:
                self.rfc.check_capacity(wcb, len(valid) + 1)
                valid.add(dst)
            dirty_add(dst)
        self._rfc_stats.writes += len(dsts)

    # -- scheduler hooks -----------------------------------------------------------

    def activate(self, warp: Warp, cycle: int) -> int:
        wcb = warp.wcb
        self.rfc.acquire_partition(wcb)
        refetch = self._writeback_filter(warp, wcb.working_set)
        refetch = self._registers_to_fetch(warp, refetch)
        self.rfc.check_capacity(wcb, len(wcb.working_set))
        wcb.valid.update(wcb.working_set)
        if not refetch:
            return 0
        completion = self.mrf.bulk_read(warp.warp_id, sorted(refetch), cycle)
        self.rfc.fill_registers(wcb, refetch)
        self._prefetch_registers_moved += len(refetch)
        return completion - cycle

    def deactivate(self, warp: Warp, cycle: int) -> Optional[int]:
        wcb = warp.wcb
        writeback = self._writeback_filter(warp, wcb.dirty)
        drained_at = None
        if writeback:
            drained_at = self.mrf.bulk_write(
                warp.warp_id, sorted(writeback), cycle
            )
            self.rfc.note_writeback(len(writeback))
        self.rfc.release_partition(wcb)
        return drained_at

    def finish(self, warp: Warp, cycle: int) -> Optional[int]:
        if warp.wcb.warp_offset is not None:
            self.rfc.release_partition(warp.wcb)
        return None

    # -- reporting ------------------------------------------------------------------

    def extra_stats(self) -> dict:
        return {
            "prefetch_registers_moved": self._prefetch_registers_moved,
            "prefetch_operations_executed": self._prefetch_operations,
        }


class LTRFStrandPolicy(LTRFPolicy):
    """LTRF hardware driven by strand regions (Figure 14's LTRF-strand)."""

    name = "LTRF-strand"
    region_kind = "strand"


class LTRFPass1Policy(LTRFPolicy):
    """Ablation: register-intervals without Algorithm 2's merging."""

    name = "LTRF-pass1"
    run_pass2 = False
