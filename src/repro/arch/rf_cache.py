"""The register file cache (RFC): partitioned, per-active-warp storage.

Section 4.1: the RFC has ``regs_per_interval`` banks, each hosting one
register per active warp; a warp's registers interleave across banks so
each bank holds at most one register of any warp.  Partitioning means
active warps never evict each other -- the property that distinguishes
LTRF's cache from a conventional shared register cache.

A partition is modelled by its capacity alone.  In the paper a
per-partition Address Allocation Unit gives every cached register a
bank slot, but no slot number ever reached timing: every RFC access
costs the same one cycle, whichever bank it hits.  So the warp's WCB
``valid`` set is the only record of what its partition holds, and the
one property the slots enforced -- a partition holds at most
``regs_per_interval`` registers -- is checked on that set's size
(:meth:`RegisterFileCache.check_capacity`).  The hardware still needs
the address table; :func:`repro.arch.wcb.wcb_storage_bits` still counts
its bits.

:class:`RegisterFileCache` provides the partition lifecycle
(acquire/release through the warp-offset Address Allocation Unit), the
capacity check, the bulk fills and evictions that keep WCB state
coherent, and access counting.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.address_alloc import AddressAllocationUnit, AllocationError
from repro.arch.config import GPUConfig
from repro.arch.wcb import WarpControlBlock


@dataclass
class RFCStats:
    reads: int = 0
    writes: int = 0
    read_hits: int = 0
    read_misses: int = 0
    fills: int = 0                    # registers loaded from the MRF
    writebacks: int = 0               # registers written back to the MRF


class RegisterFileCache:
    """Partitioned RFC: one fixed-capacity partition per active warp."""

    def __init__(self, config: GPUConfig) -> None:
        self.config = config
        self.stats = RFCStats()
        self._warp_offsets = AddressAllocationUnit(config.active_warps)

    # -- partition lifecycle --------------------------------------------------

    def acquire_partition(self, wcb: WarpControlBlock) -> None:
        """Give ``wcb``'s warp a dedicated RFC partition (activation)."""
        if wcb.warp_offset is not None:
            raise AllocationError(
                f"warp {wcb.warp_id} already holds a partition"
            )
        wcb.warp_offset = self._warp_offsets.allocate()

    def release_partition(self, wcb: WarpControlBlock) -> None:
        """Reclaim the warp's partition (deactivation, Section 4.2)."""
        if wcb.warp_offset is None:
            raise AllocationError(f"warp {wcb.warp_id} holds no partition")
        self._warp_offsets.release(wcb.warp_offset)
        wcb.reset_partition()

    def check_capacity(self, wcb: WarpControlBlock, count: int) -> None:
        """Raise :class:`AllocationError` unless the warp holds a
        partition and ``count`` registers fit in it."""
        if wcb.warp_offset is None:
            raise AllocationError(f"warp {wcb.warp_id} holds no partition")
        capacity = self.config.regs_per_interval
        if count > capacity:
            raise AllocationError(
                f"RFC partition of warp {wcb.warp_id} exhausted "
                f"({capacity} slots)"
            )

    # -- bulk contents (the PREFETCH/activation path) ----------------------

    def evict_registers(self, wcb: WarpControlBlock, registers) -> None:
        """Drop a register group from the warp's partition."""
        wcb.valid.difference_update(registers)
        wcb.dirty.difference_update(registers)

    def fill_registers(self, wcb: WarpControlBlock, registers) -> None:
        """Install clean copies fetched from the MRF (bulk transfer).

        Fills are not polled into place: the bulk transfer that carries
        them (:meth:`repro.arch.main_register_file.MainRegisterFile.bulk_read`)
        returns its completion cycle, which the SM registers as the
        warp's prefetch-arrival wake-up event.
        """
        count = len(registers)
        if not count:
            return
        self.stats.fills += count
        wcb.valid.update(registers)
        wcb.dirty.difference_update(registers)

    def note_writeback(self, count: int = 1) -> None:
        self.stats.writebacks += count
