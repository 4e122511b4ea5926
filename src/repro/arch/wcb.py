"""Warp Control Block (paper Figure 7) and its storage accounting.

One WCB per warp holds the metadata the LTRF hardware needs:

* the **register cache address table**: architectural register id ->
  RFC bank slot (a 4-bit bank number plus a valid bit in the paper);
* the **working-set bit-vector**: which registers the current prefetch
  subgraph may touch, with a valid bit per register ("has it already
  been prefetched?");
* the **liveness bit-vector** (LTRF+): which registers currently hold
  live values, updated by writes (live) and dead-operand bits (dead).

The model keeps the table's valid bits (``valid``) but not its bank
numbers: no slot number ever reached timing, so an RFC partition is
modelled by its capacity alone (:mod:`repro.arch.rf_cache`).

``wcb_storage_bits`` reproduces the Section 4.3 storage-cost estimate,
address table included: ``warps x (regs x 5 + 3 + regs + regs)`` bits
-- 114,880 bits for 64 warps with 256 registers, about 5% of a 256KB
register file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Optional, Set

from repro.ir.registers import MAX_ARCH_REGS


@dataclass
class WarpControlBlock:
    """Per-warp LTRF metadata."""

    warp_id: int
    #: Registers named by the current region's PREFETCH bit-vector.
    working_set: FrozenSet[int] = frozenset()
    #: Registers present (valid) in the warp's RFC partition right now:
    #: the only record of what the partition holds.
    valid: Set[int] = field(default_factory=set)
    #: Registers whose RFC copy is newer than the MRF copy.
    dirty: Set[int] = field(default_factory=set)
    #: LTRF+ liveness bit-vector; starts all-dead (Section 3.2).
    live: Set[int] = field(default_factory=set)
    #: Warp-offset address inside the RFC banks (None when inactive).
    warp_offset: Optional[int] = None

    def reset_partition(self) -> None:
        """Drop all cache-resident state (warp lost its RFC partition)."""
        self.valid.clear()
        self.dirty.clear()
        self.warp_offset = None


def wcb_storage_bits(
    warps: int = 64, registers: int = MAX_ARCH_REGS, active_warps: int = 8
) -> int:
    """Total WCB storage per SM, following Section 4.3.

    Per warp: ``registers`` address-table entries of
    ``ceil(log2(rfc_banks)) + 1``-ish bits -- the paper uses 5 bits (4-bit
    bank number + valid), one 3-bit warp-offset (``log2(active_warps)``),
    and two ``registers``-bit vectors (working set, liveness).
    """
    offset_bits = max(1, (active_warps - 1).bit_length())
    per_warp = registers * 5 + offset_bits + registers + registers
    return warps * per_warp
