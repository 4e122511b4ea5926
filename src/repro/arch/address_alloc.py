"""Address Allocation Unit (paper Figure 8).

In the paper one such unit per RFC partition hands each cached register
a bank slot, and one at the SM level hands each active warp its warp
offset.  Only the warp-offset unit is modelled: a register's bank slot
never reached timing (every RFC access costs one cycle, whichever bank
it hits), so a partition is modelled by its capacity alone (see
:mod:`repro.arch.rf_cache`).

Two queues: *unused* holds free slot ids, *occupied* holds allocated
ones.  Allocation dequeues the head of the unused queue; deallocation
returns the slot.  The structure is trivially a free list, but we keep
the paper's two-queue framing and its invariants (fixed capacity, no
double allocation/free) explicit.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Set


class AllocationError(RuntimeError):
    """Raised on over-allocation or double free."""


class AddressAllocationUnit:
    """Fixed pool of slot ids handed out in FIFO order."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._unused: Deque[int] = deque(range(capacity))
        self._occupied: Set[int] = set()

    def allocate(self) -> int:
        """Take the head of the unused queue; raise when exhausted."""
        if not self._unused:
            raise AllocationError(
                f"allocation unit exhausted ({self.capacity} slots)"
            )
        slot = self._unused.popleft()
        self._occupied.add(slot)
        return slot

    def release(self, slot: int) -> None:
        """Return ``slot`` to the unused queue; reject double frees."""
        if slot not in self._occupied:
            raise AllocationError(f"slot {slot} is not allocated")
        self._occupied.discard(slot)
        self._unused.append(slot)
