"""Tests for the RFC partitions, address allocation, and the WCB."""

import pytest

from repro.arch import (
    AddressAllocationUnit,
    AllocationError,
    GPUConfig,
    RegisterFileCache,
    WarpControlBlock,
    wcb_storage_bits,
)


class TestAddressAllocationUnit:
    def test_allocates_in_fifo_order(self):
        unit = AddressAllocationUnit(4)
        assert [unit.allocate() for _ in range(4)] == [0, 1, 2, 3]

    def test_exhaustion_raises(self):
        unit = AddressAllocationUnit(2)
        unit.allocate()
        unit.allocate()
        with pytest.raises(AllocationError):
            unit.allocate()

    def test_release_recycles(self):
        unit = AddressAllocationUnit(2)
        slot = unit.allocate()
        unit.allocate()
        unit.release(slot)
        assert unit.allocate() == slot

    def test_double_free_rejected(self):
        unit = AddressAllocationUnit(2)
        slot = unit.allocate()
        unit.release(slot)
        with pytest.raises(AllocationError):
            unit.release(slot)

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            AddressAllocationUnit(0)


class TestWarpControlBlock:
    def test_reset_partition_keeps_working_set_and_liveness(self):
        wcb = WarpControlBlock(0)
        wcb.working_set = frozenset({1, 2})
        wcb.live.add(1)
        wcb.valid.add(1)
        wcb.dirty.add(1)
        wcb.warp_offset = 3
        wcb.reset_partition()
        assert wcb.working_set == {1, 2}       # survives deactivation
        assert wcb.live == {1}
        assert not wcb.valid and not wcb.dirty
        assert wcb.warp_offset is None

    def test_storage_bits_matches_paper(self):
        """Section 4.3: 64 warps x 256 regs -> 114,880 bits."""
        assert wcb_storage_bits(64, 256, 8) == 114880


class TestRegisterFileCache:
    def make(self, active_warps=2, regs=4):
        return RegisterFileCache(
            GPUConfig(active_warps=active_warps, regs_per_interval=regs,
                      max_resident_warps=8)
        )

    def test_partition_lifecycle(self):
        cache = self.make()
        wcb = WarpControlBlock(0)
        cache.acquire_partition(wcb)
        assert wcb.warp_offset is not None
        cache.release_partition(wcb)
        assert wcb.warp_offset is None

    def test_double_acquire_rejected(self):
        cache = self.make()
        wcb = WarpControlBlock(0)
        cache.acquire_partition(wcb)
        with pytest.raises(AllocationError):
            cache.acquire_partition(wcb)

    def test_release_without_partition_rejected(self):
        cache = self.make()
        with pytest.raises(AllocationError):
            cache.release_partition(WarpControlBlock(0))

    def test_partition_capacity_is_isolated(self):
        """Two warps each get a full partition: no cross-warp eviction."""
        cache = self.make(active_warps=2, regs=4)
        a, b = WarpControlBlock(0), WarpControlBlock(1)
        cache.acquire_partition(a)
        cache.acquire_partition(b)
        registers = set(range(4))
        for wcb in (a, b):
            cache.check_capacity(wcb, len(registers))
            cache.fill_registers(wcb, registers)
        assert a.valid == b.valid == registers
        for wcb in (a, b):
            with pytest.raises(AllocationError):
                cache.check_capacity(wcb, len(wcb.valid) + 1)

    def test_partition_overflow_raises(self):
        cache = self.make(regs=4)
        wcb = WarpControlBlock(0)
        cache.acquire_partition(wcb)
        cache.check_capacity(wcb, 4)
        with pytest.raises(AllocationError):
            cache.check_capacity(wcb, 5)

    def test_capacity_check_needs_a_partition(self):
        cache = self.make(regs=4)
        with pytest.raises(AllocationError):
            cache.check_capacity(WarpControlBlock(0), 1)

    def test_evict_frees_slot(self):
        cache = self.make(regs=4)
        wcb = WarpControlBlock(0)
        cache.acquire_partition(wcb)
        cache.fill_registers(wcb, {4, 5, 6, 7})
        wcb.dirty.add(7)
        cache.evict_registers(wcb, {7})
        assert 7 not in wcb.valid and 7 not in wcb.dirty
        cache.check_capacity(wcb, len(wcb.valid) + 1)   # room again

    def test_fill_is_clean(self):
        cache = self.make()
        wcb = WarpControlBlock(0)
        cache.acquire_partition(wcb)
        wcb.dirty.add(3)
        cache.fill_registers(wcb, {3})
        assert 3 in wcb.valid and 3 not in wcb.dirty
        assert cache.stats.fills == 1

    def test_active_warp_limit(self):
        cache = self.make(active_warps=2)
        cache.acquire_partition(WarpControlBlock(0))
        cache.acquire_partition(WarpControlBlock(1))
        with pytest.raises(AllocationError):
            cache.acquire_partition(WarpControlBlock(2))
