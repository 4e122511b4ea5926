"""Integration tests for the SM simulator across policies."""

import pytest

from repro.arch import GPUConfig, StreamingMultiprocessor
from repro.ir import KernelBuilder
from repro.policies import POLICIES, policy_by_name
from repro.workloads import get_kernel


def compute_kernel(iterations=10):
    return (
        KernelBuilder("compute")
        .block("entry").alu(0, 1).alu(2, 0)
        .block("loop")
        .fma(3, 0, 2, 3)
        .fma(4, 3, 0, 4)
        .branch("loop", trip_count=iterations)
        .block("end").exit()
        .build()
    )


def memory_kernel(iterations=10):
    return (
        KernelBuilder("memory")
        .block("entry").alu(0, 1)
        .block("loop")
        .load(2, stream=0, footprint=1 << 22)
        .fma(3, 2, 0, 3)
        .branch("loop", trip_count=iterations)
        .block("end")
        .store(3, stream=1, footprint=1 << 20)
        .exit()
        .build()
    )


def small_config(**overrides):
    defaults = dict(max_resident_warps=8, active_warps=4)
    defaults.update(overrides)
    return GPUConfig(**defaults)


class TestBasicExecution:
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_all_policies_complete(self, policy):
        sm = StreamingMultiprocessor(small_config(), POLICIES[policy])
        result = sm.run(compute_kernel())
        assert result.cycles > 0
        assert result.ipc > 0

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_instruction_counts_match_traces(self, policy):
        kernel = compute_kernel()
        config = small_config()
        sm = StreamingMultiprocessor(config, POLICIES[policy])
        result = sm.run(kernel)
        warps = config.resident_warps_for(kernel.register_count)
        expected = kernel.dynamic_instruction_count() * warps
        assert result.instructions == expected

    def test_prefetches_not_counted_as_instructions(self):
        kernel = compute_kernel()
        config = small_config()
        bl = StreamingMultiprocessor(config, POLICIES["BL"]).run(kernel)
        ltrf = StreamingMultiprocessor(config, POLICIES["LTRF"]).run(kernel)
        assert bl.instructions == ltrf.instructions
        assert ltrf.prefetch_operations > 0

    def test_deterministic(self):
        kernel = memory_kernel()
        a = StreamingMultiprocessor(small_config(), POLICIES["LTRF"]).run(kernel)
        b = StreamingMultiprocessor(small_config(), POLICIES["LTRF"]).run(kernel)
        assert a.cycles == b.cycles
        assert a.mrf_reads == b.mrf_reads


class TestScheduling:
    def test_memory_kernel_deactivates_warps(self):
        sm = StreamingMultiprocessor(small_config(), POLICIES["BL"])
        result = sm.run(memory_kernel())
        assert result.deactivations > 0
        assert result.activations >= result.deactivations

    def test_compute_kernel_never_deactivates(self):
        sm = StreamingMultiprocessor(small_config(), POLICIES["BL"])
        result = sm.run(compute_kernel())
        assert result.deactivations == 0

    def test_resident_warps_respect_capacity(self):
        kernel = compute_kernel()
        config = small_config(mrf_size_kb=2)   # 16 warp-registers
        sm = StreamingMultiprocessor(config, POLICIES["BL"])
        result = sm.run(kernel)
        assert result.resident_warps < 8

    def test_explicit_resident_override(self):
        sm = StreamingMultiprocessor(small_config(), POLICIES["BL"])
        result = sm.run(compute_kernel(), resident_warps=2)
        assert result.resident_warps == 2

    def test_run_prepares_its_own_executable(self):
        """The policy builds the executable form on every run; a caller
        cannot hand one in."""
        sm = StreamingMultiprocessor(small_config(), POLICIES["LTRF"])
        kernel = compute_kernel()
        with pytest.raises(TypeError, match="executable"):
            sm.run(kernel, executable=sm.policy.executable_kernel(kernel))

    def test_all_warps_finish(self):
        kernel = memory_kernel()
        config = small_config()
        sm = StreamingMultiprocessor(config, POLICIES["LTRF+"])
        executable = sm.policy.executable_kernel(kernel)
        from repro.arch.warp import Warp
        warps = [Warp(w, executable.trace_list(warp_id=w)) for w in range(4)]
        sm.policy.prepare(4)
        sm._simulate_event(warps)
        assert all(w.position == w.trace_len for w in warps)

    @pytest.mark.parametrize("policy", ["BL", "LTRF"])
    def test_second_run_raises(self, policy):
        """The MRF calendars, caches, DRAM queue, policy state and
        activation counters all keep the first run's state, so a second
        run would report a wrong result instead of a fresh one."""
        config = small_config()
        kernel = get_kernel("btree")
        sm = StreamingMultiprocessor(config, POLICIES[policy])
        first = sm.run(kernel)
        with pytest.raises(RuntimeError, match="build one per run"):
            sm.run(kernel)
        assert StreamingMultiprocessor(
            config, POLICIES[policy]).run(kernel) == first


class TestLatencyEffects:
    def test_slow_mrf_hurts_baseline(self):
        kernel = compute_kernel(iterations=20)
        fast = StreamingMultiprocessor(
            small_config(), POLICIES["BL"]).run(kernel)
        slow = StreamingMultiprocessor(
            small_config(mrf_latency_multiple=6.3), POLICIES["BL"]).run(kernel)
        assert slow.ipc < fast.ipc

    def test_ltrf_tolerates_slow_mrf_better_than_bl(self):
        kernel = compute_kernel(iterations=20)
        config = small_config(mrf_latency_multiple=6.3)
        bl = StreamingMultiprocessor(config, POLICIES["BL"]).run(kernel)
        ltrf = StreamingMultiprocessor(config, POLICIES["LTRF"]).run(kernel)
        assert ltrf.ipc > bl.ipc

    def test_ideal_ignores_latency_multiple(self):
        kernel = compute_kernel(iterations=20)
        fast = StreamingMultiprocessor(
            small_config(), POLICIES["Ideal"]).run(kernel)
        slow = StreamingMultiprocessor(
            small_config(mrf_latency_multiple=6.3), POLICIES["Ideal"]).run(kernel)
        assert slow.cycles == fast.cycles

    def test_ltrf_reduces_mrf_traffic(self):
        kernel = compute_kernel(iterations=20)
        config = small_config()
        bl = StreamingMultiprocessor(config, POLICIES["BL"]).run(kernel)
        ltrf = StreamingMultiprocessor(config, POLICIES["LTRF"]).run(kernel)
        assert ltrf.mrf_accesses < bl.mrf_accesses


class TestPolicyInvariants:
    def test_ltrf_always_hits(self):
        sm = StreamingMultiprocessor(small_config(), POLICIES["LTRF"])
        result = sm.run(memory_kernel())
        assert result.rfc_read_misses == 0
        assert result.rfc_hit_rate == 1.0

    def test_rfc_misses_exist(self):
        sm = StreamingMultiprocessor(small_config(), POLICIES["RFC"])
        result = sm.run(memory_kernel())
        assert result.rfc_read_misses > 0

    def test_ltrf_plus_moves_fewer_registers(self):
        kernel = memory_kernel(iterations=20)
        config = small_config()
        ltrf = StreamingMultiprocessor(config, POLICIES["LTRF"]).run(kernel)
        plus = StreamingMultiprocessor(config, POLICIES["LTRF+"]).run(kernel)
        assert (
            plus.extra["prefetch_registers_moved"]
            <= ltrf.extra["prefetch_registers_moved"]
        )

    def test_policy_by_name_roundtrip(self):
        for name in POLICIES:
            assert policy_by_name(name).name == name

    def test_policy_by_name_unknown(self):
        with pytest.raises(ValueError):
            policy_by_name("L2-prefetch")


def shared_memory_kernel(iterations=10):
    return (
        KernelBuilder("shared")
        .block("entry").alu(0, 1)
        .block("loop")
        .load(2, stream=0, footprint=16 * 1024, shared=True)
        .fma(3, 2, 0, 3)
        .branch("loop", trip_count=iterations)
        .block("end")
        .store(3, stream=1, footprint=16 * 1024, shared=True)
        .exit()
        .build()
    )


class TestSharedMemory:
    """Shared-memory LD/ST are scratchpad accesses: fixed latency,
    outside the L1/LLC hierarchy (the collapsed branch in SM._issue)."""

    def test_shared_ops_bypass_cache_hierarchy(self):
        sm = StreamingMultiprocessor(small_config(), POLICIES["BL"])
        result = sm.run(shared_memory_kernel())
        assert sm.memory.stats.l1_accesses == 0
        assert result.l1_hit_rate == 0.0

    def test_shared_ops_never_deactivate(self):
        sm = StreamingMultiprocessor(small_config(), POLICIES["BL"])
        result = sm.run(shared_memory_kernel())
        assert result.deactivations == 0

    def test_shared_load_pays_fixed_latency(self):
        # A dependent chain through a shared load must cost more cycles
        # than the same chain through a 1-cycle ALU op.
        def chain(shared):
            builder = KernelBuilder("chain").block("entry").alu(0, 1)
            builder = builder.block("loop")
            if shared:
                builder = builder.load(
                    2, stream=0, footprint=16 * 1024, shared=True
                )
            else:
                builder = builder.alu(2, 0)
            kernel = (
                builder.fma(3, 2, 0, 3)
                .branch("loop", trip_count=20)
                .block("end").exit()
                .build()
            )
            sm = StreamingMultiprocessor(small_config(), POLICIES["BL"])
            return sm.run(kernel, resident_warps=1)

        assert chain(shared=True).cycles > chain(shared=False).cycles
