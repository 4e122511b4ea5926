"""Tests for GPU configuration and derived quantities."""

import pytest

from repro.arch import GPUConfig, MemoryConfig, WARP_REGISTER_BYTES


class TestValidation:
    def test_default_is_valid(self):
        GPUConfig()

    def test_rejects_zero_active_warps(self):
        with pytest.raises(ValueError):
            GPUConfig(active_warps=0)

    def test_rejects_active_exceeding_resident(self):
        with pytest.raises(ValueError):
            GPUConfig(max_resident_warps=4, active_warps=8)

    def test_rejects_sub_baseline_latency(self):
        """NaN and infinity fail here too, not at first use in the MRF."""
        for multiple in (0.5, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="mrf_latency_multiple"):
                GPUConfig(mrf_latency_multiple=multiple)
            with pytest.raises(ValueError, match="mrf_latency_multiple"):
                GPUConfig().with_latency_multiple(multiple)

    def test_rejects_tiny_interval(self):
        with pytest.raises(ValueError):
            GPUConfig(regs_per_interval=2)

    def test_memory_geometry_validated(self):
        with pytest.raises(ValueError):
            MemoryConfig(l1_size_bytes=1000)   # not divisible into sets

    # .arch.json files make every field arbitrary user input; the
    # degenerate values below must fail at construction with a message
    # naming the field, not hang or divide by zero mid-simulation.

    def test_rejects_bankless_mrf(self):
        with pytest.raises(ValueError, match="mrf_banks"):
            GPUConfig(mrf_banks=0)

    def test_rejects_bankless_rfc(self):
        with pytest.raises(ValueError, match="rfc_banks"):
            GPUConfig(rfc_banks=0)

    def test_rejects_zero_issue_width(self):
        with pytest.raises(ValueError, match="issue_width"):
            GPUConfig(issue_width=0)

    def test_rejects_empty_mrf(self):
        with pytest.raises(ValueError, match="mrf_size_kb"):
            GPUConfig(mrf_size_kb=0)

    def test_rejects_non_positive_latencies(self):
        with pytest.raises(ValueError, match="mrf_base_bank_latency"):
            GPUConfig(mrf_base_bank_latency=0)
        with pytest.raises(ValueError, match="mrf_crossbar_latency"):
            GPUConfig(mrf_crossbar_latency=0)
        with pytest.raises(ValueError, match="rfc_latency"):
            GPUConfig(rfc_latency=-1)

    def test_rejects_degenerate_crossbar_factor(self):
        with pytest.raises(ValueError, match="narrow_crossbar_factor"):
            GPUConfig(narrow_crossbar_factor=0)

    def test_rejects_negative_wcb_penalty(self):
        with pytest.raises(ValueError, match="wcb_extra_operand_penalty"):
            GPUConfig(wcb_extra_operand_penalty=-1)

    def test_memory_rejects_non_positive_latencies(self):
        with pytest.raises(ValueError, match="dram_latency"):
            MemoryConfig(dram_latency=0)
        with pytest.raises(ValueError, match="l1_latency"):
            MemoryConfig(l1_latency=-3)
        with pytest.raises(ValueError, match="dram_service_interval"):
            MemoryConfig(dram_service_interval=0)

    def test_memory_rejects_degenerate_geometry(self):
        with pytest.raises(ValueError, match="l1_ways"):
            MemoryConfig(l1_ways=0)
        with pytest.raises(ValueError, match="line_bytes"):
            MemoryConfig(line_bytes=0)


class TestDerivedQuantities:
    def test_mrf_warp_registers(self):
        config = GPUConfig(mrf_size_kb=256)
        assert config.mrf_warp_registers == 256 * 1024 // WARP_REGISTER_BYTES

    def test_rfc_size_matches_paper(self):
        """Table 3: 16KB RFC = 8 active warps x 16 registers x 128B."""
        assert GPUConfig().rfc_size_kb == 16.0

    def test_bank_latency_scales(self):
        base = GPUConfig()
        slow = GPUConfig(mrf_latency_multiple=6.3)
        assert slow.mrf_bank_latency > base.mrf_bank_latency
        assert slow.mrf_bank_latency == round(
            base.mrf_base_bank_latency * 6.3
        )

    def test_baseline_banks_are_pipelined(self):
        assert GPUConfig().mrf_bank_occupancy == 1

    def test_slow_banks_are_occupied(self):
        slow = GPUConfig(mrf_latency_multiple=6.3)
        assert slow.mrf_bank_occupancy > 5
        assert slow.mrf_bank_occupancy < slow.mrf_bank_latency

    def test_narrow_crossbar_latency(self):
        wide = GPUConfig()
        narrow = GPUConfig(narrow_crossbar=True)
        assert narrow.mrf_transfer_latency == 4 * wide.mrf_transfer_latency
        assert narrow.crossbar_regs_per_cycle < wide.crossbar_regs_per_cycle


class TestResidentWarps:
    def test_capacity_limits_warps(self):
        config = GPUConfig(mrf_size_kb=256, max_resident_warps=64)
        # 2048 warp-registers / 96 per warp = 21 warps.
        assert config.resident_warps_for(96) == 21

    def test_small_kernels_hit_warp_cap(self):
        config = GPUConfig(mrf_size_kb=256, max_resident_warps=64)
        assert config.resident_warps_for(16) == 64

    def test_capacity_scale_restores_tlp(self):
        small = GPUConfig(mrf_size_kb=256)
        big = small.scaled(mrf_size_kb=8 * small.mrf_size_kb)
        assert big.resident_warps_for(96) == 64
        assert small.resident_warps_for(96) < 64

    def test_zero_demand_gets_max(self):
        assert GPUConfig().resident_warps_for(0) == 64

    def test_at_least_one_warp(self):
        assert GPUConfig(mrf_size_kb=256).resident_warps_for(250) >= 1


class TestScaling:
    def test_with_latency_multiple(self):
        assert GPUConfig().with_latency_multiple(5.3).mrf_latency_multiple == 5.3

    def test_scaled_replaces_fields(self):
        config = GPUConfig().scaled(active_warps=4)
        assert config.active_warps == 4
