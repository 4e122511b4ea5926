"""Tests for the workload generator and the suites."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import (
    EVALUATION,
    EVALUATION_INSENSITIVE,
    EVALUATION_SENSITIVE,
    SUITE,
    WorkloadSpec,
    build_kernel,
    get_kernel,
    workload_names,
)


class TestSpecValidation:
    def test_rejects_extreme_registers(self):
        with pytest.raises(ValueError):
            WorkloadSpec("x", "register-sensitive", 8, 8)
        with pytest.raises(ValueError):
            WorkloadSpec("x", "register-sensitive", 255, 64)

    def test_rejects_fermi_over_cap(self):
        with pytest.raises(ValueError):
            WorkloadSpec("x", "register-sensitive", 100, 80)

    def test_rejects_bad_cold_fraction(self):
        with pytest.raises(ValueError):
            WorkloadSpec("x", "register-sensitive", 64, 40,
                         cold_fraction=1.5)


class TestSuite:
    def test_35_workloads(self):
        assert len(SUITE) == 35

    def test_evaluation_split(self):
        assert len(EVALUATION) == 14
        assert len(EVALUATION_SENSITIVE) == 9
        assert len(EVALUATION_INSENSITIVE) == 5
        for name in EVALUATION_SENSITIVE:
            assert SUITE[name].category == "register-sensitive"
        for name in EVALUATION_INSENSITIVE:
            assert SUITE[name].category == "register-insensitive"

    def test_kernels_are_memoised(self):
        assert get_kernel("btree") is get_kernel("btree")

    def test_all_kernels_build_and_validate(self):
        for name in workload_names():
            get_kernel(name).cfg.validate()

    def test_register_demand_matches_spec(self):
        """Generated kernels use (close to) the specified registers."""
        for name in workload_names():
            spec = SUITE[name]
            kernel = get_kernel(name)
            assert abs(kernel.register_count - spec.registers) <= 2

    def test_trace_lengths_are_bounded(self):
        for name in EVALUATION:
            length = get_kernel(name).dynamic_instruction_count()
            assert 300 <= length <= 2500

    def test_insensitive_fit_max_warps(self):
        from repro.arch import GPUConfig
        config = GPUConfig(mrf_size_kb=256)
        for name in EVALUATION_INSENSITIVE:
            kernel = get_kernel(name)
            assert config.resident_warps_for(kernel.register_count) == 64

    def test_sensitive_are_capacity_limited(self):
        from repro.arch import GPUConfig
        config = GPUConfig(mrf_size_kb=256)
        for name in EVALUATION_SENSITIVE:
            kernel = get_kernel(name)
            assert config.resident_warps_for(kernel.register_count) < 64


class TestGeneratorProperties:
    @given(
        registers=st.integers(min_value=16, max_value=200),
        segments=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_generated_kernels_are_wellformed(self, registers, segments, seed):
        spec = WorkloadSpec(
            "prop", "register-sensitive", registers,
            min(64, registers), segments=segments, seed=seed,
        )
        kernel = build_kernel(spec)
        kernel.cfg.validate()
        assert kernel.register_count <= registers
        trace = kernel.trace_list()
        assert trace[-1].instruction.opcode.value == "exit"

    @given(seed=st.integers(min_value=0, max_value=100))
    @settings(max_examples=15, deadline=None)
    def test_generation_is_deterministic(self, seed):
        spec = WorkloadSpec("d", "register-sensitive", 64, 40, seed=seed)
        a = [str(i) for _, _, i in build_kernel(spec).static_instructions()]
        b = [str(i) for _, _, i in build_kernel(spec).static_instructions()]
        assert a == b

    @given(
        cold=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=15, deadline=None)
    def test_compilable_under_all_region_formers(self, cold, seed):
        from repro.compiler import compile_kernel
        spec = WorkloadSpec("c", "register-sensitive", 48, 32,
                            cold_fraction=cold, seed=seed)
        kernel = build_kernel(spec)
        for kind in ("register-interval", "strand"):
            compiled = compile_kernel(kernel, region_kind=kind)
            compiled.partition.validate(compiled.kernel.cfg)
