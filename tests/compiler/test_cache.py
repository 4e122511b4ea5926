"""Tests for the process-wide static-artifact cache."""

import pytest

import repro.compiler.cache as cache_module
from repro.arch import GPUConfig
from repro.arch.sm import StreamingMultiprocessor
from repro.compiler.cache import (
    cached_trace_list,
    clear_static_cache,
    compiled_kernel_for,
    liveness_kernel_for,
)
from repro.ir import dumps_kernel, save_kernel
from repro.policies import POLICIES
from repro.workloads import get_kernel
from repro.workloads.registry import WorkloadRegistry

SMALL = GPUConfig(max_resident_warps=8, active_warps=4)


@pytest.fixture(autouse=True)
def fresh_cache():
    """Each test observes (and leaves behind) an empty static cache."""
    clear_static_cache()
    yield
    clear_static_cache()


class TestCompileCacheKeying:
    def test_identical_fingerprint_and_params_hit(self):
        kernel = get_kernel("backprop")
        first = compiled_kernel_for(kernel, max_registers=16)
        second = compiled_kernel_for(kernel, max_registers=16)
        assert second is first
        assert cache_module.STATS.compile_cache_misses == 1
        assert cache_module.STATS.compile_cache_hits == 1
        assert cache_module.STATS.compile_seconds > 0.0

    def test_equal_content_distinct_objects_hit(self):
        """The key is the content fingerprint, not object identity."""
        kernel = get_kernel("backprop")
        clone = kernel.clone()
        first = compiled_kernel_for(kernel, max_registers=16)
        assert compiled_kernel_for(clone, max_registers=16) is first

    def test_differing_compile_params_miss(self):
        kernel = get_kernel("backprop")
        base = compiled_kernel_for(kernel, max_registers=16)
        assert compiled_kernel_for(kernel, max_registers=32) is not base
        assert compiled_kernel_for(kernel, region_kind="strand") is not base
        assert compiled_kernel_for(kernel, run_pass2=False) is not base
        assert cache_module.STATS.compile_cache_misses == 4

    def test_rewritten_kernel_file_misses(self, tmp_path):
        """A rewritten .kernel.json flows through the registry's stat
        signature into a new fingerprint, so it never matches the old
        entry."""
        path = tmp_path / "k.kernel.json"
        registry = WorkloadRegistry()
        save_kernel(get_kernel("btree"), str(path))
        first = compiled_kernel_for(registry.get_kernel(str(path)))
        # Rewrite with different content (a different kernel).
        save_kernel(get_kernel("kmeans"), str(path))
        second = compiled_kernel_for(registry.get_kernel(str(path)))
        assert second is not first
        assert second.kernel.name != first.kernel.name
        assert cache_module.STATS.compile_cache_misses == 2

    def test_liveness_kernel_memoised_by_content(self):
        kernel = get_kernel("btree")
        first = liveness_kernel_for(kernel)
        assert liveness_kernel_for(kernel.clone()) is first
        assert first is not kernel


class TestRebuild:
    def test_rebuilt_latency_row_matches_cached_row(self):
        """Emptying the memos between points changes how much static
        work a sweep row repeats, never its results."""
        kernel = get_kernel("backprop")
        row = [SMALL.scaled(mrf_latency_multiple=multiple)
               for multiple in (1.0, 2.0, 4.0)]
        cached = [StreamingMultiprocessor(config, POLICIES["LTRF"]).run(kernel)
                  for config in row]
        assert cache_module.STATS.compile_cache_hits == len(row) - 1
        rebuilt = []
        for config in row:
            clear_static_cache()
            rebuilt.append(
                StreamingMultiprocessor(config, POLICIES["LTRF"]).run(kernel))
            assert cache_module.STATS.compile_cache_misses == 1
            assert cache_module.STATS.compile_cache_hits == 0
        assert rebuilt == cached

    def test_memoisation_has_no_off_switch(self, monkeypatch):
        """The environment cannot turn the memos off."""
        monkeypatch.setenv("LTRF_COMPILE_CACHE", "0")
        kernel = get_kernel("btree")
        assert compiled_kernel_for(kernel) is compiled_kernel_for(kernel)
        assert liveness_kernel_for(kernel) is liveness_kernel_for(kernel)
        assert cached_trace_list(kernel, 0, 0) is cached_trace_list(
            kernel, 0, 0)
        assert (cache_module.STATS.compile_cache_misses,
                cache_module.STATS.compile_cache_hits) == (2, 2)


class TestTraceMemo:
    def test_same_kernel_warp_seed_shares_trace(self):
        kernel = get_kernel("btree")
        assert cached_trace_list(kernel, 0, 0) is cached_trace_list(
            kernel, 0, 0
        )

    def test_distinct_warp_or_seed_distinct_trace(self):
        kernel = get_kernel("btree")
        base = cached_trace_list(kernel, 0, 0)
        assert cached_trace_list(kernel, 1, 0) is not base
        assert cached_trace_list(kernel, 0, 1) is not base

    def test_matches_uncached_generation(self):
        kernel = get_kernel("btree")
        cached = cached_trace_list(kernel, 3, 7)
        fresh = kernel.trace_list(warp_id=3, seed=7)
        assert len(cached) == len(fresh)
        for lhs, rhs in zip(cached, fresh):
            assert lhs.instruction is rhs.instruction
            assert (lhs.block, lhs.index, lhs.address, lhs.taken) == (
                rhs.block, rhs.index, rhs.address, rhs.taken
            )


class TestArtifactImmutability:
    """Simulation must never mutate a shared cached artifact."""

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_simulation_leaves_artifacts_byte_identical(self, policy):
        kernel = get_kernel("backprop")
        sm = StreamingMultiprocessor(SMALL, POLICIES[policy])
        executable = sm.policy.executable_kernel(kernel)
        before = dumps_kernel(executable)
        source_before = dumps_kernel(kernel)
        sm.run(kernel)
        assert dumps_kernel(executable) == before
        assert dumps_kernel(kernel) == source_before

    def test_cached_artifact_reused_across_runs_same_results(self):
        kernel = get_kernel("backprop")
        first = StreamingMultiprocessor(SMALL, POLICIES["LTRF"]).run(kernel)
        assert cache_module.STATS.compile_cache_misses == 1
        second = StreamingMultiprocessor(SMALL, POLICIES["LTRF"]).run(kernel)
        assert cache_module.STATS.compile_cache_hits >= 1
        assert first == second
