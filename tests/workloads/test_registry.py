"""Tests for the pluggable workload registry."""

import pytest

from repro.ir import kernel_fingerprint
from repro.workloads import (
    SUITE,
    UnknownWorkloadError,
    WorkloadRegistry,
    WorkloadSpec,
    default_registry,
    get_kernel,
    workload_category,
    workload_fingerprint,
    workload_names,
)
from repro.workloads.registry import KernelBuildStats, SpecProvider
from repro.workloads.scenarios import BUILTIN_FAMILIES


class TestDefaultRegistry:
    def test_suite_is_registered(self):
        registry = default_registry()
        assert set(workload_names()) <= set(registry.names())
        assert len(registry.names()) == 35

    def test_builtin_families_registered(self):
        prefixes = {f.prefix for f in default_registry().families()}
        assert {"divergence", "stream", "regpressure", "depchain"} <= prefixes

    def test_get_kernel_memoises(self):
        assert get_kernel("btree") is get_kernel("btree")
        assert get_kernel("regpressure-64") is get_kernel("regpressure-64")

    def test_category_without_building(self):
        registry = default_registry()
        assert registry.category("lbm") == "register-sensitive"
        assert registry.category("bfs") == "register-insensitive"
        assert workload_category("regpressure-128") == "register-sensitive"
        assert workload_category("regpressure-24") == "register-insensitive"

    def test_fingerprint_matches_kernel(self):
        assert workload_fingerprint("btree") == kernel_fingerprint(
            get_kernel("btree")
        )

    def test_suite_specs_reachable_via_provider(self):
        provider = default_registry().provider("backprop")
        assert isinstance(provider, SpecProvider)
        assert provider.spec is SUITE["backprop"]


class TestResolution:
    def test_unknown_name_suggests_nearest(self):
        with pytest.raises(UnknownWorkloadError) as excinfo:
            default_registry().provider("backprp")
        assert "backprop" in excinfo.value.suggestions
        assert "did you mean" in str(excinfo.value)

    def test_bare_family_prefix_suggests_instances(self):
        with pytest.raises(UnknownWorkloadError) as excinfo:
            default_registry().provider("regpressure")
        assert any(
            suggestion.startswith("regpressure-")
            for suggestion in excinfo.value.suggestions
        )

    def test_out_of_range_family_parameter(self):
        with pytest.raises(ValueError, match=r"outside \[16, 250\]"):
            default_registry().provider("regpressure-9999")

    def test_family_instances_resolve_lazily(self):
        provider = default_registry().provider("stream-12")
        assert provider.source == "family:stream"
        kernel = provider.build()
        assert kernel.name == "stream-12"

    def test_unknown_family_lookup(self):
        with pytest.raises(UnknownWorkloadError):
            default_registry().family("divergance")


class TestCustomRegistry:
    def test_register_spec_and_build(self):
        registry = WorkloadRegistry()
        spec = WorkloadSpec("custom", "register-sensitive", 48, 32, seed=7)
        registry.register_spec(spec)
        assert registry.names() == ["custom"]
        kernel = registry.get_kernel("custom")
        assert kernel.name == "custom"
        assert registry.category("custom") == "register-sensitive"

    def test_replace_family_invalidates_memoised_instances(self):
        """A replaced family must not serve stale kernels/fingerprints
        (the runner keys its result cache on the fingerprint)."""
        from repro.workloads import build_kernel
        from repro.workloads.scenarios import ScenarioFamily

        def family_with(extra_registers):
            return ScenarioFamily(
                "fam", "test", "N; 1..9", 1, 9,
                lambda p, s: build_kernel(WorkloadSpec(
                    f"fam-{p}", "register-sensitive",
                    32 + p + extra_registers, 32, seed=s,
                )),
                lambda p: "register-sensitive", ("fam-2",),
            )

        registry = WorkloadRegistry()
        registry.register_family(family_with(0))
        before = registry.fingerprint("fam-2")
        registry.register_family(family_with(8), replace=True)
        assert registry.fingerprint("fam-2") != before

    def test_fresh_registry_matches_default_fingerprints(self):
        """Resolution is pure in the name: another registry (a worker
        process) builds byte-identical kernels."""
        registry = WorkloadRegistry()
        for family in BUILTIN_FAMILIES:
            registry.register_family(family)
        registry.register_spec(SUITE["btree"])
        for name in ("btree", "divergence-30", "depchain-64"):
            assert registry.fingerprint(name) == workload_fingerprint(name)


class TestBuildStats:
    def test_claim_reports_each_build_once(self):
        stats = KernelBuildStats()
        stats.note_build("a", 0.5)
        stats.note_build("a", 0.25)
        stats.note_build("b", 1.0)
        assert stats.claim(["a", "a", "never-built"]) == (2, 0.75)
        assert stats.claim(["a"]) == (0, 0.0)
        assert stats.claim(["b"]) == (1, 1.0)
