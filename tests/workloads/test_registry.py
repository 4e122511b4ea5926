"""Tests for the pluggable workload registry."""

import os

import pytest

from repro.ir import kernel_fingerprint, save_kernel
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
from repro.workloads.registry import (
    FileProvider,
    KernelBuildStats,
    SpecProvider,
)
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

    def test_rewritten_kernel_file_is_reloaded(self, tmp_path):
        """A replaced .kernel.json must not serve the old content."""
        registry = WorkloadRegistry()
        path = str(tmp_path / "w.kernel.json")
        save_kernel(get_kernel("btree"), path)
        assert registry.fingerprint(path) == workload_fingerprint("btree")
        os.utime(path, ns=(1, 1))   # force a distinct stat signature
        save_kernel(get_kernel("kmeans"), path)
        assert registry.fingerprint(path) == workload_fingerprint("kmeans")
        assert registry.get_kernel(path).name == "kmeans"

    def test_kernel_file_paths_resolve(self, tmp_path):
        path = str(tmp_path / "exported.kernel.json")
        save_kernel(get_kernel("btree"), path)
        provider = default_registry().provider(path)
        assert isinstance(provider, FileProvider)
        kernel = default_registry().get_kernel(path)
        assert kernel_fingerprint(kernel) == workload_fingerprint("btree")

    def test_unstattable_file_is_not_memoised(self, tmp_path, monkeypatch):
        """If the stat signature cannot be captured, the kernel must
        not be pinned forever (rewrites would go undetected)."""
        path = str(tmp_path / "w.kernel.json")
        save_kernel(get_kernel("btree"), path)
        registry = WorkloadRegistry()
        monkeypatch.setattr(
            WorkloadRegistry, "_file_signature",
            staticmethod(lambda p: None),
        )
        first = registry.get_kernel(path)
        second = registry.get_kernel(path)
        assert first is not second           # rebuilt, not memoised
        assert kernel_fingerprint(first) == kernel_fingerprint(second)
        # The fingerprint must not outlive content we cannot watch.
        registry.fingerprint(path)
        assert path not in registry._fingerprints

    def test_any_json_suffix_resolves_as_file(self, tmp_path):
        path = str(tmp_path / "plain.json")
        save_kernel(get_kernel("btree"), path)
        assert isinstance(default_registry().provider(path), FileProvider)

    def test_unknown_workload_error_pickles(self):
        """Pool workers must be able to send this error back to the
        parent (a non-picklable exception breaks the whole executor)."""
        import pickle
        original = UnknownWorkloadError("x", ["y"], ["y", "z"])
        clone = pickle.loads(pickle.dumps(original))
        assert clone.name == "x"
        assert clone.suggestions == ["y"]
        assert str(clone) == str(original)

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

    def test_duplicate_registration_rejected(self):
        registry = WorkloadRegistry()
        spec = WorkloadSpec("dup", "register-sensitive", 48, 32)
        registry.register_spec(spec)
        with pytest.raises(ValueError, match="already registered"):
            registry.register_spec(spec)
        registry.register_spec(spec, replace=True)   # explicit wins

    def test_replace_invalidates_memoised_kernel(self):
        registry = WorkloadRegistry()
        registry.register_spec(
            WorkloadSpec("w", "register-sensitive", 48, 32, seed=1)
        )
        before = registry.fingerprint("w")
        registry.register_spec(
            WorkloadSpec("w", "register-sensitive", 96, 34, seed=1),
            replace=True,
        )
        after = registry.fingerprint("w")
        assert before != after

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

    def test_register_file(self, tmp_path):
        path = str(tmp_path / "k.kernel.json")
        save_kernel(get_kernel("bfs"), path)
        registry = WorkloadRegistry()
        registry.register_file(path, name="from-disk")
        kernel = registry.get_kernel("from-disk")
        assert kernel_fingerprint(kernel) == workload_fingerprint("bfs")

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
