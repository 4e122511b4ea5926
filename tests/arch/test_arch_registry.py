"""Tests for the named architecture registry."""

import pickle

import pytest

from repro.arch import GPUConfig
from repro.arch.registry import (
    ArchFileProvider,
    ArchProvider,
    ArchRegistry,
    UnknownArchError,
    arch_config,
    default_arch_registry,
    is_arch_file_name,
)
from repro.arch.serialize import arch_fingerprint, save_arch
from repro.experiments.runner import baseline_config, table2_config


class TestBuiltins:
    def test_registry_lists_paper_designs(self):
        names = default_arch_registry().names()
        assert "maxwell-like" in names
        assert "tfet-8x" in names and "dwm-8x" in names
        assert "narrow-crossbar" in names
        for config_id in range(1, 8):
            assert f"table2-{config_id}" in names

    def test_maxwell_like_is_the_baseline(self):
        assert default_arch_registry().get_config("maxwell-like") == (
            baseline_config()
        )

    def test_table2_rows_match_legacy_helper(self):
        registry = default_arch_registry()
        for config_id in range(1, 8):
            assert registry.get_config(f"table2-{config_id}") == (
                table2_config(config_id)
            )

    def test_aliases_match_their_rows(self):
        registry = default_arch_registry()
        assert registry.get_config("tfet-8x") == registry.get_config(
            "table2-6"
        )
        assert registry.get_config("dwm-8x") == registry.get_config(
            "table2-7"
        )

    def test_narrow_crossbar_flag_set(self):
        config = default_arch_registry().get_config("narrow-crossbar")
        assert config.narrow_crossbar

    def test_every_builtin_has_a_description(self):
        registry = default_arch_registry()
        for name in registry.names():
            assert registry.provider(name).description

    def test_resolve_is_coherent(self):
        config, fingerprint = default_arch_registry().resolve("tfet-8x")
        assert fingerprint == arch_fingerprint(config)

    def test_builds_are_memoised(self):
        registry = default_arch_registry()
        assert registry.get_config("dwm-8x") is registry.get_config("dwm-8x")


class TestUnknownNames:
    def test_unknown_name_raises_with_suggestion(self):
        with pytest.raises(UnknownArchError, match="maxwell-like"):
            default_arch_registry().get_config("maxwel-like")

    def test_unknown_name_mentions_list_archs(self):
        with pytest.raises(UnknownArchError, match="list-archs"):
            default_arch_registry().get_config("epyc")

    def test_error_pickles_intact(self):
        """Pool workers re-raise this across process boundaries."""
        try:
            default_arch_registry().get_config("maxwel-like")
        except UnknownArchError as error:
            rebuilt = pickle.loads(pickle.dumps(error))
            assert rebuilt.name == "maxwel-like"
            assert rebuilt.suggestions == error.suggestions
        else:
            pytest.fail("expected UnknownArchError")


class TestFileProviders:
    def test_json_names_route_to_files(self):
        assert is_arch_file_name("custom.arch.json")
        assert is_arch_file_name("plain.json")
        assert not is_arch_file_name("maxwell-like")

    def test_path_resolves_without_registration(self, tmp_path):
        path = str(tmp_path / "fat.arch.json")
        config = GPUConfig(mrf_size_kb=2048)
        save_arch(config, path)
        registry = ArchRegistry()
        assert registry.get_config(path) == config

    def test_registered_file_gets_a_short_name(self, tmp_path):
        path = str(tmp_path / "fat.arch.json")
        save_arch(GPUConfig(mrf_size_kb=2048), path)
        registry = ArchRegistry()
        registry.register_file(path, name="fat")
        assert registry.get_config("fat").mrf_size_kb == 2048

    def test_rewrite_invalidates_memo(self, tmp_path):
        """A rewritten .arch.json must never serve stale content."""
        import os
        path = str(tmp_path / "live.arch.json")
        save_arch(GPUConfig(mrf_size_kb=512), path)
        registry = ArchRegistry()
        first_config, first_fp = registry.resolve(path)
        assert first_config.mrf_size_kb == 512
        save_arch(GPUConfig(mrf_size_kb=1024), path)
        # Guarantee a distinct stat signature even on coarse clocks.
        status = os.stat(path)
        os.utime(path, ns=(status.st_atime_ns, status.st_mtime_ns + 1))
        second_config, second_fp = registry.resolve(path)
        assert second_config.mrf_size_kb == 1024
        assert second_fp != first_fp

    def test_missing_file_fails_loudly(self, tmp_path):
        from repro.arch import ArchSerializationError
        registry = ArchRegistry()
        with pytest.raises(ArchSerializationError, match="cannot read"):
            registry.get_config(str(tmp_path / "absent.arch.json"))


class TestRegistration:
    def test_duplicate_name_rejected(self):
        registry = ArchRegistry()
        registry.register(ArchProvider("x", "builtin", GPUConfig))
        with pytest.raises(ValueError, match="already registered"):
            registry.register(ArchProvider("x", "builtin", GPUConfig))

    def test_replace_drops_memoised_state(self):
        registry = ArchRegistry()
        registry.register(ArchProvider(
            "x", "builtin", lambda: GPUConfig(mrf_size_kb=256)))
        first = registry.fingerprint("x")
        registry.register(ArchProvider(
            "x", "builtin", lambda: GPUConfig(mrf_size_kb=512)), replace=True)
        assert registry.fingerprint("x") != first

    def test_provider_repr_names_source(self):
        provider = ArchProvider("x", "builtin", GPUConfig)
        assert "builtin" in repr(provider)
        assert isinstance(ArchFileProvider("p.arch.json"), ArchProvider)


class TestArchConfig:
    def test_name_resolution(self):
        assert arch_config("maxwell-like") == baseline_config()

    def test_config_passes_through(self):
        config = GPUConfig(mrf_size_kb=512)
        assert arch_config(config) is config

    def test_overrides_apply_last(self):
        config = arch_config("maxwell-like", mrf_latency_multiple=3.0)
        assert config.mrf_latency_multiple == 3.0
        assert config.mrf_size_kb == baseline_config().mrf_size_kb

    def test_path_with_overrides(self, tmp_path):
        path = str(tmp_path / "fat.arch.json")
        save_arch(GPUConfig(mrf_size_kb=2048), path)
        config = arch_config(path, active_warps=4)
        assert config.mrf_size_kb == 2048
        assert config.active_warps == 4

    def test_unknown_name_propagates(self):
        with pytest.raises(UnknownArchError):
            arch_config("not-a-design")
