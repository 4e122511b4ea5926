"""Tests for the named architecture registry."""

import pytest

from repro.arch import GPUConfig
from repro.arch.registry import (
    UnknownArchError,
    arch_config,
    default_arch_registry,
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
