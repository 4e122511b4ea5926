"""Tests for versioned architecture serialization and fingerprints."""

import hashlib
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import (
    ArchSerializationError,
    GPUConfig,
    MemoryConfig,
    arch_fingerprint,
    arch_from_dict,
    arch_to_dict,
    dumps_arch,
    load_arch,
    loads_arch,
    save_arch,
)
from repro.arch.serialize import (
    SCHEMA_NAME,
    SCHEMA_VERSION,
    arch_fingerprint_sans_latency,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def custom_config():
    return GPUConfig(
        mrf_size_kb=2048,
        mrf_banks=32,
        mrf_latency_multiple=5.3,
        narrow_crossbar=True,
        active_warps=4,
        memory=MemoryConfig(dram_latency=1200, l1_latency=40),
    )


class TestRoundTrip:
    def test_dict_round_trip_is_lossless(self):
        config = custom_config()
        payload = arch_to_dict(config)
        rebuilt = arch_from_dict(payload)
        assert rebuilt == config
        assert arch_to_dict(rebuilt) == payload

    def test_default_config_serialises_to_bare_envelope(self):
        payload = arch_to_dict(GPUConfig())
        assert payload == {
            "schema": SCHEMA_NAME, "schema_version": SCHEMA_VERSION,
        }
        assert arch_from_dict(payload) == GPUConfig()

    def test_text_round_trip(self):
        config = custom_config()
        assert loads_arch(dumps_arch(config)) == config

    def test_file_round_trip(self, tmp_path):
        config = custom_config()
        path = str(tmp_path / "big.arch.json")
        save_arch(config, path)
        assert load_arch(path) == config

    def test_memory_omitted_when_default(self):
        payload = arch_to_dict(GPUConfig(mrf_banks=8))
        assert "memory" not in payload

    def test_memory_default_stripped_when_present(self):
        config = GPUConfig(memory=MemoryConfig(dram_latency=1200))
        payload = arch_to_dict(config)
        assert payload["memory"] == {"dram_latency": 1200}
        assert arch_from_dict(payload) == config


class TestRoundTripProperties:
    @given(
        banks=st.sampled_from([1, 4, 8, 16, 32]),
        size=st.integers(min_value=64, max_value=4096),
        latency=st.sampled_from([1.0, 1.25, 2.8, 5.3, 6.3]),
        warps=st.integers(min_value=1, max_value=8),
        narrow=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_configs_round_trip(self, banks, size, latency, warps,
                                       narrow):
        config = GPUConfig(
            mrf_banks=banks, mrf_size_kb=size,
            mrf_latency_multiple=latency, active_warps=warps,
            narrow_crossbar=narrow,
        )
        payload = arch_to_dict(config)
        rebuilt = arch_from_dict(payload)
        assert rebuilt == config
        assert arch_fingerprint(rebuilt) == arch_fingerprint(config)

    @given(latency=st.sampled_from([1.0, 1.6, 5.3]),
           size=st.integers(min_value=64, max_value=4096))
    @settings(max_examples=25, deadline=None)
    def test_fingerprint_is_stable_across_rebuilds(self, latency, size):
        first = GPUConfig(mrf_latency_multiple=latency, mrf_size_kb=size)
        second = GPUConfig(mrf_latency_multiple=latency, mrf_size_kb=size)
        assert arch_fingerprint(first) == arch_fingerprint(second)

    @given(size=st.integers(min_value=64, max_value=4096))
    @settings(max_examples=25, deadline=None)
    def test_fingerprint_distinguishes_content(self, size):
        base = GPUConfig(mrf_size_kb=size)
        changed = GPUConfig(mrf_size_kb=size + 1)
        assert arch_fingerprint(base) != arch_fingerprint(changed)


class TestFingerprint:
    def test_excludes_schema_envelope(self):
        """Bumping the schema version must not invalidate result caches."""
        config = custom_config()
        payload = arch_to_dict(config)
        content = dict(payload)
        del content["schema"], content["schema_version"]
        blob = json.dumps(content, sort_keys=True, separators=(",", ":"))
        expected = hashlib.sha256(blob.encode()).hexdigest()[:16]
        assert arch_fingerprint(config) == expected

    def test_integral_float_canonicalised(self):
        """mrf_latency_multiple 2 and 2.0 are the same architecture."""
        as_int = arch_from_dict({
            "schema": SCHEMA_NAME, "schema_version": SCHEMA_VERSION,
            "mrf_latency_multiple": 2,
        })
        as_float = GPUConfig(mrf_latency_multiple=2.0)
        assert as_int == as_float
        assert arch_fingerprint(as_int) == arch_fingerprint(as_float)

    def test_memoised_variant_agrees(self):
        config = custom_config()
        computed = arch_fingerprint.__wrapped__(config)
        assert arch_fingerprint(config) == computed
        # Second call serves the memo; must still agree.
        assert arch_fingerprint(config) == computed

    def test_every_field_is_load_bearing(self):
        base = arch_fingerprint(GPUConfig())
        assert arch_fingerprint(GPUConfig(mrf_banks=8)) != base
        assert arch_fingerprint(GPUConfig(rfc_banks=8)) != base
        assert arch_fingerprint(GPUConfig(narrow_crossbar=True)) != base
        assert arch_fingerprint(
            GPUConfig(memory=MemoryConfig(dram_latency=901))
        ) != base


class TestSansLatencyFingerprint:
    """The batch dispatcher's row key: every latency point of a sweep
    row shares it, and nothing else does."""

    def test_shared_across_a_latency_row(self):
        base = custom_config()
        row = [
            base.scaled(mrf_latency_multiple=multiple)
            for multiple in (1.0, 2.0, 7.0)
        ] + [
            base.scaled(memory=MemoryConfig(
                l1_latency=10, llc_latency=90, dram_latency=400,
                dram_service_interval=4,
            )),
        ]
        key = arch_fingerprint_sans_latency(base)
        assert {arch_fingerprint_sans_latency(c) for c in row} == {key}
        assert {arch_fingerprint_sans_latency.__wrapped__(c)
                for c in row} == {key}
        assert len({arch_fingerprint(c) for c in row}) == len(row)

    def test_every_other_field_is_load_bearing(self):
        base = arch_fingerprint_sans_latency(GPUConfig())
        for config in (
            GPUConfig(mrf_banks=8),
            GPUConfig(active_warps=4),
            GPUConfig(narrow_crossbar=True),
            GPUConfig(memory=MemoryConfig(l1_size_bytes=32 * 1024)),
        ):
            assert arch_fingerprint_sans_latency(config) != base


class TestSchemaChecks:
    def envelope(self, **fields):
        payload = {"schema": SCHEMA_NAME, "schema_version": SCHEMA_VERSION}
        payload.update(fields)
        return payload

    def test_rejects_wrong_schema(self):
        with pytest.raises(ArchSerializationError, match="schema"):
            arch_from_dict({"schema": "ltrf-kernel", "schema_version": 1})

    def test_rejects_unsupported_version(self):
        with pytest.raises(ArchSerializationError, match="version"):
            arch_from_dict({"schema": SCHEMA_NAME, "schema_version": 999})

    def test_rejects_missing_version(self):
        with pytest.raises(ArchSerializationError, match="version"):
            arch_from_dict({"schema": SCHEMA_NAME})

    def test_rejects_non_dict_payload(self):
        with pytest.raises(ArchSerializationError, match="dict"):
            arch_from_dict(["not", "a", "dict"])

    def test_rejects_misspelled_field(self):
        """Unknown keys fail loudly: a misspelled 'mrf_banks' would
        otherwise silently simulate the default bank count."""
        with pytest.raises(ArchSerializationError, match="mrf_bank"):
            arch_from_dict(self.envelope(mrf_bank=8))

    def test_rejects_misspelled_memory_field(self):
        with pytest.raises(ArchSerializationError, match="dram_latencies"):
            arch_from_dict(self.envelope(memory={"dram_latencies": 900}))

    def test_rejects_non_dict_memory(self):
        with pytest.raises(ArchSerializationError, match="memory"):
            arch_from_dict(self.envelope(memory=[900]))

    def test_rejects_bool_for_int_field(self):
        with pytest.raises(ArchSerializationError, match="mrf_banks"):
            arch_from_dict(self.envelope(mrf_banks=True))

    def test_rejects_int_for_bool_field(self):
        with pytest.raises(ArchSerializationError, match="narrow_crossbar"):
            arch_from_dict(self.envelope(narrow_crossbar=1))

    def test_rejects_string_for_number(self):
        with pytest.raises(ArchSerializationError, match="mrf_size_kb"):
            arch_from_dict(self.envelope(mrf_size_kb="256"))

    def test_rejects_non_string_name(self):
        with pytest.raises(ArchSerializationError, match="name"):
            arch_from_dict(self.envelope(name=7))

    def test_wraps_dataclass_validation(self):
        with pytest.raises(ArchSerializationError, match="mrf_banks"):
            arch_from_dict(self.envelope(mrf_banks=0))
        with pytest.raises(ArchSerializationError, match="memory"):
            arch_from_dict(self.envelope(memory={"dram_latency": 0}))

    @pytest.mark.parametrize("multiple", ["NaN", "Infinity", "0.5"])
    def test_rejects_latency_multiple_the_model_refuses(self, tmp_path,
                                                         multiple):
        """JSON text can carry NaN and Infinity; an .arch.json with
        either, or below 1x, fails to load instead of crashing the MRF
        at first use."""
        path = tmp_path / "bad.arch.json"
        path.write_text(
            f'{{"schema": "{SCHEMA_NAME}", "schema_version": '
            f'{SCHEMA_VERSION}, "mrf_latency_multiple": {multiple}}}')
        with pytest.raises(ArchSerializationError,
                           match="mrf_latency_multiple"):
            load_arch(str(path))

    def test_rejects_invalid_json_text(self):
        with pytest.raises(ArchSerializationError, match="JSON"):
            loads_arch("{not json")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ArchSerializationError, match="cannot read"):
            load_arch(str(tmp_path / "absent.arch.json"))


class TestPinnedFixture:
    """A committed .arch.json must keep loading under the current schema.

    If SCHEMA_VERSION is ever bumped incompatibly, this test forces the
    author to either keep a version-1 loader or migrate the fixture --
    i.e. architecture files in the wild cannot be silently orphaned.
    """

    PATH = os.path.join(FIXTURES, "maxwell-like.arch.json")
    FINGERPRINT = "0f4e2aeb0eb3a176"

    def test_loads_and_validates(self):
        config = load_arch(self.PATH)
        assert config.mrf_size_kb == 272
        assert config.mrf_latency_multiple == 1.0

    def test_fingerprint_pinned(self):
        """The committed bytes hash to the committed fingerprint.

        Guards both fingerprint stability (algorithm changes show up
        here) and accidental fixture edits -- either would silently
        orphan every result-store entry keyed on this architecture.
        """
        assert arch_fingerprint(load_arch(self.PATH)) == self.FINGERPRINT

    def test_fixture_matches_live_registry(self):
        """The registry still builds the committed content."""
        from repro.arch.registry import default_arch_registry
        registry = default_arch_registry()
        assert registry.fingerprint("maxwell-like") == self.FINGERPRINT
        assert registry.get_config("maxwell-like") == load_arch(self.PATH)
