"""Versioned JSON serialization for architectures, plus content fingerprints.

Architectures historically existed only as Python dataclass
constructions (``GPUConfig(...)``, ``baseline_config(**overrides)``),
which welded the one remaining evaluation axis -- the simulated SM --
to the source tree: defining a new topology meant editing Python.
This module gives :class:`~repro.arch.config.GPUConfig` (and its
nested :class:`~repro.arch.config.MemoryConfig`) the same stable
on-disk form kernels gained in :mod:`repro.ir.serialize`:

* :func:`arch_to_dict` / :func:`arch_from_dict` -- lossless round-trip
  of a full configuration, every field strictly validated;
* :func:`save_arch` / :func:`load_arch` -- the ``.arch.json`` file
  format, with a schema envelope (``schema`` + ``schema_version``)
  checked on load so a file written by a future incompatible version
  fails loudly instead of deserialising garbage;
* :func:`arch_fingerprint` -- a stable SHA-256 content hash over the
  canonical serialised form.  Two architectures fingerprint equal iff
  their serialised content is identical, so the runner can key its
  result store on *what hardware was simulated* rather than on an
  ad-hoc encoding of whatever fields the dataclass happens to have.

Canonical form: fields equal to their dataclass defaults are omitted
(exactly one serialised form per architecture, which the fingerprint
relies on), and a field added later with a default therefore never
changes the fingerprint of existing configurations.  The one declared
float field is always written as a float, so ``mrf_latency_multiple: 2``
and ``2.0`` -- behaviourally identical configs -- share a fingerprint.

The fingerprint deliberately excludes the schema envelope: bumping
``SCHEMA_VERSION`` changes how architectures are *written*, not what
they *are*, and must not invalidate result-store entries for unchanged
configurations.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields
from functools import lru_cache
from typing import Any, Dict

from repro.arch.config import GPUConfig, MemoryConfig
from repro.util import atomic_write_text

#: Identifies the file format in the envelope.
SCHEMA_NAME = "ltrf-arch"

#: Bump when the serialised *shape* changes incompatibly.  Loaders
#: accept exactly the versions in :data:`SUPPORTED_SCHEMA_VERSIONS`.
SCHEMA_VERSION = 1

SUPPORTED_SCHEMA_VERSIONS = frozenset({1})

#: Hex digits of the SHA-256 digest exposed as the fingerprint (same
#: budget as kernel fingerprints: readable keys, implausible accidental
#: collisions).
FINGERPRINT_LENGTH = 16


class ArchSerializationError(ValueError):
    """Raised when a payload cannot be (de)serialised as an architecture."""


#: Declared field types, for strict decoding.  Loading is strict: an
#: unrecognized key is almost always a misspelling ("mrf_bank"), and
#: silently substituting the field's default would produce a
#: *valid-looking architecture with different behaviour* -- the
#: silent-wrong-results class this module exists to prevent.
_GPU_FLOAT_FIELDS = frozenset({"mrf_latency_multiple"})
_GPU_BOOL_FIELDS = frozenset({"narrow_crossbar"})
_GPU_STR_FIELDS = frozenset({"name"})

_GPU_KEYS = frozenset(f.name for f in fields(GPUConfig)) | {
    "schema", "schema_version",
}
_MEMORY_KEYS = frozenset(f.name for f in fields(MemoryConfig))


def _check_keys(payload: Dict[str, Any], allowed: frozenset,
                what: str) -> None:
    unknown = set(payload) - allowed
    if unknown:
        raise ArchSerializationError(
            f"unknown {what} field(s) {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}"
        )


def _decode_value(name: str, value: Any) -> Any:
    """Coerce one scalar field to its declared type, strictly.

    Booleans are JSON numbers' siblings in Python (``bool`` subclasses
    ``int``), so every branch rejects the *other* kind explicitly:
    ``"narrow_crossbar": 1`` and ``"mrf_banks": true`` both fail loudly
    instead of silently becoming valid-looking configurations.
    """
    if name in _GPU_STR_FIELDS:
        if not isinstance(value, str):
            raise ArchSerializationError(
                f"field {name!r} must be a string, got {value!r}"
            )
        return value
    if name in _GPU_BOOL_FIELDS:
        if not isinstance(value, bool):
            raise ArchSerializationError(
                f"field {name!r} must be true or false, got {value!r}"
            )
        return value
    if name in _GPU_FLOAT_FIELDS:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ArchSerializationError(
                f"field {name!r} must be a number, got {value!r}"
            )
        return float(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ArchSerializationError(
            f"field {name!r} must be an integer, got {value!r}"
        )
    return value


# -- round-trip ---------------------------------------------------------------


def arch_to_dict(config: GPUConfig) -> Dict[str, Any]:
    """Serialise an architecture to a plain-data dict (with envelope).

    Fields at their dataclass defaults are omitted; the nested memory
    hierarchy appears (as a likewise default-stripped dict) only when
    it differs from the default :class:`MemoryConfig`.
    """
    payload: Dict[str, Any] = {
        "schema": SCHEMA_NAME,
        "schema_version": SCHEMA_VERSION,
    }
    for spec in fields(GPUConfig):
        value = getattr(config, spec.name)
        if spec.name == "memory":
            if value != MemoryConfig():
                payload["memory"] = {
                    m.name: getattr(value, m.name)
                    for m in fields(MemoryConfig)
                    if getattr(value, m.name) != m.default
                }
            continue
        if spec.name in _GPU_FLOAT_FIELDS:
            value = float(value)
        if value != spec.default:
            payload[spec.name] = value
    return payload


def arch_from_dict(payload: Dict[str, Any]) -> GPUConfig:
    """Rebuild an architecture from :func:`arch_to_dict` output.

    Validates the schema envelope, rejects unknown or mistyped fields,
    then runs the dataclasses' own ``__post_init__`` validation -- all
    failures surface as :class:`ArchSerializationError`.
    """
    if not isinstance(payload, dict):
        raise ArchSerializationError(
            f"architecture payload must be a dict, "
            f"got {type(payload).__name__}"
        )
    schema = payload.get("schema")
    if schema != SCHEMA_NAME:
        raise ArchSerializationError(
            f"not an architecture file: schema {schema!r} != {SCHEMA_NAME!r}"
        )
    version = payload.get("schema_version")
    if version not in SUPPORTED_SCHEMA_VERSIONS:
        supported = sorted(SUPPORTED_SCHEMA_VERSIONS)
        raise ArchSerializationError(
            f"unsupported architecture schema version {version!r} "
            f"(this build reads {supported})"
        )
    _check_keys(payload, _GPU_KEYS, "architecture")
    kwargs: Dict[str, Any] = {}
    for name, value in payload.items():
        if name in ("schema", "schema_version"):
            continue
        if name == "memory":
            if not isinstance(value, dict):
                raise ArchSerializationError(
                    f"memory hierarchy must be a dict, got {value!r}"
                )
            _check_keys(value, _MEMORY_KEYS, "memory hierarchy")
            memory_kwargs = {
                m: _decode_value(m, v) for m, v in value.items()
            }
            try:
                kwargs["memory"] = MemoryConfig(**memory_kwargs)
            except (TypeError, ValueError) as error:
                raise ArchSerializationError(
                    f"invalid memory hierarchy: {error}"
                ) from None
            continue
        kwargs[name] = _decode_value(name, value)
    try:
        return GPUConfig(**kwargs)
    except (TypeError, ValueError) as error:
        raise ArchSerializationError(
            f"invalid architecture: {error}"
        ) from None


# -- text / file round-trip ---------------------------------------------------


def dumps_arch(config: GPUConfig, indent: int = 1) -> str:
    """Serialise to JSON text (indented for diff-friendly files)."""
    return json.dumps(arch_to_dict(config), indent=indent, sort_keys=True)


def loads_arch(text: str) -> GPUConfig:
    try:
        payload = json.loads(text)
    except ValueError as error:
        raise ArchSerializationError(f"invalid JSON: {error}") from None
    return arch_from_dict(payload)


def save_arch(config: GPUConfig, path: str) -> None:
    """Write a ``.arch.json`` file atomically (temp file + replace)."""
    atomic_write_text(path, dumps_arch(config) + "\n")


def load_arch(path: str) -> GPUConfig:
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as error:
        raise ArchSerializationError(
            f"cannot read architecture file {path!r}: {error}"
        ) from None
    return loads_arch(text)


# -- fingerprint --------------------------------------------------------------


def arch_fingerprint(config: GPUConfig) -> str:
    """Stable content hash of an architecture.

    SHA-256 over the canonical (sorted-keys, compact) JSON of the
    serialised configuration with the schema envelope stripped.  The
    same architecture always fingerprints the same, across processes
    and schema-version bumps; any change to any field -- bank counts,
    latencies, crossbar geometry, the memory hierarchy -- changes it.
    """
    content = arch_to_dict(config)
    del content["schema"], content["schema_version"]
    blob = json.dumps(content, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:FINGERPRINT_LENGTH]


#: Fields struck from the canonical form by the sans-latency
#: fingerprint: exactly the knobs the latency sweeps vary (the MRF
#: latency multiple and the memory-hierarchy timing).  Everything
#: else -- bank counts, RFC latency, crossbar geometry, occupancy,
#: cache sizes -- stays in.
_LATENCY_FIELDS = ("mrf_latency_multiple",)
_MEMORY_LATENCY_FIELDS = (
    "l1_latency", "llc_latency", "dram_latency", "dram_service_interval",
)


def arch_fingerprint_sans_latency(config: GPUConfig) -> str:
    """:func:`arch_fingerprint` with the latency knobs struck out.

    Two architectures share this fingerprint iff they differ only in
    the fields a latency sweep varies: ``mrf_latency_multiple`` and the
    memory hierarchy's per-level latencies/service interval.  This is
    the batch dispatcher's row key component
    (:func:`repro.experiments.runner._dispatch_chunks`): every latency
    point of a fig11/fig14-shaped grid row shares it, so one worker
    runs the whole row and compiles its kernel once.
    """
    content = arch_to_dict(config)
    del content["schema"], content["schema_version"]
    for name in _LATENCY_FIELDS:
        content.pop(name, None)
    memory = content.get("memory")
    if memory is not None:
        for name in _MEMORY_LATENCY_FIELDS:
            memory.pop(name, None)
        if not memory:
            del content["memory"]
    blob = json.dumps(content, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:FINGERPRINT_LENGTH]


@lru_cache(maxsize=None)
def fingerprint_of_arch_sans_latency(config: GPUConfig) -> str:
    """:func:`arch_fingerprint_sans_latency`, memoised per frozen config.

    Same rationale as :func:`fingerprint_of_arch`: a sweep re-presents
    the same few dozen configurations thousands of times.
    """
    return arch_fingerprint_sans_latency(config)


@lru_cache(maxsize=None)
def fingerprint_of_arch(config: GPUConfig) -> str:
    """:func:`arch_fingerprint`, memoised per (frozen, hashable) config.

    The runner fingerprints the architecture of every request key it
    computes; a latency sweep re-presents the same few dozen distinct
    configurations thousands of times, so the serialise-and-hash is
    pure redundant work after the first call.  ``GPUConfig`` is frozen
    (equality-hashable), which makes the memo safe by construction --
    unlike kernels, there is no mutate-after-hash hazard.
    """
    return arch_fingerprint(config)
