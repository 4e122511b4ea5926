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

import json
from dataclasses import fields
from functools import lru_cache
from typing import Any, Dict

from repro.arch.config import GPUConfig, MemoryConfig
from repro.util import JsonFormat, atomic_write_text, content_hash

#: Identifies the file format in the envelope.
SCHEMA_NAME = "ltrf-arch"

#: Bump when the serialised *shape* changes incompatibly.  Loaders
#: accept exactly the versions in :data:`SUPPORTED_SCHEMA_VERSIONS`.
SCHEMA_VERSION = 1

SUPPORTED_SCHEMA_VERSIONS = frozenset({1})

#: Canonical extension for serialised architectures (what
#: ``export-arch`` writes by default); any ``.json`` name loads.
ARCH_FILE_SUFFIX = ".arch.json"


class ArchSerializationError(ValueError):
    """Raised when a payload cannot be (de)serialised as an architecture."""


_FORMAT = JsonFormat(SCHEMA_NAME, SUPPORTED_SCHEMA_VERSIONS,
                     "an architecture", ArchSerializationError)

#: Declared field types, for strict decoding (loading is strict, see
#: :class:`~repro.util.JsonFormat`: a misspelled "mrf_bank" must not
#: silently simulate the default bank count).
_GPU_FLOAT_FIELDS = frozenset({"mrf_latency_multiple"})
_GPU_BOOL_FIELDS = frozenset({"narrow_crossbar"})
_GPU_STR_FIELDS = frozenset({"name"})

_GPU_KEYS = frozenset(f.name for f in fields(GPUConfig)) | {
    "schema", "schema_version",
}
_MEMORY_KEYS = frozenset(f.name for f in fields(MemoryConfig))


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
    _FORMAT.check_envelope(payload)
    _FORMAT.check_keys(payload, _GPU_KEYS, "architecture")
    kwargs: Dict[str, Any] = {}
    for name, value in payload.items():
        if name in ("schema", "schema_version"):
            continue
        if name == "memory":
            if not isinstance(value, dict):
                raise ArchSerializationError(
                    f"memory hierarchy must be a dict, got {value!r}"
                )
            _FORMAT.check_keys(value, _MEMORY_KEYS, "memory hierarchy")
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
    return arch_from_dict(_FORMAT.loads(text))


def save_arch(config: GPUConfig, path: str) -> None:
    """Write a ``.arch.json`` file atomically (temp file + replace)."""
    atomic_write_text(path, dumps_arch(config) + "\n")


def load_arch(path: str) -> GPUConfig:
    return arch_from_dict(_FORMAT.read(path))


# -- fingerprint --------------------------------------------------------------


@lru_cache(maxsize=None)
def arch_fingerprint(config: GPUConfig) -> str:
    """Stable content hash of an architecture, memoised per config.

    :func:`~repro.util.content_hash` of the serialised configuration:
    the same architecture always fingerprints the same, across
    processes and schema-version bumps; any change to any field --
    bank counts, latencies, crossbar geometry, the memory hierarchy --
    changes it.  The runner fingerprints the architecture of every
    request key it computes, and a latency sweep re-presents the same
    few dozen configurations thousands of times; ``GPUConfig`` is
    frozen (equality-hashable), so the memo is safe by construction --
    unlike kernels, there is no mutate-after-hash hazard.
    """
    return content_hash(arch_to_dict(config))


#: Fields struck from the canonical form by the sans-latency
#: fingerprint: exactly the knobs the latency sweeps vary (the MRF
#: latency multiple and the memory-hierarchy timing).  Everything
#: else -- bank counts, RFC latency, crossbar geometry, occupancy,
#: cache sizes -- stays in.
_LATENCY_FIELDS = ("mrf_latency_multiple",)
_MEMORY_LATENCY_FIELDS = (
    "l1_latency", "llc_latency", "dram_latency", "dram_service_interval",
)


@lru_cache(maxsize=None)
def arch_fingerprint_sans_latency(config: GPUConfig) -> str:
    """:func:`arch_fingerprint` with the latency knobs struck out.

    Two architectures share this fingerprint iff they differ only in
    the fields a latency sweep varies: ``mrf_latency_multiple`` and the
    memory hierarchy's per-level latencies/service interval.  This is
    the batch dispatcher's row key component
    (:func:`repro.jobs.plan._dispatch_chunks`): every latency
    point of a fig11/fig14-shaped grid row shares it, so one worker
    runs the whole row and compiles its kernel once.  Memoised like
    :func:`arch_fingerprint`.
    """
    content = arch_to_dict(config)
    for name in _LATENCY_FIELDS:
        content.pop(name, None)
    memory = content.get("memory")
    if memory is not None:
        for name in _MEMORY_LATENCY_FIELDS:
            memory.pop(name, None)
        if not memory:
            del content["memory"]
    return content_hash(content)
