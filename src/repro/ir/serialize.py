"""Versioned JSON serialization for kernels, plus content fingerprints.

Kernels historically existed only as the in-memory product of the
synthetic generator, which welded every consumer (CLI, experiments,
runner cache) to the one hard-coded suite.  This module gives the IR a
stable on-disk form so kernels can come from anywhere -- a generator, a
parametric scenario family, a file produced by an external tool -- and
flow through the same simulator:

* :func:`kernel_to_dict` / :func:`kernel_from_dict` -- lossless
  round-trip of a :class:`~repro.ir.kernel.Kernel` (blocks in layout
  order, every instruction field including branch metadata, memory
  specs, PREFETCH register vectors, and liveness annotations);
* :func:`save_kernel` / :func:`load_kernel` -- the ``.kernel.json``
  file format, with a schema envelope (``schema`` + ``schema_version``)
  checked on load so a file written by a future incompatible version
  fails loudly instead of deserialising garbage;
* :func:`kernel_fingerprint` -- a stable SHA-256 content hash over the
  canonical serialised form.  Two kernels fingerprint equal iff their
  serialised content is identical, so the runner can key its result
  cache on *what was simulated* rather than on a name that may silently
  change meaning when a generator or spec is edited.

The fingerprint deliberately excludes the schema envelope: bumping
``SCHEMA_VERSION`` changes how kernels are *written*, not what they
*are*, and must not invalidate result-cache entries for unchanged
kernels.
"""

from __future__ import annotations

import json
import weakref
from typing import Any, Dict, List

from repro.ir.basic_block import BasicBlock
from repro.ir.cfg import CFG
from repro.ir.instruction import Instruction, MemorySpec, Opcode
from repro.ir.kernel import Kernel
from repro.ir.registers import encode_bitvector
from repro.util import JsonFormat, atomic_write_text, content_hash

#: Identifies the file format in the envelope.
SCHEMA_NAME = "ltrf-kernel"

#: Bump when the serialised *shape* changes incompatibly.  Loaders
#: accept exactly the versions in :data:`SUPPORTED_SCHEMA_VERSIONS`.
SCHEMA_VERSION = 1

SUPPORTED_SCHEMA_VERSIONS = frozenset({1})

#: Canonical extension for serialised kernels (what ``export-kernel``
#: writes by default); any ``.json`` name loads.
KERNEL_FILE_SUFFIX = ".kernel.json"


class KernelSerializationError(ValueError):
    """Raised when a payload cannot be (de)serialised as a kernel."""


_FORMAT = JsonFormat(SCHEMA_NAME, SUPPORTED_SCHEMA_VERSIONS, "a kernel",
                     KernelSerializationError)

#: The exact key sets each payload level may carry (loading is strict,
#: see :class:`~repro.util.JsonFormat`).  Future format changes go
#: through SCHEMA_VERSION, not through tolerated extra keys.
_KERNEL_KEYS = frozenset({
    "schema", "schema_version", "name", "category", "threads_per_block",
    "entry", "blocks",
})
_BLOCK_KEYS = frozenset({"label", "instructions"})
_INSTRUCTION_KEYS = frozenset({
    "opcode", "dsts", "srcs", "target", "trip_count", "taken_probability",
    "mem", "prefetch_registers", "dead_srcs",
})
_MEM_KEYS = frozenset({"stream", "footprint_bytes", "stride_bytes",
                       "coalesced"})


# -- instructions -------------------------------------------------------------


def _instruction_to_dict(instruction: Instruction) -> Dict[str, Any]:
    """Serialise one instruction, omitting fields at their defaults.

    Omission keeps files compact *and* canonical: there is exactly one
    serialised form per instruction, which the fingerprint relies on.
    """
    payload: Dict[str, Any] = {"opcode": instruction.opcode.value}
    if instruction.dsts:
        payload["dsts"] = list(instruction.dsts)
    if instruction.srcs:
        payload["srcs"] = list(instruction.srcs)
    if instruction.target is not None:
        payload["target"] = instruction.target
    if instruction.trip_count is not None:
        payload["trip_count"] = instruction.trip_count
    if instruction.taken_probability is not None:
        payload["taken_probability"] = instruction.taken_probability
    if instruction.mem is not None:
        payload["mem"] = {
            "stream": instruction.mem.stream,
            "footprint_bytes": instruction.mem.footprint_bytes,
            "stride_bytes": instruction.mem.stride_bytes,
            "coalesced": instruction.mem.coalesced,
        }
    if instruction.prefetch_vector:
        # Stored as the register-id list, not the raw bit-vector int:
        # readable in the file, and immune to any future change in the
        # in-memory encoding.
        payload["prefetch_registers"] = list(
            instruction.prefetch_registers()
        )
    if instruction.dead_srcs:
        payload["dead_srcs"] = sorted(instruction.dead_srcs)
    return payload


def _instruction_from_dict(payload: Dict[str, Any]) -> Instruction:
    if not isinstance(payload, dict) or "opcode" not in payload:
        raise KernelSerializationError(
            f"instruction payload must be a dict with an opcode: {payload!r}"
        )
    _FORMAT.check_keys(payload, _INSTRUCTION_KEYS, "instruction")
    try:
        opcode = Opcode(payload["opcode"])
    except ValueError:
        raise KernelSerializationError(
            f"unknown opcode {payload['opcode']!r}"
        ) from None
    mem = None
    if "mem" in payload:
        spec = payload["mem"]
        if not isinstance(spec, dict):
            raise KernelSerializationError(
                f"memory spec must be a dict: {spec!r}"
            )
        _FORMAT.check_keys(spec, _MEM_KEYS, "memory spec")
        try:
            mem = MemorySpec(
                stream=spec["stream"],
                footprint_bytes=spec["footprint_bytes"],
                stride_bytes=spec.get("stride_bytes", 128),
                coalesced=spec.get("coalesced", True),
            )
        except (TypeError, KeyError, ValueError) as error:
            raise KernelSerializationError(
                f"bad memory spec {spec!r}: {error}"
            ) from None
    prefetch_vector = 0
    if "prefetch_registers" in payload:
        try:
            prefetch_vector = encode_bitvector(payload["prefetch_registers"])
        except (TypeError, ValueError) as error:
            raise KernelSerializationError(
                f"bad prefetch register list: {error}"
            ) from None
    try:
        return Instruction(
            opcode=opcode,
            dsts=tuple(payload.get("dsts", ())),
            srcs=tuple(payload.get("srcs", ())),
            target=payload.get("target"),
            trip_count=payload.get("trip_count"),
            taken_probability=payload.get("taken_probability"),
            mem=mem,
            prefetch_vector=prefetch_vector,
            dead_srcs=frozenset(payload.get("dead_srcs", ())),
        )
    except (TypeError, ValueError) as error:
        raise KernelSerializationError(
            f"bad instruction {payload!r}: {error}"
        ) from None


# -- kernels ------------------------------------------------------------------


def kernel_to_dict(kernel: Kernel) -> Dict[str, Any]:
    """Serialise a kernel to a plain-data dict (including the envelope)."""
    blocks: List[Dict[str, Any]] = [
        {
            "label": block.label,
            "instructions": [
                _instruction_to_dict(instruction)
                for instruction in block.instructions
            ],
        }
        for block in kernel.cfg.blocks()
    ]
    return {
        "schema": SCHEMA_NAME,
        "schema_version": SCHEMA_VERSION,
        "name": kernel.name,
        "category": kernel.category,
        "threads_per_block": kernel.threads_per_block,
        "entry": kernel.cfg.entry,
        "blocks": blocks,
    }


def kernel_from_dict(payload: Dict[str, Any]) -> Kernel:
    """Rebuild a kernel from :func:`kernel_to_dict` output.

    Validates the schema envelope first, then reconstructs the CFG in
    layout order (which preserves every fall-through edge) and runs the
    kernel's own structural validation.
    """
    _FORMAT.check_envelope(payload)
    missing = {"name", "category", "blocks"} - set(payload)
    if missing:
        raise KernelSerializationError(
            f"kernel payload missing fields: {sorted(missing)}"
        )
    _FORMAT.check_keys(payload, _KERNEL_KEYS, "kernel")
    if not payload["blocks"]:
        raise KernelSerializationError("kernel payload has no blocks")
    cfg = CFG()
    blocks = payload["blocks"]
    if not isinstance(blocks, list):
        raise KernelSerializationError(
            f"blocks must be a list, got {type(blocks).__name__}"
        )
    try:
        for block_payload in blocks:
            if not isinstance(block_payload, dict):
                raise KernelSerializationError(
                    f"block payload must be a dict: {block_payload!r}"
                )
            _FORMAT.check_keys(block_payload, _BLOCK_KEYS, "block")
            instructions = [
                _instruction_from_dict(entry)
                for entry in block_payload.get("instructions", ())
            ]
            cfg.add_block(BasicBlock(block_payload["label"], instructions))
    except KernelSerializationError:
        raise
    except (TypeError, KeyError, ValueError) as error:
        raise KernelSerializationError(f"bad block payload: {error}") from None
    declared_entry = payload.get("entry", cfg.entry)
    if declared_entry != cfg.entry:
        raise KernelSerializationError(
            f"entry {declared_entry!r} is not the first block "
            f"({cfg.entry!r}); layout order defines fall-through edges"
        )
    try:
        return Kernel(
            payload["name"],
            cfg,
            category=payload["category"],
            threads_per_block=payload.get("threads_per_block", 256),
        )
    except ValueError as error:
        raise KernelSerializationError(str(error)) from None


# -- text / file round-trip ---------------------------------------------------


def dumps_kernel(kernel: Kernel, indent: int = 1) -> str:
    """Serialise to JSON text (indented for diff-friendly files)."""
    return json.dumps(kernel_to_dict(kernel), indent=indent, sort_keys=True)


def loads_kernel(text: str) -> Kernel:
    return kernel_from_dict(_FORMAT.loads(text))


def save_kernel(kernel: Kernel, path: str) -> None:
    """Write a ``.kernel.json`` file atomically (temp file + replace)."""
    atomic_write_text(path, dumps_kernel(kernel) + "\n")


def load_kernel(path: str) -> Kernel:
    return kernel_from_dict(_FORMAT.read(path))


# -- fingerprint --------------------------------------------------------------


def kernel_fingerprint(kernel: Kernel) -> str:
    """Stable content hash of a kernel.

    :func:`~repro.util.content_hash` of the serialised kernel: the same
    kernel content always fingerprints the same, across processes and
    schema-version bumps; any change to an instruction, block, edge,
    register, memory spec, or kernel metadata changes it.
    """
    return content_hash(kernel_to_dict(kernel))


#: Kernel object -> fingerprint, for kernels treated as immutable.
_object_fingerprints: "weakref.WeakKeyDictionary[Kernel, str]" = (
    weakref.WeakKeyDictionary()
)


def fingerprint_of(kernel: Kernel) -> str:
    """:func:`kernel_fingerprint`, memoised per kernel *object*.

    Fingerprinting serialises the whole kernel; doing that once per
    simulation (hundreds of times per sweep for the same few kernels)
    is pure redundant work, because the kernels flowing through the
    registry and the compile cache are shared, effectively immutable
    objects (compile passes clone before mutating).  Only use this on
    kernels with that contract -- a kernel mutated after the first call
    would keep serving the stale hash.  The memo holds weak references,
    so it never extends a kernel's lifetime.
    """
    found = _object_fingerprints.get(kernel)
    if found is None:
        found = kernel_fingerprint(kernel)
        _object_fingerprints[kernel] = found
    return found
