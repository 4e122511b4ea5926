"""Architectural register model.

The paper's ISA model is PTX-like: every warp owns a private set of up to
256 architectural registers (``MAX_ARCH_REGS``), named ``r0`` .. ``r255``.
There is no indirection or aliasing in register accesses -- the key property
the paper exploits (Section 3): a register working set is fully known at
compile time.

Registers are represented as plain ``int`` ids throughout the code base.
This module provides the bounds, formatting helpers, and the bit-vector
encoding used by PREFETCH operations (Section 3.2: a 256-bit vector, one
bit per architectural register).
"""

from __future__ import annotations

from typing import Iterable, Iterator

#: Maximum number of architectural registers per thread.  Matches the limit
#: of recent CUDA compilers quoted by the paper (Section 3.2).
MAX_ARCH_REGS = 256


def check_register(reg: int) -> int:
    """Validate a register id and return it.

    Raises ``ValueError`` for ids outside ``[0, MAX_ARCH_REGS)``.
    """
    if not isinstance(reg, int) or isinstance(reg, bool):
        raise ValueError(f"register id must be an int, got {reg!r}")
    if not 0 <= reg < MAX_ARCH_REGS:
        raise ValueError(
            f"register id {reg} outside [0, {MAX_ARCH_REGS})"
        )
    return reg


def register_name(reg: int) -> str:
    """Render a register id the way PTX does, e.g. ``r12``."""
    return f"r{check_register(reg)}"


def encode_bitvector(registers: Iterable[int]) -> int:
    """Encode a set of register ids as a PREFETCH bit-vector.

    The result is an ``int`` usable as a 256-bit vector: bit *i* is set
    iff register *i* is in ``registers``.  This mirrors the hardware
    encoding in Section 3.2 of the paper.
    """
    vector = 0
    for reg in registers:
        vector |= 1 << check_register(reg)
    return vector


def decode_bitvector(vector: int) -> Iterator[int]:
    """Yield the register ids present in a PREFETCH bit-vector.

    Inverse of :func:`encode_bitvector`; ids are produced in ascending
    order, matching the hardware decoder that walks the vector to build
    the list of registers to load.
    """
    if vector < 0:
        raise ValueError("bit-vector must be non-negative")
    if vector >> MAX_ARCH_REGS:
        raise ValueError("bit-vector has bits outside the register space")
    reg = 0
    while vector:
        if vector & 1:
            yield reg
        vector >>= 1
        reg += 1
