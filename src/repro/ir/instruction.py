"""PTX-like instruction model.

Instructions are the atoms of the kernel IR.  Each instruction names its
destination and source architectural registers explicitly (no memory
operands feed the register file), carries an opcode with a latency class,
and -- for branches and memory operations -- a small amount of behavioural
metadata used by the trace generator:

* conditional branches carry either a ``trip_count`` (loop-style: taken
  ``trip_count - 1`` times per loop entry, then falls through) or a
  ``taken_probability`` (data-dependent branch resolved by a seeded RNG);
* memory operations carry a :class:`MemorySpec` describing the synthetic
  address stream they touch (space, footprint, stride), which drives the
  cache model in :mod:`repro.arch.memory`.

``PREFETCH`` is the pseudo-operation the LTRF compiler inserts at
register-interval entries (Section 3.1); its payload is a register
bit-vector (see :mod:`repro.ir.registers`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Tuple

from repro.ir.registers import check_register, decode_bitvector


class Opcode(enum.Enum):
    """Operation codes grouped by functional class."""

    # Integer / address arithmetic (short latency).
    IADD = "iadd"
    ISUB = "isub"
    IMUL = "imul"
    AND = "and"
    OR = "or"
    SHL = "shl"
    SETP = "setp"           # predicate compare, writes a predicate register
    MOV = "mov"
    # Floating point (medium latency).
    FADD = "fadd"
    FMUL = "fmul"
    FFMA = "ffma"
    # Special function unit (long fixed latency).
    SFU = "sfu"              # rsqrt / sin / exp style
    # Memory.
    LD_GLOBAL = "ld.global"
    ST_GLOBAL = "st.global"
    LD_SHARED = "ld.shared"
    ST_SHARED = "st.shared"
    # Control flow.
    BRA = "bra"              # conditional or unconditional branch
    EXIT = "exit"
    # LTRF software support.
    PREFETCH = "prefetch"


#: Opcodes that read or write memory.
MEMORY_OPCODES = frozenset({
    Opcode.LD_GLOBAL, Opcode.ST_GLOBAL, Opcode.LD_SHARED, Opcode.ST_SHARED,
})

#: Opcodes that can stall a warp for an unpredictable, long time and
#: therefore trigger warp deactivation in the two-level scheduler
#: (Section 3.2: "Whenever a warp encounters a long latency operation,
#: such as a data cache miss, it becomes inactive").
LONG_LATENCY_OPCODES = frozenset({Opcode.LD_GLOBAL, Opcode.ST_GLOBAL})

#: Fixed execution latency (cycles) per opcode for non-memory operations.
#: Memory latency comes from the cache hierarchy instead.
EXECUTION_LATENCY = {
    Opcode.IADD: 1, Opcode.ISUB: 1, Opcode.AND: 1, Opcode.OR: 1,
    Opcode.SHL: 1, Opcode.SETP: 1, Opcode.MOV: 1,
    Opcode.IMUL: 4,
    Opcode.FADD: 4, Opcode.FMUL: 4, Opcode.FFMA: 4,
    Opcode.SFU: 16,
    Opcode.LD_SHARED: 24, Opcode.ST_SHARED: 24,
    Opcode.BRA: 1, Opcode.EXIT: 1, Opcode.PREFETCH: 1,
    # Global memory latency is determined dynamically by repro.arch.memory;
    # the entry here is only the pipeline occupancy of the issue itself.
    Opcode.LD_GLOBAL: 1, Opcode.ST_GLOBAL: 1,
}


@dataclass(frozen=True)
class MemorySpec:
    """Synthetic address-stream description for one memory instruction.

    ``stream`` identifies a logical data structure; instructions sharing a
    stream walk the same footprint.  ``footprint_bytes`` bounds the region
    (wrap-around), ``stride_bytes`` is the per-dynamic-execution step, and
    ``coalesced`` says whether the warp's lanes touch one cache line (true
    for the streaming patterns we generate) or several.
    """

    stream: int
    footprint_bytes: int
    stride_bytes: int = 128
    coalesced: bool = True

    def __post_init__(self) -> None:
        if self.footprint_bytes <= 0:
            raise ValueError("footprint_bytes must be positive")
        if self.stride_bytes <= 0:
            raise ValueError("stride_bytes must be positive")


@dataclass(frozen=True)
class Instruction:
    """A single static instruction.

    ``dsts`` and ``srcs`` are tuples of architectural register ids.  The
    remaining fields are behavioural metadata; see the module docstring.
    ``dead_srcs`` is filled in by liveness analysis
    (:func:`repro.ir.liveness.annotate_dead_operands`) and holds the
    *register ids* among ``srcs`` whose value is dead after this
    instruction -- the paper's "dead operand bit" (Section 3.2, LTRF+).
    """

    opcode: Opcode
    dsts: Tuple[int, ...] = ()
    srcs: Tuple[int, ...] = ()
    # Branch metadata (BRA only).
    target: Optional[str] = None
    trip_count: Optional[int] = None
    taken_probability: Optional[float] = None
    # Memory metadata (memory opcodes only).
    mem: Optional[MemorySpec] = None
    # PREFETCH payload: a register bit-vector.
    prefetch_vector: int = 0
    # Liveness annotation (register ids dead after this instruction).
    dead_srcs: frozenset = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        for reg in self.dsts:
            check_register(reg)
        for reg in self.srcs:
            check_register(reg)
        if self.opcode is Opcode.BRA:
            if self.target is None:
                raise ValueError("BRA requires a target label")
            if self.trip_count is not None and self.trip_count < 1:
                raise ValueError("trip_count must be >= 1")
            if self.taken_probability is not None and not (
                0.0 <= self.taken_probability <= 1.0
            ):
                raise ValueError("taken_probability must be in [0, 1]")
        elif self.target is not None:
            raise ValueError(f"{self.opcode} cannot carry a branch target")
        if self.opcode in MEMORY_OPCODES and self.mem is None:
            raise ValueError(f"{self.opcode} requires a MemorySpec")
        if self.opcode not in MEMORY_OPCODES and self.mem is not None:
            raise ValueError(f"{self.opcode} cannot carry a MemorySpec")
        if self.opcode is not Opcode.PREFETCH and self.prefetch_vector:
            raise ValueError("only PREFETCH carries a prefetch_vector")

    # -- classification ------------------------------------------------
    #
    # cached_property (not property): static instructions are shared by
    # every dynamic trace entry that executes them, and the issue loop
    # classifies each entry, so these resolve to plain __dict__ lookups
    # after the first access.  (frozen=True blocks __setattr__, but
    # cached_property writes the instance __dict__ directly.)

    @cached_property
    def is_branch(self) -> bool:
        return self.opcode is Opcode.BRA

    @cached_property
    def is_conditional(self) -> bool:
        """True for branches whose outcome varies at run time."""
        return self.is_branch and (
            self.trip_count is not None or self.taken_probability is not None
        )

    @cached_property
    def is_memory(self) -> bool:
        return self.opcode in MEMORY_OPCODES

    @cached_property
    def is_long_latency(self) -> bool:
        return self.opcode in LONG_LATENCY_OPCODES

    @cached_property
    def execution_latency(self) -> int:
        return EXECUTION_LATENCY[self.opcode]

    @cached_property
    def hazard_registers(self) -> Tuple[int, ...]:
        """Registers the scoreboard must clear before issue (RAW + WAW).

        Sources then destinations, deduplicated.  The per-issue hazard
        check is one of the simulator's hottest loops; probing one
        interned tuple beats walking ``srcs`` and ``dsts`` separately.
        """
        return self.srcs + tuple(
            dst for dst in self.dsts if dst not in self.srcs
        )

    # -- register accounting --------------------------------------------

    def registers(self) -> frozenset:
        """All architectural registers this instruction touches."""
        return frozenset(self.dsts) | frozenset(self.srcs)

    @cached_property
    def _decoded_prefetch_registers(self) -> Tuple[int, ...]:
        return tuple(decode_bitvector(self.prefetch_vector))

    def prefetch_registers(self) -> Tuple[int, ...]:
        """Registers named by this PREFETCH's bit-vector.

        Cached: a loop header's PREFETCH re-executes every iteration in
        every warp, but the static bit-vector never changes.
        """
        if self.opcode is not Opcode.PREFETCH:
            raise ValueError("not a PREFETCH instruction")
        return self._decoded_prefetch_registers

    @cached_property
    def prefetch_working_set(self) -> frozenset:
        """:meth:`prefetch_registers` as the set a PREFETCH installs in
        its warp's WCB, built once per static instruction."""
        return frozenset(self.prefetch_registers())

    def with_dead_srcs(self, dead: frozenset) -> "Instruction":
        """Return a copy annotated with dead source registers."""
        unknown = dead - frozenset(self.srcs)
        if unknown:
            raise ValueError(
                f"dead operands {sorted(unknown)} are not sources of {self}"
            )
        return Instruction(
            opcode=self.opcode, dsts=self.dsts, srcs=self.srcs,
            target=self.target, trip_count=self.trip_count,
            taken_probability=self.taken_probability, mem=self.mem,
            prefetch_vector=self.prefetch_vector, dead_srcs=frozenset(dead),
        )

    def __str__(self) -> str:
        parts = [self.opcode.value]
        operands = [f"r{d}" for d in self.dsts] + [f"r{s}" for s in self.srcs]
        if operands:
            parts.append(", ".join(operands))
        if self.target is not None:
            parts.append(f"-> {self.target}")
        if self.opcode is Opcode.PREFETCH:
            regs = ",".join(f"r{r}" for r in self.prefetch_registers())
            parts.append(f"{{{regs}}}")
        return " ".join(parts)
