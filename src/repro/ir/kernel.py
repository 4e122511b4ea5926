"""Kernels: a CFG plus metadata, and dynamic-trace generation.

A :class:`Kernel` is what the compiler passes consume and what warps
execute.  Because our simulator is trace-driven (see DESIGN.md), the
kernel knows how to unroll itself into a *dynamic instruction trace* for
one warp: branches are resolved using their behavioural metadata
(``trip_count`` for loop branches, ``taken_probability`` for
data-dependent ones, resolved with a per-warp seeded RNG so runs are
deterministic), and memory instructions are assigned concrete byte
addresses from their synthetic :class:`~repro.ir.instruction.MemorySpec`
streams.
"""

from __future__ import annotations

import copy
import random
import weakref
from typing import Dict, Iterator, List, Optional, Tuple

from repro.ir.cfg import CFG
from repro.ir.instruction import Instruction, Opcode

#: Default safety cap on dynamic trace length per warp.
DEFAULT_MAX_TRACE = 200_000

#: Address-space spacing between synthetic memory streams.
_STREAM_SPACING = 1 << 26


class TraceEntry:
    """One dynamic instruction: where it came from and what it does.

    ``address`` is the concrete byte address for memory operations
    (``None`` otherwise).  ``taken`` records the resolved direction for
    conditional branches so downstream consumers (e.g. the optimal
    interval-length analysis for Table 4) can replay control flow.

    A ``__slots__`` value object rather than a dataclass: simulations
    materialise one entry per dynamic instruction per warp, so
    construction weight shows up directly in end-to-end wall-clock.
    """

    __slots__ = ("block", "index", "instruction", "address", "taken")

    def __init__(self, block: str, index: int, instruction: Instruction,
                 address: Optional[int] = None,
                 taken: Optional[bool] = None) -> None:
        self.block = block
        self.index = index
        self.instruction = instruction
        self.address = address
        self.taken = taken

    def __repr__(self) -> str:
        return (
            f"TraceEntry(block={self.block!r}, index={self.index}, "
            f"instruction={self.instruction!s}, address={self.address}, "
            f"taken={self.taken})"
        )


#: kernel -> ``{(block label, index): entry}``: the one entry of each
#: plain instruction, shared by every trace of that kernel.  Held
#: outside the kernel, weakly, so ``Kernel.clone()`` copies none of it
#: and it never outlives its kernel; an entry is reused only while the
#: same instruction object sits at its position, so a CFG mutated in
#: place is re-planned, not served stale entries.
_EntryTable = Dict[Tuple[str, int], TraceEntry]
_PLAIN_ENTRIES: "weakref.WeakKeyDictionary[Kernel, _EntryTable]" = (
    weakref.WeakKeyDictionary()
)


class Kernel:
    """A compiled GPU kernel: CFG + register demand + behaviour metadata."""

    def __init__(
        self,
        name: str,
        cfg: CFG,
        category: str = "register-sensitive",
        threads_per_block: int = 256,
    ) -> None:
        if category not in ("register-sensitive", "register-insensitive"):
            raise ValueError(f"unknown workload category {category!r}")
        cfg.validate()
        self.name = name
        self.cfg = cfg
        self.category = category
        self.threads_per_block = threads_per_block

    def clone(self) -> "Kernel":
        """Deep-copy this kernel.

        Compiler passes mutate CFGs in place (block splitting, PREFETCH
        insertion), so every compilation starts from a private copy.
        """
        return copy.deepcopy(self)

    # -- static properties --------------------------------------------------

    @property
    def register_count(self) -> int:
        """Per-thread architectural register demand (max id + 1)."""
        used = self.registers_used()
        return max(used) + 1 if used else 0

    def registers_used(self) -> frozenset:
        used: set = set()
        for block in self.cfg.blocks():
            used |= block.registers()
        return frozenset(used)

    @property
    def static_instruction_count(self) -> int:
        return sum(len(block) for block in self.cfg.blocks())

    def static_instructions(self) -> Iterator[Tuple[str, int, Instruction]]:
        """Yield ``(block_label, index, instruction)`` in layout order."""
        for block in self.cfg.blocks():
            for index, instruction in enumerate(block.instructions):
                yield block.label, index, instruction

    # -- dynamic trace -----------------------------------------------------

    def trace(
        self,
        warp_id: int = 0,
        seed: int = 0,
        max_instructions: int = DEFAULT_MAX_TRACE,
    ) -> Iterator[TraceEntry]:
        """Iterate :meth:`trace_list` (same arguments, same errors)."""
        return iter(self.trace_list(warp_id, seed, max_instructions))

    def trace_list(
        self,
        warp_id: int = 0,
        seed: int = 0,
        max_instructions: int = DEFAULT_MAX_TRACE,
    ) -> List[TraceEntry]:
        """The dynamic instruction stream of one warp.

        Control flow is resolved deterministically from ``seed`` and
        ``warp_id``; two calls with the same arguments produce equal
        traces.  Raises ``RuntimeError`` if the trace exceeds
        ``max_instructions`` without reaching ``EXIT`` (a malformed
        kernel with an unbounded loop).

        The walk follows a per-block plan (:meth:`_trace_plan`): each
        run of plain instructions -- not memory, not a branch, not
        ``EXIT`` -- is appended as one prebuilt tuple of entries, so a
        plain instruction has one entry object however often it runs,
        shared by every warp, seed and call tracing this kernel.
        Memory, branch and ``EXIT`` instructions get a fresh entry per
        dynamic instance.  Entries are read-only.
        """
        rng = random.Random((seed << 20) ^ (warp_id * 0x9E3779B9))
        loop_remaining: Dict[str, int] = {}
        stream_position: Dict[int, int] = {}
        plan = self._trace_plan()
        trace: List[TraceEntry] = []
        append, extend = trace.append, trace.extend
        label = self.cfg.entry
        while True:
            steps, fallthrough = plan[label]
            next_label: Optional[str] = None
            for run, index, instruction in steps:
                if run:
                    if len(trace) + len(run) > max_instructions:
                        raise self._overlong(max_instructions)
                    extend(run)
                if instruction is None:
                    continue
                if len(trace) >= max_instructions:
                    raise self._overlong(max_instructions)
                address = None
                taken = None
                if instruction.is_memory:
                    address = self._next_address(
                        instruction, warp_id, stream_position
                    )
                if instruction.opcode is Opcode.EXIT:
                    append(TraceEntry(label, index, instruction))
                    return trace
                if instruction.is_branch:
                    taken = self._resolve_branch(
                        label, instruction, loop_remaining, rng
                    )
                    if taken:
                        next_label = instruction.target
                    elif not instruction.is_conditional:
                        # Unconditional branches are always taken.
                        next_label = instruction.target
                        taken = True
                append(TraceEntry(label, index, instruction, address, taken))
            if next_label is None:
                next_label = fallthrough
                if next_label is None:
                    raise RuntimeError(
                        f"{self.name}: fell off the end of block {label}"
                    )
            label = next_label

    def _overlong(self, max_instructions: int) -> RuntimeError:
        return RuntimeError(
            f"{self.name}: trace exceeded {max_instructions} "
            "instructions without EXIT"
        )

    def _trace_plan(self) -> Dict[str, Tuple[list, Optional[str]]]:
        """``label -> (steps, layout successor)`` for :meth:`trace_list`,
        built from the CFG as it is now.

        Each step is ``(run, index, instruction)``: a tuple of the plain
        entries before the memory, branch or ``EXIT`` instruction at
        ``index`` (``None`` for a block's trailing run).  Plain entries
        come from :data:`_PLAIN_ENTRIES`, rebuilt for any position whose
        instruction object changed.
        """
        shared = _PLAIN_ENTRIES.setdefault(self, {})
        plan: Dict[str, Tuple[list, Optional[str]]] = {}
        for block in self.cfg.blocks():
            label = block.label
            steps: list = []
            run: List[TraceEntry] = []
            for index, instruction in enumerate(block.instructions):
                if (instruction.is_memory or instruction.is_branch
                        or instruction.opcode is Opcode.EXIT):
                    steps.append((tuple(run), index, instruction))
                    run = []
                    continue
                entry = shared.get((label, index))
                if entry is None or entry.instruction is not instruction:
                    entry = shared[label, index] = TraceEntry(
                        label, index, instruction)
                run.append(entry)
            if run:
                steps.append((tuple(run), None, None))
            plan[label] = (steps, self.cfg.layout_successor(label))
        return plan

    def _resolve_branch(
        self,
        block_label: str,
        instruction: Instruction,
        loop_remaining: Dict[str, int],
        rng: random.Random,
    ) -> bool:
        if not instruction.is_conditional:
            return True
        if instruction.trip_count is not None:
            # Loop-style branch: taken trip_count - 1 times per loop entry.
            if block_label not in loop_remaining:
                loop_remaining[block_label] = instruction.trip_count - 1
            if loop_remaining[block_label] > 0:
                loop_remaining[block_label] -= 1
                return True
            del loop_remaining[block_label]   # reset for the next loop entry
            return False
        assert instruction.taken_probability is not None
        return rng.random() < instruction.taken_probability

    def _next_address(
        self,
        instruction: Instruction,
        warp_id: int,
        stream_position: Dict[int, int],
    ) -> int:
        spec = instruction.mem
        assert spec is not None
        position = stream_position.get(spec.stream, 0)
        stream_position[spec.stream] = position + 1
        # Warps walk disjoint windows of a shared footprint, mimicking
        # coalesced blocked access to one array.
        warp_offset = (warp_id * 4096) % spec.footprint_bytes
        offset = (warp_offset + position * spec.stride_bytes) % spec.footprint_bytes
        return spec.stream * _STREAM_SPACING + offset

    def dynamic_instruction_count(self, warp_id: int = 0, seed: int = 0) -> int:
        return len(self.trace_list(warp_id, seed))

    def __repr__(self) -> str:
        return (
            f"Kernel({self.name!r}, blocks={len(self.cfg)}, "
            f"regs={self.register_count}, category={self.category!r})"
        )
