"""Synthetic workload generator.

The paper evaluates on 35 CUDA SDK / Rodinia / Parboil workloads.  We
cannot ship those binaries, so this module generates synthetic kernels
whose *register behaviour* and *memory behaviour* are the controlled
quantities (repro_why: trace-driven register working-set simulation):

* **register pressure** -- distinct architectural registers per thread,
  which limits resident warps (the TLP model) and distinguishes
  register-sensitive from register-insensitive workloads;
* **register lifetime structure** -- a fresh value is produced roughly
  every other instruction and consumed (a) once immediately (dependency
  chain) and (b) once 15-30 dynamic instructions later (*lagged* read).
  The lagged distance is the load-bearing calibration: it is long
  enough that a conventional LRU register cache has displaced the value
  (the paper's Figure 4: 8-30% hit rates), yet the value still sits in
  the ~16-register rolling window, so compile-time register-intervals
  of ~30 dynamic instructions cover it (the paper's Table 4) -- the
  asymmetry LTRF exploits;
* **memory intensity and locality** -- each loop body issues loads from
  a *hot* stream (small footprint, L1-resident) and a *cold* stream
  (large footprint, misses), setting the warp deactivation rate and how
  much TLP (and therefore register file capacity) the workload craves;
* **control structure** -- loop trip counts, optional inner loops and
  data-dependent diamonds exercise the interval former.

Generation is deterministic per spec (seeded), so every experiment and
test sees identical kernels.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from repro.ir.builder import KernelBuilder
from repro.ir.instruction import Opcode
from repro.ir.kernel import Kernel

#: First architectural register used for rotating values; r0-r7 hold
#: long-lived "parameters" initialised in the entry block.
_VALUE_BASE = 8


@dataclass(frozen=True)
class WorkloadSpec:
    """Recipe for one synthetic workload."""

    name: str
    category: str                     # register-sensitive / -insensitive
    #: Per-thread architectural register demand (Maxwell-like compiler).
    registers: int
    #: Demand when compiled with the Fermi 64-register cap (Table 1).
    registers_fermi: int
    #: Main-loop iterations (upper bound; trips auto-scale down so the
    #: dynamic trace stays near ``target_dynamic`` instructions).
    loop_trips: int = 32
    #: Straight-line value-producing segments per loop body.
    segments: int = 3
    #: Global loads per segment.
    loads_per_segment: int = 1
    #: Fraction of loads that miss the L1 (split between an LLC-resident
    #: warm stream and a DRAM-bound cold stream by ``dram_fraction``).
    cold_fraction: float = 0.5
    #: Of the missing loads, the share that goes all the way to DRAM.
    dram_fraction: float = 0.5
    #: Fraction of ALU sources read from the long-lived parameter
    #: registers r0-r7 (kept low: parameter-heavy reads would be
    #: permanently cache-hot and mask the churn the paper measures).
    param_fraction: float = 0.08
    hot_footprint: int = 12 * 1024
    warm_footprint: int = 96 * 1024
    cold_footprint: int = 8 << 20
    #: Optional inner loop (trip count; 0 disables).
    inner_trips: int = 0
    #: Optional data-dependent diamond per body.
    diamond: bool = False
    use_sfu: bool = False
    use_shared: bool = False
    #: Approximate dynamic trace length per warp.
    target_dynamic: int = 900
    seed: int = 1

    def __post_init__(self) -> None:
        if not 12 <= self.registers <= 250:
            raise ValueError(f"{self.name}: registers out of range")
        if self.registers_fermi > 64:
            raise ValueError(f"{self.name}: Fermi caps registers at 64")
        if not 0.0 <= self.cold_fraction <= 1.0:
            raise ValueError(f"{self.name}: cold_fraction out of range")


class _ValueRotation:
    """Fresh destination registers over a bounded rolling window.

    Registers rotate through ``[_VALUE_BASE, _VALUE_BASE + window)`` so
    total pressure matches the spec.  ``chain`` returns the newest value
    (immediate consumption); ``lagged`` returns a value produced 6-14
    values earlier -- far enough in time to defeat an LRU cache, near
    enough in register space to stay within a 16-register interval.
    """

    def __init__(self, window: int, rng: random.Random) -> None:
        self.window = max(4, window)
        self.rng = rng
        self._produced = 0

    def _register_at(self, position: int) -> int:
        return _VALUE_BASE + (position % self.window)

    def fresh(self) -> int:
        register = self._register_at(self._produced)
        self._produced += 1
        return register

    def chain(self) -> int:
        if self._produced == 0:
            return _VALUE_BASE
        return self._register_at(self._produced - 1)

    def lagged(self) -> int:
        if self._produced == 0:
            return _VALUE_BASE
        max_lag = min(3, self.window - 1, self._produced)
        min_lag = min(2, max_lag)
        lag = self.rng.randint(min_lag, max_lag)
        return self._register_at(self._produced - lag)


def _derive_shape(spec: WorkloadSpec):
    """Body sizing: cover the register window statically, bound the trace.

    Producers claim a fresh register every other instruction, so the
    body needs about ``2 x window`` instructions to cover the window.
    Returns ``(values_per_segment, loop_trips)``.
    """
    window = spec.registers - _VALUE_BASE
    reserved = 1 + (1 if spec.inner_trips else 0) + (2 if spec.diamond else 0)
    needed = max(2, window - reserved)
    per_segment = -(-needed // spec.segments)   # loads + fresh values
    values_per_segment = max(2, per_segment - spec.loads_per_segment)
    body = spec.segments * (
        spec.loads_per_segment + 3 * values_per_segment + 1
    ) + 4
    trips = max(5, min(spec.loop_trips, round(spec.target_dynamic / body)))
    return values_per_segment, trips


def emit_entry_parameters(builder: KernelBuilder) -> None:
    """Emit the standard entry block: r0-r7 hold long-lived
    "parameter" values (shared by the suite generator and the scenario
    families in :mod:`repro.workloads.scenarios`)."""
    builder.block("entry")
    for parameter in range(_VALUE_BASE):
        builder.alu(parameter, (parameter + 1) % _VALUE_BASE)


def build_kernel(spec: WorkloadSpec) -> Kernel:
    """Materialise a :class:`WorkloadSpec` into an executable kernel."""
    rng = random.Random(spec.seed * 0x9E3779B1 + 17)
    builder = KernelBuilder(spec.name, category=spec.category)
    values = _ValueRotation(spec.registers - _VALUE_BASE, rng)
    values_per_segment, loop_trips = _derive_shape(spec)

    emit_entry_parameters(builder)

    builder.block("loop")
    stream = 0
    accumulator = values.fresh()
    builder.alu(accumulator, rng.randrange(8))
    for segment in range(spec.segments):
        stream = _emit_segment(
            builder, spec, values, rng, segment, stream,
            values_per_segment, accumulator,
        )
    if spec.inner_trips:
        builder.block("inner")
        builder.fma(accumulator, values.lagged(), rng.randrange(8), accumulator)
        builder.branch("inner", trip_count=spec.inner_trips)
        builder.block("after_inner")
    if spec.diamond:
        builder.branch("diamond_else", taken_probability=0.5)
        builder.block("diamond_then")
        builder.fadd(values.fresh(), values.chain(), values.lagged())
        builder.jump("diamond_join")
        builder.block("diamond_else")
        builder.fmul(values.fresh(), values.lagged(), rng.randrange(8))
        builder.block("diamond_join")
    builder.block("latch")
    builder.alu(accumulator, accumulator, 0)
    builder.branch("loop", trip_count=loop_trips)

    builder.block("end")
    builder.store(accumulator, stream=99, footprint=1 << 20)
    builder.exit()
    return builder.build()


def _emit_segment(builder: KernelBuilder, spec: WorkloadSpec,
                  values: _ValueRotation, rng: random.Random,
                  segment: int, stream: int, values_per_segment: int,
                  accumulator: int) -> int:
    """One producer segment of the loop body.

    Instructions alternate between *creating* a fresh value slot and
    *updating* a recently created slot in place (``x = f(x, other)``),
    the way real kernels accumulate partial results.  Each register is
    therefore written about twice and read two or three times within a
    ~10-20-instruction neighbourhood before the rotation abandons it:

    * the reuse distances (4-16 writes) are past the tiny per-warp RFC
      slice, so a conventional register cache misses most reads
      (Figure 4's 8-30% hit rates);
    * the two-writes-per-register rate halves the growth of the
      distinct-register working set, so ~16-register intervals span
      ~25-30 dynamic instructions (Table 4);
    * independent slots give the warp instruction-level parallelism,
      as a latency-aware compiler's schedule would.
    """
    slots: List[int] = []

    def recent_slot(min_back: int = 2, span: int = 3) -> int:
        """A slot ``min_back``..``min_back+span`` positions back.

        Deep enough that the producing write has left a conventional
        register cache and usually completed (no dependency stall);
        shallow enough that regions do not drag many prior-region
        registers into their working sets.
        """
        if not slots:
            return values.lagged()
        back = min(len(slots), min_back + rng.randrange(span))
        return slots[-back]

    loaded: List[int] = []
    for _ in range(spec.loads_per_segment):
        destination = values.fresh()
        loaded.append(destination)
        slots.append(destination)
        stream += 1
        if rng.random() < spec.cold_fraction:
            footprint = (
                spec.cold_footprint
                if rng.random() < spec.dram_fraction
                else spec.warm_footprint
            )
        else:
            footprint = spec.hot_footprint
        builder.load(destination, stream=stream, footprint=footprint,
                     stride=128)
    created = 0
    instructions = 3 * values_per_segment
    for index in range(instructions):
        create = created < values_per_segment and (
            rng.random() < 0.35 or len(slots) < 4
            or instructions - index <= values_per_segment - created
        )
        source_a = (
            loaded[index % len(loaded)]
            if loaded and index < 2
            else recent_slot()
        )
        source_b = (
            rng.randrange(8)
            if rng.random() < spec.param_fraction
            else recent_slot()
        )
        if create:
            destination = values.fresh()
            slots.append(destination)
            created += 1
            if len(slots) > 12:
                slots.pop(0)
        else:
            destination = recent_slot(min_back=2, span=3)
        choice = rng.random()
        if spec.use_sfu and index == 1:
            builder.sfu(destination, source_a)
        elif spec.use_shared and choice < 0.12:
            builder.load(destination, stream=200 + segment,
                         footprint=16 * 1024, shared=True)
        elif choice < 0.45:
            builder.fma(destination, source_a, source_b, rng.randrange(8))
        elif choice < 0.75:
            builder.fadd(destination, source_a, source_b)
        else:
            builder.alu(destination, source_a, source_b, op=Opcode.IADD)
    builder.fadd(accumulator, accumulator, recent_slot())
    return stream
