"""Parametric scenario families: workloads the paper's suite doesn't cover.

The 35-workload suite calibrates against Table 1 of the paper; these
families open the *other* axes of behaviour space, as whole parametric
ladders rather than fixed points.  A scenario name is
``<family>-<parameter>`` (e.g. ``regpressure-128``) and resolves through
the :class:`~repro.workloads.registry.WorkloadRegistry`; generation is
deterministic per ``(family, parameter, seed)``, so every process --
CLI, batch-engine worker, test -- that sees the name builds the
identical kernel.

Built-in families:

* ``divergence-P`` -- divergence-heavy control flow: every loop body
  segment ends in a data-dependent diamond taken with probability
  ``P``% (the suite has at most one 50/50 diamond per body).  Stresses
  the interval former's handling of join-heavy CFGs.
* ``stream-K`` -- streaming zero-locality: ``K`` independent DRAM-bound
  streams touched once per iteration with a stride wider than a cache
  line, so neither the L1 nor a register cache ever sees reuse.  The
  latency-tolerance worst case.
* ``regpressure-N`` -- register-pressure ladder: the calibrated suite
  generator pinned to exactly ``N`` architectural registers, for
  sweeping TLP loss continuously instead of at the suite's 35 fixed
  demands.
* ``depchain-L`` -- ILP-starved dependency chain: one ``L``-instruction
  serial FMA chain per iteration (each instruction reads the previous
  result), so issue stalls come from operand latency, not capacity.
* ``divergence-P+stream-K`` -- the composed cross-product opener: ``K``
  zero-locality DRAM streams *and* ``P``% diamonds in the same loop
  body, so divergence reconvergence and memory latency tolerance
  interact instead of being probed one axis at a time.
"""

from __future__ import annotations

import hashlib
import random
import re
from typing import Callable, List, Optional, Tuple

from repro.ir.builder import KernelBuilder
from repro.ir.kernel import Kernel
from repro.registry import Provider
from repro.workloads.generator import (
    WorkloadSpec,
    _ValueRotation,
    build_kernel,
    emit_entry_parameters,
)
from repro.workloads.suites import INSENSITIVE, SENSITIVE

#: Register demand above which a 256KB file cannot hold 64 warps
#: (64 warps x 32 threads x 4 bytes = 8KB per register), i.e. the
#: boundary between the two workload categories.
_CATEGORY_THRESHOLD = 32

#: Approximate dynamic trace length per warp (matches the suite
#: generator's sizing so scenario simulations cost about the same).
_TARGET_DYNAMIC = 900


def _derive_seed(prefix: str, parameter: int, seed: int) -> int:
    """Stable cross-process RNG seed for one scenario instance."""
    blob = f"{prefix}:{parameter}:{seed}".encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:6], "little")


class ScenarioFamily:
    """One parametric workload family, resolvable by instance name."""

    def __init__(self, prefix: str, description: str, parameter: str,
                 low: int, high: int,
                 build: Callable[[int, int], Kernel],
                 category_for: Callable[[int], str],
                 examples: Tuple[str, ...]) -> None:
        self.prefix = prefix
        self.description = description
        self.parameter = parameter
        self.low = low
        self.high = high
        self.examples = examples
        self._build = build
        self._category_for = category_for
        self._pattern = re.compile(re.escape(prefix) + r"-(\d+)\Z")

    def instance_name(self, parameter: int) -> str:
        return f"{self.prefix}-{parameter}"

    def parse(self, name: str) -> Optional[int]:
        """The parameter encoded in ``name``, or None if not this family."""
        found = self._pattern.match(name)
        return int(found.group(1)) if found else None

    def check_parameter(self, parameter: int) -> int:
        if not self.low <= parameter <= self.high:
            raise ValueError(
                f"{self.prefix} parameter {parameter} outside "
                f"[{self.low}, {self.high}] "
                f"({self.parameter})"
            )
        return parameter

    def build(self, parameter: int, seed: int = 0) -> Kernel:
        return self._build(self.check_parameter(parameter), seed)

    def category_for(self, parameter: int) -> str:
        return self._category_for(self.check_parameter(parameter))

    def match(self, name: str):
        """A lazy provider for ``name``, or None if not this family."""
        parameter = self.parse(name)
        if parameter is None:
            return None
        self.check_parameter(parameter)   # fail at resolve, not build
        return Provider(
            name, f"family:{self.prefix}",
            lambda: self.build(parameter),
            description=(
                f"{self.description} ({self.parameter.split(';')[0]}"
                f" = {parameter})"
            ),
            category=self.category_for(parameter),
        )

    def __repr__(self) -> str:
        return (
            f"ScenarioFamily({self.prefix!r}, "
            f"parameter {self.low}..{self.high})"
        )


class ComposedScenarioFamily(ScenarioFamily):
    """Cross-product family: ``divergence-P+stream-K``.

    The parameter is a ``(taken_percent, streams)`` pair parsed from
    the two-part instance name; everything else (lazy provider, memo
    invalidation, registry resolution) rides on the base class, which
    only requires ``parse`` to return a non-None hashable value.
    """

    def __init__(self) -> None:
        super().__init__(
            "divergence+stream",
            "composed: P% diamonds and K DRAM-bound streams per "
            "iteration",
            "P+K = diamond taken probability in percent (1..99) "
            "crossed with independent DRAM streams (1..32)",
            # Bounds are (P, K) pairs, like every parameter of this
            # family -- so generic family mechanics (instance_name of
            # low/high, etc.) hold unchanged.
            (1, 1), (99, 32), _build_divergence_stream,
            lambda parameter: INSENSITIVE,
            ("divergence-25+stream-4", "divergence-75+stream-8"),
        )
        self._pattern = re.compile(r"divergence-(\d+)\+stream-(\d+)\Z")

    def instance_name(self, parameter: Tuple[int, int]) -> str:
        taken_percent, streams = parameter
        return f"divergence-{taken_percent}+stream-{streams}"

    def parse(self, name: str) -> Optional[Tuple[int, int]]:
        found = self._pattern.match(name)
        if found is None:
            return None
        return (int(found.group(1)), int(found.group(2)))

    def check_parameter(
            self, parameter: Tuple[int, int]) -> Tuple[int, int]:
        taken_percent, streams = parameter
        if not 1 <= taken_percent <= 99:
            raise ValueError(
                f"divergence+stream taken probability {taken_percent} "
                "outside [1, 99] (P = percent)"
            )
        if not 1 <= streams <= 32:
            raise ValueError(
                f"divergence+stream stream count {streams} outside "
                "[1, 32] (K = DRAM streams)"
            )
        return parameter


# -- family builders ----------------------------------------------------------


def _build_divergence(taken_percent: int, seed: int) -> Kernel:
    """Three loop-body segments, each ending in a P% diamond."""
    rng = random.Random(_derive_seed("divergence", taken_percent, seed))
    probability = taken_percent / 100.0
    name = f"divergence-{taken_percent}"
    builder = KernelBuilder(name, category=INSENSITIVE)
    values = _ValueRotation(16, rng)            # 24 registers total
    emit_entry_parameters(builder)

    segments = 3
    # Dynamic cost per trip: per segment one load, the branch, one arm
    # (2 ops) or the other (2 ops + jump), the join op; plus the latch.
    per_trip = segments * 7 + 3
    trips = max(5, min(40, round(_TARGET_DYNAMIC / per_trip)))

    builder.block("loop")
    accumulator = values.fresh()
    builder.alu(accumulator, rng.randrange(8))
    for segment in range(segments):
        loaded = values.fresh()
        builder.load(loaded, stream=segment + 1, footprint=8 << 20,
                     stride=128)
        # Both arms define `merged` (a phi, the way real divergent code
        # reconverges), so the join reads an initialized value on every
        # path; each arm is a two-op dependent chain off the load.
        merged = values.fresh()
        builder.branch(f"else{segment}", taken_probability=probability)
        builder.block(f"then{segment}")
        then_value = values.fresh()
        builder.fadd(then_value, loaded, accumulator)
        builder.fmul(merged, then_value, rng.randrange(8))
        builder.jump(f"join{segment}")
        builder.block(f"else{segment}")
        else_value = values.fresh()
        builder.fma(else_value, loaded, accumulator, rng.randrange(8))
        builder.alu(merged, else_value, rng.randrange(8))
        builder.block(f"join{segment}")
        builder.fadd(accumulator, accumulator, merged)
    builder.block("latch")
    builder.alu(accumulator, accumulator, 0)
    builder.branch("loop", trip_count=trips)

    builder.block("end")
    builder.store(accumulator, stream=99, footprint=1 << 20)
    builder.exit()
    return builder.build()


def _build_stream(streams: int, seed: int) -> Kernel:
    """``streams`` DRAM-bound streams, touched once each per iteration.

    Footprints are far larger than any cache and the stride is wider
    than a cache line, so every access misses everywhere: the
    zero-locality limit of memory-intensive behaviour.
    """
    name = f"stream-{streams}"
    builder = KernelBuilder(name, category=INSENSITIVE)
    rng = random.Random(_derive_seed("stream", streams, seed))
    values = _ValueRotation(16, rng)            # 24 registers total
    emit_entry_parameters(builder)

    per_trip = streams + streams // 2 + 3
    trips = max(4, min(48, round(_TARGET_DYNAMIC / per_trip)))

    builder.block("loop")
    accumulator = values.fresh()
    builder.alu(accumulator, 0)
    for stream in range(streams):
        loaded = values.fresh()
        builder.load(loaded, stream=stream + 1, footprint=64 << 20,
                     stride=512)
        if stream % 2 == 0:
            builder.fadd(accumulator, accumulator, loaded)
    builder.block("latch")
    builder.alu(accumulator, accumulator, 0)
    builder.branch("loop", trip_count=trips)

    builder.block("end")
    builder.store(accumulator, stream=99, footprint=1 << 20)
    builder.exit()
    return builder.build()


def _build_divergence_stream(parameter: Tuple[int, int],
                             seed: int) -> Kernel:
    """``K`` zero-locality streams and ``P``% diamonds in one body.

    The streams are the ``stream-K`` loads (every access a DRAM miss);
    the two diamond segments are the ``divergence-P`` shape chained
    off cacheable loads.  Divergent reconvergence therefore happens
    *while* the streaming misses are outstanding -- the interaction
    neither single-axis family exercises.
    """
    taken_percent, streams = parameter
    rng = random.Random(_derive_seed(
        "divergence+stream", taken_percent * 1000 + streams, seed
    ))
    probability = taken_percent / 100.0
    name = f"divergence-{taken_percent}+stream-{streams}"
    builder = KernelBuilder(name, category=INSENSITIVE)
    values = _ValueRotation(16, rng)            # 24 registers total
    emit_entry_parameters(builder)

    segments = 2
    per_trip = segments * 7 + streams + streams // 2 + 3
    trips = max(4, min(40, round(_TARGET_DYNAMIC / per_trip)))

    builder.block("loop")
    accumulator = values.fresh()
    builder.alu(accumulator, rng.randrange(8))
    for stream in range(streams):
        loaded = values.fresh()
        builder.load(loaded, stream=stream + 1, footprint=64 << 20,
                     stride=512)
        if stream % 2 == 0:
            builder.fadd(accumulator, accumulator, loaded)
    for segment in range(segments):
        loaded = values.fresh()
        builder.load(loaded, stream=100 + segment, footprint=8 << 20,
                     stride=128)
        # Both arms define `merged` (a phi), as in _build_divergence.
        merged = values.fresh()
        builder.branch(f"else{segment}", taken_probability=probability)
        builder.block(f"then{segment}")
        then_value = values.fresh()
        builder.fadd(then_value, loaded, accumulator)
        builder.fmul(merged, then_value, rng.randrange(8))
        builder.jump(f"join{segment}")
        builder.block(f"else{segment}")
        else_value = values.fresh()
        builder.fma(else_value, loaded, accumulator, rng.randrange(8))
        builder.alu(merged, else_value, rng.randrange(8))
        builder.block(f"join{segment}")
        builder.fadd(accumulator, accumulator, merged)
    builder.block("latch")
    builder.alu(accumulator, accumulator, 0)
    builder.branch("loop", trip_count=trips)

    builder.block("end")
    builder.store(accumulator, stream=99, footprint=1 << 20)
    builder.exit()
    return builder.build()


def _regpressure_category(registers: int) -> str:
    return SENSITIVE if registers > _CATEGORY_THRESHOLD else INSENSITIVE


def _build_regpressure(registers: int, seed: int) -> Kernel:
    """The calibrated suite generator pinned to exactly ``registers``."""
    spec = WorkloadSpec(
        name=f"regpressure-{registers}",
        category=_regpressure_category(registers),
        registers=registers,
        registers_fermi=min(64, registers),
        segments=3,
        cold_fraction=0.5,
        seed=_derive_seed("regpressure", registers, seed),
    )
    return build_kernel(spec)


def _build_depchain(chain_length: int, seed: int) -> Kernel:
    """One serial ``chain_length``-FMA dependency chain per iteration."""
    rng = random.Random(_derive_seed("depchain", chain_length, seed))
    name = f"depchain-{chain_length}"
    builder = KernelBuilder(name, category=INSENSITIVE)
    emit_entry_parameters(builder)

    trips = max(4, min(64, round(_TARGET_DYNAMIC / (chain_length + 4))))

    builder.block("loop")
    builder.load(8, stream=1, footprint=8 << 20, stride=128)
    # Each FMA reads the previous link's destination: zero ILP inside
    # the chain, so the only latency tolerance is other warps.
    previous = 8
    for link in range(chain_length):
        destination = 9 + ((link + 1) % 4)
        builder.fma(destination, previous, rng.randrange(8), previous)
        previous = destination
    builder.block("latch")
    builder.fadd(13, 13, previous)
    builder.branch("loop", trip_count=trips)

    builder.block("end")
    builder.store(13, stream=99, footprint=1 << 20)
    builder.exit()
    return builder.build()


#: The built-in families, registered into the default registry.
BUILTIN_FAMILIES: List[ScenarioFamily] = [
    ScenarioFamily(
        "divergence",
        "divergence-heavy control flow (a diamond per body segment)",
        "P = branch taken probability in percent; 1..99",
        1, 99, _build_divergence,
        lambda p: INSENSITIVE,
        ("divergence-25", "divergence-75"),
    ),
    ScenarioFamily(
        "stream",
        "streaming zero-locality memory (every access a DRAM miss)",
        "K = independent DRAM-bound streams per iteration; 1..32",
        1, 32, _build_stream,
        lambda k: INSENSITIVE,
        ("stream-4", "stream-16"),
    ),
    ScenarioFamily(
        "regpressure",
        "register-pressure ladder over the calibrated suite generator",
        "N = architectural registers per thread; 16..250",
        16, 250, _build_regpressure,
        _regpressure_category,
        ("regpressure-32", "regpressure-128"),
    ),
    ScenarioFamily(
        "depchain",
        "ILP-starved serial dependency chain",
        "L = dependent FMAs per iteration; 4..256",
        4, 256, _build_depchain,
        lambda length: INSENSITIVE,
        ("depchain-16", "depchain-64"),
    ),
    ComposedScenarioFamily(),
]
