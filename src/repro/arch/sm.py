"""The streaming multiprocessor: the simulator's scheduling core.

A single-issue SM with a two-level warp scheduler (Section 3.2, after
Narasiman et al. and Gebhart et al.):

* up to ``config.active_warps`` warps are *active* and arbitrated
  round-robin; the remaining resident warps wait inactive;
* a warp that issues a global load that misses in the L1 is deactivated;
  its result returns to the main register file while it waits;
* when an active slot frees, the inactive warp whose blocking event
  resolved earliest is activated; the register policy may charge an
  activation latency (LTRF refetches the warp's register working set,
  overlapping the refetch with other warps' execution).

The register policy (:mod:`repro.policies`) decides where operands live
and what every access costs; the SM owns instruction issue, hazards,
scheduling, and the memory hierarchy.

Timing model: one issue slot per scheduler per cycle.  Two engines
implement it:

* the **event engine** (default) keeps a wake-up heap keyed by absolute
  cycle, its entries typed by :class:`repro.arch.events.EventKind`.
  Latency-producing components -- the memory hierarchy, the MRF's bulk
  prefetch port, the per-warp scoreboard, the policies' write-back
  drains -- return completion times, and the SM pushes each as a typed
  event.  When no warp can issue, the clock jumps directly to the
  earliest pending event, so a fully-stalled phase (every warp parked
  on a 400-cycle memory response) costs a handful of heap operations
  instead of per-cycle Python work;
* the **dense engine** is the retained reference implementation: it
  walks the active pool every cycle, re-deriving readiness by polling
  every warp.  It is observationally identical to the event engine
  (pinned by ``tests/arch/test_engine_equivalence.py``) and exists as
  the oracle for that equivalence, not for speed.  It keeps no heap and
  counts only the WCB drains.

Everything outside the tests simulates on the event engine; the oracle
is selected only with ``StreamingMultiprocessor(..., engine="dense")``.
An SM runs once: its register files, caches, DRAM queue and policy keep
the state of the run, so each simulation builds its own.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Dict, List, Optional

from repro.arch.config import GPUConfig
from repro.arch.events import EventKind
from repro.arch.main_register_file import MainRegisterFile
from repro.arch.memory import MemoryHierarchy
from repro.arch.rf_cache import RegisterFileCache
from repro.arch.warp import Warp
from repro.compiler.cache import cached_trace_list
from repro.ir.instruction import Opcode
from repro.ir.kernel import Kernel

#: Safety valve: simulations beyond this many cycles indicate livelock.
MAX_CYCLES = 50_000_000

#: Engine registry: the production engine and its test oracle.
ENGINES = ("event", "dense")


def mrf_config_for(config: GPUConfig, policy_factory) -> GPUConfig:
    """The configuration the MRF is built from under ``policy_factory``.

    Two policy traits transform the MRF's timing relative to the
    simulated architecture: the Ideal design point forces baseline
    latency regardless of the configured multiple, and LTRF narrows
    the MRF crossbar by 4x (Section 4.2) -- design choices of those
    architectures, so they travel with the policy rather than the
    configuration.
    """
    mrf_config = config
    if getattr(policy_factory, "forces_baseline_latency", False):
        mrf_config = config.with_latency_multiple(1.0)
    if getattr(policy_factory, "uses_narrow_crossbar", False):
        mrf_config = mrf_config.scaled(narrow_crossbar=True)
    return mrf_config


@dataclass
class SimulationResult:
    """Aggregate outcome of simulating one kernel on one SM.

    Fields marked ``compare=False`` are host-side telemetry: they
    describe how the simulation *ran* (which engine, how fast, how many
    wake-up events) rather than what it *computed*, so two runs of
    different engines compare equal when architecturally identical.
    """

    kernel: str
    policy: str
    config: GPUConfig
    cycles: int
    instructions: int
    prefetch_operations: int
    resident_warps: int
    activations: int
    deactivations: int
    mrf_reads: int
    mrf_writes: int
    rfc_reads: int
    rfc_writes: int
    rfc_read_hits: int
    rfc_read_misses: int
    rfc_fills: int
    rfc_writebacks: int
    l1_hit_rate: float
    extra: dict = field(default_factory=dict)
    #: Engine that produced this result (one of :data:`ENGINES`).
    engine: str = field(default="event", compare=False)
    #: Wake-up events registered, by :class:`EventKind` (telemetry).
    event_counts: Dict[str, int] = field(default_factory=dict, compare=False)
    #: Idle cycles the event engine jumped over instead of ticking.
    cycles_skipped: int = field(default=0, compare=False)
    #: Host wall-clock seconds spent inside the scheduling core.
    host_seconds: float = field(default=0.0, compare=False)

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def rfc_hit_rate(self) -> float:
        total = self.rfc_read_hits + self.rfc_read_misses
        return self.rfc_read_hits / total if total else 0.0

    @property
    def mrf_accesses(self) -> int:
        return self.mrf_reads + self.mrf_writes


class StreamingMultiprocessor:
    """Drives warps through a kernel under a register policy."""

    def __init__(self, config: GPUConfig, policy_factory,
                 engine: str = "event") -> None:
        """``policy_factory(config, mrf, rfc)`` builds the register policy."""
        self.config = config
        self.mrf = MainRegisterFile(mrf_config_for(config, policy_factory))
        self.rfc = RegisterFileCache(config)
        self.memory = MemoryHierarchy(config.memory)
        self.policy = policy_factory(config, self.mrf, self.rfc)
        self.activations = 0
        self.deactivations = 0
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; expected {ENGINES}")
        self.engine = engine
        #: Wake-up events pushed, by kind (see ``SimulationResult``).
        self.event_counts = dict.fromkeys(EventKind.ALL, 0)
        self.cycles_skipped = 0
        self._operand_depth = config.operand_pipeline_depth
        self._ran = False

    # -- top level ----------------------------------------------------------

    def run(self, kernel: Kernel, seed: int = 0,
            resident_warps: Optional[int] = None) -> SimulationResult:
        """Simulate ``kernel`` to completion and return the result.

        ``resident_warps`` defaults to what the register file capacity
        admits for this kernel's register demand (the TLP model).
        Policies that require compiled kernels receive the kernel via
        their factory; the SM only sees the executable trace.  A second
        call raises ``RuntimeError``: build one SM per run.
        """
        if self._ran:
            raise RuntimeError(
                "this StreamingMultiprocessor has already run and keeps "
                "that run's state; build one per run"
            )
        self._ran = True
        executable = self.policy.executable_kernel(kernel)
        if resident_warps is None:
            resident_warps = self.config.resident_warps_for(
                kernel.register_count
            )
        self.policy.prepare(resident_warps)
        warps = [
            Warp(w, cached_trace_list(executable, w, seed))
            for w in range(resident_warps)
        ]
        simulate = (self._simulate_event if self.engine == "event"
                    else self._simulate_dense)
        started = time.perf_counter()
        cycles = simulate(warps)
        host_seconds = time.perf_counter() - started
        instructions = sum(w.instructions_issued for w in warps)
        prefetches = sum(w.prefetches_issued for w in warps)
        return SimulationResult(
            kernel=kernel.name,
            policy=self.policy.name,
            config=self.config,
            cycles=cycles,
            instructions=instructions,
            prefetch_operations=prefetches,
            resident_warps=resident_warps,
            activations=self.activations,
            deactivations=self.deactivations,
            mrf_reads=self.mrf.stats.reads,
            mrf_writes=self.mrf.stats.writes,
            rfc_reads=self.rfc.stats.reads,
            rfc_writes=self.rfc.stats.writes,
            rfc_read_hits=self.rfc.stats.read_hits,
            rfc_read_misses=self.rfc.stats.read_misses,
            rfc_fills=self.rfc.stats.fills,
            rfc_writebacks=self.rfc.stats.writebacks,
            l1_hit_rate=self.memory.stats.l1_hit_rate,
            extra=self.policy.extra_stats(),
            engine=self.engine,
            event_counts=dict(self.event_counts),
            cycles_skipped=self.cycles_skipped,
            host_seconds=host_seconds,
        )

    # -- event engine -------------------------------------------------------

    def _simulate_event(self, warps: List[Warp]) -> int:
        """Event-driven scheduling: wake-up heap plus cycle skipping.

        Invariant: every unfinished warp is in exactly one place --
        the issue pool (ready now), the wake-up heap (a future typed
        completion will ready it), or the resumable heap (woken by its
        memory response, waiting for a free active slot).  Warp
        readiness only changes when the warp itself issues, activates,
        or deactivates, so each transition re-registers the warp in the
        right place and nothing is ever polled.
        """
        heap: List[tuple] = []
        policy = self.policy
        active_slots = self.config.active_warps
        issue_width = self.config.issue_width
        operand_depth = self._operand_depth

        # The issue path below is the manually inlined equivalent of
        # :meth:`_issue` (which the dense reference engine still calls):
        # at a few million issues per simulation, the method dispatch
        # and repeated ``self`` lookups are measurable.  Event pushes
        # are raw heappush calls against a local sequence counter and
        # per-kind tallies (which become :attr:`event_counts` on exit),
        # and the per-warp hazard probe in the requeue loop is the
        # open-coded body of :meth:`Warp.dependencies_ready_at`.  The
        # engine equivalence suite pins all of these code paths to each
        # other.
        memory_response = EventKind.MEMORY_RESPONSE
        prefetch_arrival = EventKind.PREFETCH_ARRIVAL
        scoreboard_release = EventKind.SCOREBOARD_RELEASE
        wcb_drain = EventKind.WCB_DRAIN
        opcode_prefetch = Opcode.PREFETCH
        policy_activate = policy.activate
        policy_prefetch = policy.prefetch
        policy_operand = policy.operand_read_latency
        policy_result = policy.result_write
        policy_deactivate = policy.deactivate
        policy_finish = policy.finish
        memory_access = self.memory.access

        seq = 0
        pushed_memory = pushed_prefetch = pushed_scoreboard = 0
        pushed_drain = 0
        active_count = 0
        #: warp_id -> warp, for warps issuable at the current cycle.
        pool: Dict[int, Warp] = {}
        #: (resume_at, warp_id, warp): woken, awaiting an active slot.
        resumable = [(0, warp.warp_id, warp) for warp in warps]
        remaining = len(warps)
        requeue: List[Warp] = []
        cycle = 0
        rr_next = 0
        skipped = 0

        try:
            while True:
                # 1. Drain due completions from the wake-up heap.
                while heap and heap[0][0] <= cycle:
                    _, _, kind, payload = heappop(heap)
                    if payload is None:
                        continue         # instrumentation-only (WCB drain)
                    if kind == memory_response:
                        heappush(
                            resumable,
                            (payload.resume_at, payload.warp_id, payload),
                        )
                    else:
                        pool[payload.warp_id] = payload

                # 2. Fill free active slots, earliest-resolved warp first.
                while resumable and active_count < active_slots:
                    _, _, warp = heappop(resumable)
                    latency = policy_activate(warp, cycle)
                    next_ready = warp.next_ready = cycle + latency
                    active_count += 1
                    self.activations += 1
                    deps = warp.dependencies_ready_at()
                    if next_ready >= deps:
                        if next_ready <= cycle:
                            pool[warp.warp_id] = warp
                        else:
                            heappush(heap, (next_ready, seq,
                                            prefetch_arrival, warp))
                            seq += 1
                            pushed_prefetch += 1
                    elif deps <= cycle:
                        pool[warp.warp_id] = warp
                    else:
                        heappush(heap, (deps, seq, scoreboard_release, warp))
                        seq += 1
                        pushed_scoreboard += 1

                if pool:
                    # 3a. Up to issue_width schedulers each issue from a
                    # distinct warp this cycle, round-robin for fairness.
                    issues_left = issue_width
                    while pool:
                        if len(pool) == 1:
                            # One candidate: round-robin is a no-op.
                            warp_id, warp = pool.popitem()
                            rr_next = warp_id + 1
                        else:
                            # Round-robin by warp id: the lowest id at
                            # or after rr_next, else the lowest overall
                            # (the pool is at most the active-warp
                            # count, so a plain scan beats anything
                            # clever).
                            best = wrap = None
                            for candidate in pool:
                                if candidate >= rr_next:
                                    if best is None or candidate < best:
                                        best = candidate
                                elif wrap is None or candidate < wrap:
                                    wrap = candidate
                            warp_id = best if best is not None else wrap
                            warp = pool.pop(warp_id)
                            rr_next = warp_id + 1

                        entry = warp.trace[warp.position]
                        instruction = entry.instruction

                        if instruction.opcode is opcode_prefetch:
                            warp.next_ready = policy_prefetch(
                                warp, instruction, cycle
                            )
                            warp.prefetches_issued += 1
                            warp.position += 1
                            if warp.position >= warp.trace_len:
                                drain = policy_finish(warp, cycle)
                                if drain is not None:
                                    heappush(heap, (drain, seq,
                                                    wcb_drain, None))
                                    seq += 1
                                    pushed_drain += 1
                                active_count -= 1
                                remaining -= 1
                            else:
                                requeue.append(warp)
                            issues_left -= 1
                            if not issues_left:
                                break
                            continue

                        operand_latency = policy_operand(
                            warp, instruction, cycle
                        )
                        # Fixed operand-collection stages absorb the
                        # baseline read latency; only the excess extends
                        # the dependency chain.
                        excess = operand_latency - operand_depth
                        start = cycle + excess if excess > 0 else cycle
                        deactivate = False

                        dsts = instruction.dsts
                        if instruction.is_long_latency:
                            access = memory_access(entry.address, start)
                            complete = access.ready_cycle
                            # Loads that miss the L1 deactivate the warp
                            # (two-level scheduler); stores are
                            # fire-and-forget.
                            if dsts and access.level != "l1":
                                deactivate = True
                        else:
                            # Fixed-latency ops, incl. shared-memory LD/ST
                            # (scratchpad: outside the L1/LLC hierarchy,
                            # never deactivates -- see _issue).
                            complete = start + instruction.execution_latency
                        if dsts:
                            scoreboard = warp.scoreboard
                            for dst in dsts:
                                scoreboard[dst] = complete
                            # Destination-less ops (stores, branches,
                            # EXIT) write nothing anywhere; every
                            # policy's result_write is a no-op for
                            # them, so skip the call entirely.
                            policy_result(warp, instruction, complete,
                                          deactivate)
                        warp.instructions_issued += 1
                        warp.position += 1

                        if warp.position >= warp.trace_len:
                            drain = policy_finish(warp, cycle)
                            if drain is not None:
                                heappush(heap, (drain, seq, wcb_drain, None))
                                seq += 1
                                pushed_drain += 1
                            active_count -= 1
                            remaining -= 1
                        elif deactivate:
                            drain = policy_deactivate(warp, cycle)
                            if drain is not None:
                                heappush(heap, (drain, seq, wcb_drain, None))
                                seq += 1
                                pushed_drain += 1
                            warp.resume_at = complete
                            active_count -= 1
                            self.deactivations += 1
                            heappush(heap, (complete, seq,
                                            memory_response, warp))
                            seq += 1
                            pushed_memory += 1
                        else:
                            warp.next_ready = cycle + 1
                            requeue.append(warp)
                        issues_left -= 1
                        if not issues_left:
                            break
                    cycle += 1
                    if requeue:
                        for warp in requeue:
                            # Open-coded Warp.dependencies_ready_at
                            # (the warp is mid-trace by construction).
                            scoreboard = warp.scoreboard
                            deps = 0
                            for reg in warp.trace[
                                warp.position
                            ].instruction.hazard_registers:
                                pending = scoreboard[reg]
                                if pending > deps:
                                    deps = pending
                            next_ready = warp.next_ready
                            if next_ready >= deps:
                                if next_ready <= cycle:
                                    pool[warp.warp_id] = warp
                                else:
                                    heappush(heap, (next_ready, seq,
                                                    prefetch_arrival, warp))
                                    seq += 1
                                    pushed_prefetch += 1
                            elif deps <= cycle:
                                pool[warp.warp_id] = warp
                            else:
                                heappush(heap, (deps, seq,
                                                scoreboard_release, warp))
                                seq += 1
                                pushed_scoreboard += 1
                        requeue.clear()
                else:
                    # 3b. Nothing issuable: jump to the next pending event.
                    if remaining == 0:
                        break
                    if not heap:
                        raise RuntimeError(
                            "event engine stalled: unfinished warps but no "
                            "pending events"
                        )
                    next_cycle = heap[0][0]
                    if next_cycle <= cycle:
                        next_cycle = cycle + 1
                    skipped += next_cycle - cycle - 1
                    cycle = next_cycle
                if cycle > MAX_CYCLES:
                    raise RuntimeError("simulation exceeded MAX_CYCLES")
        finally:
            self.event_counts = {
                memory_response: pushed_memory,
                prefetch_arrival: pushed_prefetch,
                scoreboard_release: pushed_scoreboard,
                wcb_drain: pushed_drain,
            }
        self.cycles_skipped = skipped
        return cycle

    # -- dense reference engine ---------------------------------------------

    def _simulate_dense(self, warps: List[Warp]) -> int:
        """Reference implementation: poll every warp, every cycle.

        Retained verbatim as the oracle the event engine is tested
        against; prefer the event engine everywhere else.
        """
        active: List[Warp] = []
        inactive: List[Warp] = list(warps)
        cycle = 0
        rr_next = 0

        issue_width = self.config.issue_width
        while True:
            # Fill free active slots with resumable inactive warps.
            self._activate_ready(active, inactive, cycle)

            issuable = [
                w for w in active
                if w.earliest_issue() <= cycle
            ]
            if issuable:
                # Up to issue_width schedulers each issue from a
                # distinct warp this cycle, round-robin for fairness.
                for _ in range(min(issue_width, len(issuable))):
                    if not issuable:
                        break
                    warp = self._round_robin(issuable, rr_next)
                    rr_next = warp.warp_id + 1
                    issuable.remove(warp)
                    self._issue(warp, cycle, active, inactive)
                cycle += 1
            else:
                if not active and not inactive:
                    break
                next_cycle = self._next_event(active, inactive, cycle)
                if next_cycle is None:
                    break
                cycle = next_cycle
            if cycle > MAX_CYCLES:
                raise RuntimeError("simulation exceeded MAX_CYCLES")
        return cycle

    def _activate_ready(self, active: List[Warp],
                        inactive: List[Warp], cycle: int) -> None:
        while len(active) < self.config.active_warps:
            candidates = [w for w in inactive if w.resume_at <= cycle]
            if not candidates:
                return
            warp = min(candidates, key=lambda w: (w.resume_at, w.warp_id))
            inactive.remove(warp)
            latency = self.policy.activate(warp, cycle)
            warp.next_ready = cycle + latency
            active.append(warp)
            self.activations += 1

    @staticmethod
    def _round_robin(issuable: List[Warp], rr_next: int) -> Warp:
        following = [w for w in issuable if w.warp_id >= rr_next]
        pool = following or issuable
        return min(pool, key=lambda w: w.warp_id)

    def _next_event(self, active: List[Warp],
                    inactive: List[Warp], cycle: int) -> Optional[int]:
        events = [w.earliest_issue() for w in active]
        if len(active) < self.config.active_warps:
            events.extend(w.resume_at for w in inactive)
        if not events:
            return None
        return max(cycle + 1, min(events))

    # -- instruction issue --------------------------------------------------

    def _issue(self, warp: Warp, cycle: int,
               active: List[Warp], inactive: List[Warp]) -> None:
        entry = warp.trace[warp.position]
        instruction = entry.instruction

        if instruction.opcode is Opcode.PREFETCH:
            completion = self.policy.prefetch(warp, instruction, cycle)
            warp.next_ready = completion
            warp.prefetches_issued += 1
            warp.advance()
            self._retire_if_done(warp, cycle, active)
            return

        operand_latency = self.policy.operand_read_latency(
            warp, instruction, cycle
        )
        # Fixed operand-collection stages absorb the baseline read
        # latency; only the excess extends the dependency chain.
        excess = operand_latency - self._operand_depth
        start = cycle + excess if excess > 0 else cycle
        deactivate = False

        if instruction.is_long_latency:
            access = self.memory.access(entry.address, start)
            complete = access.ready_cycle
            # Loads that miss the L1 deactivate the warp (two-level
            # scheduler); stores are fire-and-forget.
            if instruction.dsts and not access.is_l1_hit:
                deactivate = True
        else:
            # Everything else -- including shared-memory LD/ST -- has a
            # fixed latency.  Shared memory is an on-chip scratchpad, not
            # part of the L1/LLC hierarchy, so those ops neither touch
            # ``self.memory`` nor count toward ``l1_hit_rate``, and they
            # never deactivate a warp (tests/arch/test_sm.py pins this).
            complete = start + instruction.execution_latency
        scoreboard = warp.scoreboard
        for dst in instruction.dsts:
            scoreboard[dst] = complete
        self.policy.result_write(
            warp, instruction, complete, to_mrf=deactivate
        )
        warp.instructions_issued += 1
        warp.advance()

        if self._retire_if_done(warp, cycle, active):
            return
        if deactivate:
            if self.policy.deactivate(warp, cycle) is not None:
                self.event_counts[EventKind.WCB_DRAIN] += 1
            warp.resume_at = complete
            active.remove(warp)
            inactive.append(warp)
            self.deactivations += 1
        else:
            warp.next_ready = cycle + 1

    def _retire_if_done(self, warp: Warp, cycle: int,
                        active: List[Warp]) -> bool:
        if warp.position < warp.trace_len:
            return False
        if self.policy.finish(warp, cycle) is not None:
            self.event_counts[EventKind.WCB_DRAIN] += 1
        if warp in active:
            active.remove(warp)
        return True
