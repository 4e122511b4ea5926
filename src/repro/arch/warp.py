"""Per-warp execution state.

A warp executes its dynamic trace in order.  Where a warp stands in the
two-level scheduler (active, inactive or finished) is the SM's
bookkeeping, not the warp's: the engines track it in their own pools.

The warp carries an in-order scoreboard for data hazards -- a flat list
indexed by architectural register, holding the cycle its pending write
lands (0: nothing pending) -- and its
:class:`~repro.arch.wcb.WarpControlBlock` for the register-caching
policies.
"""

from __future__ import annotations

from typing import List

from repro.arch.wcb import WarpControlBlock
from repro.ir.kernel import TraceEntry
from repro.ir.registers import MAX_ARCH_REGS


class Warp:
    """One warp's dynamic execution state."""

    __slots__ = (
        "warp_id", "trace", "trace_len", "position", "next_ready",
        "resume_at", "wcb", "scoreboard", "instructions_issued",
        "prefetches_issued",
    )

    def __init__(self, warp_id: int, trace: List[TraceEntry]) -> None:
        self.warp_id = warp_id
        self.trace = trace
        self.trace_len = len(trace)
        self.position = 0
        #: Earliest cycle this warp may issue its next instruction.
        self.next_ready = 0
        #: For inactive warps: cycle its blocking event resolves.
        self.resume_at = 0
        self.wcb = WarpControlBlock(warp_id)
        self.scoreboard: List[int] = [0] * MAX_ARCH_REGS
        self.instructions_issued = 0
        self.prefetches_issued = 0

    # -- trace cursor -------------------------------------------------------

    def advance(self) -> None:
        self.position += 1

    # -- hazards ---------------------------------------------------------------

    def dependencies_ready_at(self) -> int:
        """Cycle at which the current instruction's registers are hazard-free.

        Reads wait for pending writers (RAW); writes wait for pending
        writers of the same register (WAW) -- sufficient for an in-order
        pipeline with out-of-order completion.

        This is the warp's *scoreboard-release* time: between a warp's
        own issues it is constant, which is what lets the event engine
        register it once as a wake-up event instead of polling it.
        """
        if self.position >= self.trace_len:
            return self.next_ready
        scoreboard = self.scoreboard
        ready = 0
        for reg in self.trace[self.position].instruction.hazard_registers:
            pending = scoreboard[reg]
            if pending > ready:
                ready = pending
        return ready

    def earliest_issue(self) -> int:
        next_ready = self.next_ready
        deps = self.dependencies_ready_at()
        return next_ready if next_ready >= deps else deps

    def __repr__(self) -> str:
        return f"Warp({self.warp_id}, pc={self.position}/{self.trace_len})"
