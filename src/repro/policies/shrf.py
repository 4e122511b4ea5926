"""SHRF: the software-managed hierarchical register file baseline.

Models Gebhart et al.'s compile-time managed register file hierarchy
(MICRO'11), the paper's Section 6.6 comparison point.  SHRF replaces the
hardware cache's LRU guesses with compiler-directed allocation over
strand-scoped lifetimes, but its *objective* is energy, not latency
tolerance: the per-warp capacity is just as small as RFC's (the upper
level must be provisioned across all resident warps), and registers are
still moved from the MRF on first use, exposing the MRF latency.

Relative to :class:`~repro.policies.rfc.RFCPolicy` this model adds one
compile-time advantage, **dead-value elision**: values whose last use
has passed (the dead-operand bits from static liveness) are dropped
from the cache without write-back, removing most background MRF write
traffic (the design's stated goal: fewer register-file accesses).
SHRF's slices are the same size as RFC's: compiler-directed
allocation avoids LRU pathologies, but it cannot exceed the same
per-warp storage budget.

The result matches the paper's findings: SHRF's register cache hit rate
sits near RFC's (Figure 4, "SW Register File Cache"), its latency
tolerance is only ~2x (Figure 14), but it spends less register file
energy than the hardware cache.
"""

from __future__ import annotations

from repro.arch.warp import Warp
from repro.compiler.cache import liveness_kernel_for
from repro.ir.instruction import Instruction
from repro.ir.kernel import Kernel
from repro.policies.rfc import RFCPolicy


class SHRFPolicy(RFCPolicy):
    """Compile-time managed register caching (strand-scoped lifetimes)."""

    name = "SHRF"

    def executable_kernel(self, kernel: Kernel) -> Kernel:
        """SHRF needs the dead-operand bits of static liveness.

        The annotated clone depends only on the kernel content, so it
        comes from the static-artifact cache (shared; never mutated).
        """
        return liveness_kernel_for(kernel)

    def operand_read_latency(self, warp: Warp, instruction: Instruction,
                             cycle: int) -> int:
        latency = super().operand_read_latency(warp, instruction, cycle)
        # Compiler-known dead values are dropped without write-back:
        # their slots free up and no background MRF write ever happens.
        if instruction.dead_srcs:
            entries = self._slice(warp.warp_id)
            for register in instruction.dead_srcs:
                entries.pop(register, None)
        return latency
