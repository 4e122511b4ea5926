"""BL: the conventional non-cached register file, and the Ideal variant.

Every operand read and result write goes straight to the banked main
register file.  With the baseline 1x latency this is a normal GPU; with
Table 2's slow high-capacity configurations the non-pipelined banks
throttle operand bandwidth and performance collapses -- the effect
Figure 3 demonstrates.

``IdealPolicy`` is the paper's *Ideal* comparison point: the same direct
access but with the MRF forced to baseline latency regardless of its
capacity -- an upper bound no real design can reach.
"""

from __future__ import annotations

from repro.arch.warp import Warp
from repro.ir.instruction import Instruction
from repro.policies.base import RegisterPolicy


class BaselinePolicy(RegisterPolicy):
    """Direct MRF access for every operand (the paper's BL)."""

    name = "BL"

    def operand_read_latency(self, warp: Warp, instruction: Instruction,
                             cycle: int) -> int:
        # BL's entire per-issue operand path: one grouped MRF read.
        return self.mrf.read_group(
            warp.warp_id, instruction.srcs, cycle
        ) - cycle

    def result_write(self, warp: Warp, instruction: Instruction,
                     cycle: int, to_mrf: bool = False) -> None:
        for dst in instruction.dsts:
            self.mrf.write(warp.warp_id, dst, cycle)


class IdealPolicy(BaselinePolicy):
    """BL with a zero-latency-overhead MRF (the paper's Ideal)."""

    name = "Ideal"
    forces_baseline_latency = True
