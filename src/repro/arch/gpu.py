"""Multi-SM GPU wrapper.

The paper simulates 24 SMs (Table 3); all of its reported metrics are
per-SM IPC ratios, so the single-SM model in :mod:`repro.arch.sm` is
what the experiments use.  This wrapper exists for users who want
chip-level numbers: it runs ``num_sms`` independent SMs over disjoint
warp groups (GPU SMs share only the L2/DRAM, which our per-SM hierarchy
slices statically) and aggregates their results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.arch.config import GPUConfig
from repro.arch.sm import SimulationResult, StreamingMultiprocessor
from repro.ir.kernel import Kernel


@dataclass
class GPUResult:
    """Aggregate of all SMs' runs.

    Two IPC views exist because they answer different questions and
    diverge when SM loads are skewed:

    * :attr:`ipc` divides total instructions by the *slowest* SM's
      cycles (chip completion time).  Fast SMs sit idle in that tail,
      so with skewed loads the chip IPC under-reports what each SM
      sustained while it was actually running;
    * :attr:`sm_normalized_ipc` divides total instructions by total
      per-SM busy cycles -- per-SM throughput with no idle-tail
      double-counting.  Use it when comparing register-file policies
      (the paper's per-SM metric); use :attr:`ipc` when asking how fast
      the whole chip finished.
    """

    per_sm: List[SimulationResult]

    @property
    def cycles(self) -> int:
        """Chip completion time: the slowest SM."""
        return max(result.cycles for result in self.per_sm)

    @property
    def instructions(self) -> int:
        return sum(result.instructions for result in self.per_sm)

    @property
    def ipc(self) -> float:
        """Chip-level IPC: instructions per *chip* cycle.

        The denominator is the slowest SM's completion time, so this
        charges every SM for the straggler's idle tail.
        """
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def sm_normalized_ipc(self) -> float:
        """Per-SM-normalised IPC: instructions per SM *busy* cycle.

        Weighted per-cycle aggregate (sum of instructions over sum of
        cycles), immune to load skew across SMs.
        """
        total_cycles = sum(result.cycles for result in self.per_sm)
        return self.instructions / total_cycles if total_cycles else 0.0

    @property
    def mean_sm_ipc(self) -> float:
        """Unweighted mean of the per-SM IPCs (each SM counts equally)."""
        values = [result.ipc for result in self.per_sm]
        return sum(values) / len(values) if values else 0.0

    @property
    def host_seconds(self) -> float:
        """Total host wall-clock across the per-SM simulations."""
        return sum(result.host_seconds for result in self.per_sm)

    @property
    def event_counts(self) -> dict:
        """Wake-up events registered across all SMs, by kind."""
        totals: dict = {}
        for result in self.per_sm:
            for kind, count in result.event_counts.items():
                totals[kind] = totals.get(kind, 0) + count
        return totals


class GPU:
    """A chip of independent SMs running the same kernel grid."""

    def __init__(self, config: GPUConfig, policy_factory,
                 num_sms: int = 24) -> None:
        if num_sms < 1:
            raise ValueError("num_sms must be positive")
        self.config = config
        self.policy_factory = policy_factory
        self.num_sms = num_sms

    def run(self, kernel: Kernel, seed: int = 0) -> GPUResult:
        """Run ``kernel`` on every SM with per-SM distinct warp seeds.

        The policy's executable form of the kernel (e.g. LTRF's
        compiled artifact) depends only on the kernel and the shared
        configuration, so it is constructed once and shared by all
        ``num_sms`` simulations instead of being recompiled per SM.
        """
        results = []
        executable = None
        for sm_index in range(self.num_sms):
            sm = StreamingMultiprocessor(self.config, self.policy_factory)
            if executable is None:
                executable = sm.policy.executable_kernel(kernel)
            results.append(
                sm.run(kernel, seed=seed + sm_index * 1009,
                       executable=executable)
            )
        return GPUResult(per_sm=results)
