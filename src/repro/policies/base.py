"""Register-policy interface.

A register policy decides where a warp's operands live (MRF, RFC) and
what every access costs.  The SM calls these hooks:

* ``executable_kernel`` -- once per run: the policy may compile the
  kernel (region formation + PREFETCH insertion) or pass it through;
* ``operand_read_latency`` -- per issued instruction: cycles until all
  source operands are collected;
* ``result_write`` -- per completed instruction: route the destination
  write (``to_mrf=True`` when the warp is being deactivated and its
  in-flight result must land in the main register file);
* ``prefetch`` -- when a PREFETCH pseudo-instruction issues;
* ``deactivate`` / ``activate`` -- two-level scheduler transitions;
* ``finish`` -- warp retired; release resources.

Hooks that produce latency report it as *completion times*, never by
being polled: ``prefetch`` and ``activate`` return when their bulk
transfer lands, and ``deactivate``/``finish`` return when their WCB
write-back drain settles in the MRF (or ``None`` when nothing drains).
The event engine (:mod:`repro.arch.sm`) pushes each returned completion
onto its wake-up heap; a drain wakes no warp and is only counted.

Policies are constructed by the SM via ``PolicyClass(config, mrf, rfc)``
so they share the SM's timing-and-counting components.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

from repro.arch.config import GPUConfig
from repro.arch.main_register_file import MainRegisterFile
from repro.arch.rf_cache import RegisterFileCache
from repro.arch.warp import Warp
from repro.ir.instruction import Instruction
from repro.ir.kernel import Kernel


class RegisterPolicy(ABC):
    """Base class for register-file management policies."""

    #: Display name used in results and reports.
    name: str = "abstract"
    #: Set True on subclasses whose MRF must keep baseline latency
    #: regardless of the configured multiple (the Ideal design point).
    forces_baseline_latency: bool = False
    #: Set True on designs that narrow the MRF crossbar by 4x
    #: (Section 4.2): LTRF's reduced MRF traffic affords it.
    uses_narrow_crossbar: bool = False

    def __init__(self, config: GPUConfig, mrf: MainRegisterFile,
                 rfc: RegisterFileCache) -> None:
        self.config = config
        self.mrf = mrf
        self.rfc = rfc

    # -- kernel preparation ------------------------------------------------

    def executable_kernel(self, kernel: Kernel) -> Kernel:
        """The kernel whose trace the SM executes (default: unmodified)."""
        return kernel

    def prepare(self, resident_warps: int) -> None:
        """Called once per run with the resident warp count.

        Policies whose structures are provisioned per resident warp
        (e.g. RFC's slices) size themselves here.
        """

    # -- per-instruction hooks -----------------------------------------------

    @abstractmethod
    def operand_read_latency(self, warp: Warp, instruction: Instruction,
                             cycle: int) -> int:
        """Cycles to collect all source operands starting at ``cycle``."""

    @abstractmethod
    def result_write(self, warp: Warp, instruction: Instruction,
                     cycle: int, to_mrf: bool = False) -> None:
        """Route destination writes completing at ``cycle``."""

    def prefetch(self, warp: Warp, instruction: Instruction,
                 cycle: int) -> int:
        """Execute a PREFETCH; return its completion cycle.

        Policies that never compile kernels must not see PREFETCHes.
        """
        raise NotImplementedError(
            f"policy {self.name!r} cannot execute PREFETCH operations"
        )

    # -- scheduler hooks ----------------------------------------------------------

    def activate(self, warp: Warp, cycle: int) -> int:
        """Warp joins the active pool; return extra readiness latency."""
        return 0

    def deactivate(self, warp: Warp, cycle: int) -> Optional[int]:
        """Warp leaves the active pool (long-latency stall).

        Returns the cycle the warp's write-back drain completes in the
        MRF, or ``None`` when nothing needed draining.
        """
        return None

    def finish(self, warp: Warp, cycle: int) -> Optional[int]:
        """Warp retired; release any held resources.

        Returns the retirement drain's completion cycle (``None`` when
        nothing needed draining).
        """
        return None

    # -- reporting -------------------------------------------------------------

    def extra_stats(self) -> dict:
        """Policy-specific counters merged into the simulation result."""
        return {}
