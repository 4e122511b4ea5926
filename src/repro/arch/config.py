"""Simulated GPU configuration.

Defaults follow Table 3 of the paper (an NVIDIA Maxwell-like SM): 64
resident warps, a 256KB main register file (MRF) with 16 banks, a 16KB
register file cache (RFC), 8 active warps under a two-level scheduler,
and 16 registers per register-interval.

Two knobs drive the whole evaluation:

* ``mrf_latency_multiple`` -- the relative MRF access latency from
  Table 2 (1.0 for the HP-SRAM baseline, 5.3 for TFET, 6.3 for DWM).
  MRF banks are *non-pipelined* (the paper extracts timing with CACTI's
  non-pipelined models), so a slower bank is also occupied longer,
  which throttles operand bandwidth -- the effect that makes BL collapse
  on slow register files.
* ``mrf_size_kb`` -- capacity, which bounds how many warps fit
  (:meth:`GPUConfig.resident_warps_for`) and therefore the TLP available
  to hide memory latency.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


#: Bytes of one warp-register: 32 lanes x 32 bits (a 1024-bit row).
WARP_REGISTER_BYTES = 128


@dataclass(frozen=True)
class MemoryConfig:
    """Latency/geometry of the memory hierarchy below the register file."""

    l1_size_bytes: int = 16 * 1024
    l1_ways: int = 4
    line_bytes: int = 128
    l1_latency: int = 30
    llc_size_bytes: int = 128 * 1024        # one SM's slice of the 2MB LLC
    llc_ways: int = 8
    llc_latency: int = 180
    dram_latency: int = 900
    dram_service_interval: int = 2          # bandwidth: one request / 2 cycles

    def __post_init__(self) -> None:
        # These fields are arbitrary user input once .arch.json files
        # land, so every constraint fails with an actionable message
        # instead of a downstream ZeroDivisionError or an infinite
        # simulation.
        for field_name in ("line_bytes", "l1_ways", "llc_ways",
                           "l1_size_bytes", "llc_size_bytes"):
            if getattr(self, field_name) < 1:
                raise ValueError(
                    f"{field_name} must be >= 1, "
                    f"got {getattr(self, field_name)}"
                )
        for field_name in ("l1_latency", "llc_latency", "dram_latency",
                           "dram_service_interval"):
            if getattr(self, field_name) < 1:
                raise ValueError(
                    f"{field_name} must be a positive cycle count, "
                    f"got {getattr(self, field_name)}"
                )
        if self.l1_size_bytes % (self.l1_ways * self.line_bytes):
            raise ValueError("L1 geometry does not divide into sets")
        if self.llc_size_bytes % (self.llc_ways * self.line_bytes):
            raise ValueError("LLC geometry does not divide into sets")


@dataclass(frozen=True)
class GPUConfig:
    """One streaming multiprocessor's configuration."""

    name: str = "maxwell-like"
    # Warp supply.
    max_resident_warps: int = 64
    active_warps: int = 8
    # Main register file.
    mrf_size_kb: int = 256
    mrf_banks: int = 16
    mrf_base_bank_latency: int = 2
    mrf_latency_multiple: float = 1.0
    mrf_crossbar_latency: int = 1
    #: LTRF narrows the MRF crossbar by 4x (Section 4.2): transfers take
    #: longer but the latency-tolerant design absorbs it.
    narrow_crossbar: bool = False
    narrow_crossbar_factor: int = 4
    # Register file cache.
    regs_per_interval: int = 16
    rfc_latency: int = 1
    rfc_banks: int = 16
    # Pipeline.  Maxwell-like SMs have four warp schedulers.
    issue_width: int = 4
    #: Extra WCB address-table access cycle for >2 source operands
    #: (Section 4.1: two read ports per register cache address table).
    wcb_extra_operand_penalty: int = 1
    memory: MemoryConfig = MemoryConfig()

    def __post_init__(self) -> None:
        if self.active_warps < 1:
            raise ValueError("active_warps must be >= 1")
        if self.max_resident_warps < self.active_warps:
            raise ValueError("max_resident_warps must cover the active pool")
        # Written so NaN fails too: every comparison with NaN is false.
        if not 1.0 <= self.mrf_latency_multiple < float("inf"):
            raise ValueError("mrf_latency_multiple is relative; must be "
                             "finite and >= 1")
        if self.regs_per_interval < 4:
            raise ValueError("regs_per_interval must be >= 4")
        # .arch.json makes the remaining fields arbitrary user input;
        # reject degenerate values here with actionable messages rather
        # than hanging the bank scheduler or dividing by zero later.
        if self.mrf_size_kb < 1:
            raise ValueError(
                f"mrf_size_kb must be >= 1, got {self.mrf_size_kb}"
            )
        if self.mrf_banks < 1:
            raise ValueError(
                f"mrf_banks must be >= 1 (the MRF needs at least one "
                f"bank), got {self.mrf_banks}"
            )
        if self.rfc_banks < 1:
            raise ValueError(
                f"rfc_banks must be >= 1, got {self.rfc_banks}"
            )
        if self.issue_width < 1:
            raise ValueError(
                f"issue_width must be >= 1 (the SM must issue "
                f"something), got {self.issue_width}"
            )
        for field_name in ("mrf_base_bank_latency", "mrf_crossbar_latency",
                           "rfc_latency"):
            if getattr(self, field_name) < 1:
                raise ValueError(
                    f"{field_name} must be a positive cycle count, "
                    f"got {getattr(self, field_name)}"
                )
        if self.narrow_crossbar_factor < 1:
            raise ValueError(
                f"narrow_crossbar_factor must be >= 1 (it divides the "
                f"crossbar width), got {self.narrow_crossbar_factor}"
            )
        if self.wcb_extra_operand_penalty < 0:
            raise ValueError(
                f"wcb_extra_operand_penalty must be >= 0, "
                f"got {self.wcb_extra_operand_penalty}"
            )

    # -- derived quantities ------------------------------------------------

    @property
    def mrf_warp_registers(self) -> int:
        """Total warp-registers the MRF can hold."""
        return self.mrf_size_kb * 1024 // WARP_REGISTER_BYTES

    @property
    def rfc_size_kb(self) -> float:
        """RFC capacity implied by the partitioning (Section 4.1)."""
        bytes_total = (
            self.active_warps * self.regs_per_interval * WARP_REGISTER_BYTES
        )
        return bytes_total / 1024

    @property
    def mrf_bank_latency(self) -> int:
        """Effective (scaled) MRF bank access latency in cycles."""
        return max(1, round(self.mrf_base_bank_latency * self.mrf_latency_multiple))

    @property
    def mrf_bank_occupancy(self) -> int:
        """Cycles a bank is busy per access.

        The baseline HP-SRAM register file is pipelined (one access per
        cycle per bank).  The slow high-density technologies of Table 2
        are modelled after CACTI's non-pipelined banks, but their
        periphery (decode, precharge) still overlaps with the cell
        access, so occupancy grows at half the added latency rather
        than the full access time.
        """
        extra = round(
            0.5 * self.mrf_base_bank_latency * (self.mrf_latency_multiple - 1.0)
        )
        return max(1, 1 + extra)

    @property
    def operand_pipeline_depth(self) -> int:
        """Operand-collection latency absorbed by the fixed pipeline.

        Real GPU pipelines hide the baseline register-file read in fixed
        operand-collection stages: dependent instructions of *any*
        policy see the same baseline depth, so only the *excess* over
        this depth extends dependency chains (this is why every design
        scores ~1.0 at 1x relative latency in Figure 14).
        """
        return self.mrf_base_bank_latency + self.mrf_crossbar_latency

    @property
    def mrf_transfer_latency(self) -> int:
        """Crossbar traversal between MRF and RFC/collectors."""
        if self.narrow_crossbar:
            return self.mrf_crossbar_latency * self.narrow_crossbar_factor
        return self.mrf_crossbar_latency

    @property
    def crossbar_regs_per_cycle(self) -> int:
        """Registers the MRF crossbar moves per cycle during prefetch."""
        width = self.mrf_banks
        if self.narrow_crossbar:
            width = max(1, width // self.narrow_crossbar_factor)
        return width

    def resident_warps_for(self, registers_per_thread: int) -> int:
        """Warps that fit given a kernel's per-thread register demand.

        The register file must hold every resident warp's architectural
        registers (the paper's TLP-limiting mechanism, Section 2.1).
        """
        if registers_per_thread <= 0:
            return self.max_resident_warps
        fit = self.mrf_warp_registers // registers_per_thread
        return max(1, min(self.max_resident_warps, fit))

    def scaled(self, **changes) -> "GPUConfig":
        """A copy with the given fields replaced (convenience wrapper)."""
        return replace(self, **changes)

    def with_latency_multiple(self, multiple: float) -> "GPUConfig":
        return self.scaled(mrf_latency_multiple=multiple)
