"""Register file design points and cell-technology parameters (Table 2).

The paper characterises seven register file designs with CACTI and
NVSim, then feeds the resulting latency/area/power into GPGPU-Sim.  The
published relative numbers are reproduced here as data
(:data:`TABLE2`); the analytic model in :mod:`repro.power.cacti`
rederives the latency/area trends from circuit-level scaling, and the
energy model in :mod:`repro.power.energy` uses the per-technology
energy/leakage factors below.

All values are *relative to configuration #1*: the baseline 256KB
HP-SRAM register file with 16 banks and a full crossbar.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class CellTechnology:
    """Relative circuit parameters of one memory cell technology."""

    name: str
    #: Cell access delay relative to HP SRAM.
    delay_factor: float
    #: Cell area relative to HP SRAM (bits per unit area is 1/this).
    area_factor: float
    #: Dynamic energy per access relative to HP SRAM.
    access_energy_factor: float
    #: Leakage power per bit relative to HP SRAM.
    leakage_factor: float


#: Cell technologies used in Table 2 (and in the Section 2.2 discussion).
TECHNOLOGIES: Dict[str, CellTechnology] = {
    "HP SRAM": CellTechnology("HP SRAM", 1.0, 1.0, 1.0, 1.0),
    "LSTP SRAM": CellTechnology("LSTP SRAM", 1.15, 1.0, 0.55, 0.05),
    "TFET SRAM": CellTechnology("TFET SRAM", 5.6, 1.0, 0.30, 0.005),
    "DWM": CellTechnology("DWM", 6.7, 0.03125, 0.95, 0.002),
}


@dataclass(frozen=True)
class RegisterFileDesign:
    """One row of Table 2 (all values relative to configuration #1)."""

    config_id: int
    cell: str
    banks_scale: int            # 1x = 16 banks
    bank_size_scale: int        # 1x = 16KB per bank
    network: str                # "Crossbar" | "F. Butterfly"
    capacity_scale: int
    area_scale: float
    power_scale: float
    capacity_per_area: float
    capacity_per_power: float
    latency_scale: float

    @property
    def banks(self) -> int:
        return 16 * self.banks_scale

    @property
    def size_kb(self) -> int:
        return 256 * self.capacity_scale


#: The seven design points of Table 2, keyed by configuration id.
TABLE2: Dict[int, RegisterFileDesign] = {d.config_id: d for d in [
    RegisterFileDesign(1, "HP SRAM", 1, 1, "Crossbar", 1, 1.0, 1.0, 1.0, 1.0, 1.0),
    RegisterFileDesign(2, "HP SRAM", 1, 8, "Crossbar", 8, 8.0, 8.0, 1.0, 1.0, 1.25),
    RegisterFileDesign(3, "HP SRAM", 8, 1, "F. Butterfly", 8, 8.0, 8.0, 1.0,
                       1.0, 1.5),
    RegisterFileDesign(4, "LSTP SRAM", 1, 8, "Crossbar", 8, 8.0, 3.2, 1.0, 2.5, 1.6),
    RegisterFileDesign(5, "LSTP SRAM", 8, 1, "F. Butterfly", 8, 8.0, 3.2, 1.0,
                       2.5, 2.8),
    RegisterFileDesign(6, "TFET SRAM", 8, 1, "F. Butterfly", 8, 8.0, 1.05, 1.0,
                       7.6, 5.3),
    RegisterFileDesign(7, "DWM", 8, 1, "F. Butterfly", 8, 0.25, 0.65, 32.0, 12.0, 6.3),
]}


def design(config_id: int) -> RegisterFileDesign:
    """Look up a Table 2 design point by configuration id (1-7)."""
    try:
        return TABLE2[config_id]
    except KeyError:
        raise ValueError(
            f"unknown configuration #{config_id}; Table 2 has 1-7"
        ) from None


def gpu_config_for(config_id: int, base, **overrides):
    """Translate a Table 2 design point into a simulator configuration.

    ``base`` is the reference :class:`~repro.arch.config.GPUConfig`; the
    returned copy scales capacity, bank count, and latency to the design
    point.  Keyword overrides are applied last.
    """
    point = design(config_id)
    changes = dict(
        mrf_size_kb=base.mrf_size_kb * point.capacity_scale,
        mrf_banks=base.mrf_banks * point.banks_scale,
        mrf_latency_multiple=point.latency_scale,
    )
    changes.update(overrides)
    return base.scaled(**changes)
