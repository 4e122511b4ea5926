"""Power and technology modelling: Table 2 data, analytic CACTI-style
scaling, and the access-count energy model behind Figure 10."""

from repro.power.cacti import (
    access_energy,
    bank_latency,
    design_latency,
    design_leakage,
    network_latency,
)
from repro.power.energy import (
    PowerBreakdown,
    normalized_power,
    run_power,
)
from repro.power.tech import (
    TABLE2,
    TECHNOLOGIES,
    CellTechnology,
    RegisterFileDesign,
    design,
    gpu_config_for,
)

__all__ = [
    "CellTechnology",
    "PowerBreakdown",
    "RegisterFileDesign",
    "TABLE2",
    "TECHNOLOGIES",
    "access_energy",
    "bank_latency",
    "design",
    "design_latency",
    "design_leakage",
    "gpu_config_for",
    "network_latency",
    "normalized_power",
    "run_power",
]
