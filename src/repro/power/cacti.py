"""Analytic register-file bank timing/area model (CACTI-style).

The paper extracts bank timing, area, and power with CACTI 6.0 and
NVSim.  This module provides a small analytic stand-in that rederives
the *trends* of Table 2 from first-order circuit scaling:

* access latency = peripheral logic + wire delay growing with the
  square root of the bank area, both scaled by the cell technology's
  delay factor, plus the interconnect traversal (full crossbar or
  flattened-butterfly hop count);
* area = cells x cell area factor + peripheral overhead;
* dynamic energy grows with bank size (longer bitlines), leakage with
  total bits.

Absolute values are normalised to the baseline 16KB HP-SRAM bank, so
results are directly comparable to the relative numbers of Table 2.
The model is validated against the published rows in
``tests/power/test_cacti.py`` -- loosely, because the published
latencies additionally include simulator queueing effects the paper
notes ("results include queuing delays incurred due to bank
conflicts").
"""

from __future__ import annotations

import math

from repro.power.tech import CellTechnology, TECHNOLOGIES

#: Fraction of the baseline bank access consumed by peripheral logic
#: (decoders, sense amps) rather than wire flight.
_PERIPHERAL_SHARE = 0.72

_BASE_BANK_KB = 16


def bank_latency(bank_kb: float, technology: CellTechnology) -> float:
    """Relative bank access latency (baseline HP-SRAM 16KB bank = 1.0).

    Peripheral delay scales with the cell's delay factor; wire delay
    additionally grows with the square root of the bank's area.
    """
    if bank_kb <= 0:
        raise ValueError("bank_kb must be positive")
    area_growth = math.sqrt(
        (bank_kb / _BASE_BANK_KB) * technology.area_factor
    )
    peripheral = _PERIPHERAL_SHARE * technology.delay_factor
    wire = (1.0 - _PERIPHERAL_SHARE) * area_growth * max(
        1.0, math.sqrt(technology.delay_factor)
    )
    return peripheral + wire


def network_latency(banks: int, topology: str = "crossbar") -> float:
    """Relative interconnect traversal latency.

    A full crossbar is a single traversal whose wire length grows with
    port count; a flattened butterfly pays per-hop router delay but
    keeps wires short (Kim et al., MICRO'07 -- the topology the paper
    adopts for 8x-banked designs).
    """
    if banks < 1:
        raise ValueError("banks must be positive")
    if topology == "crossbar":
        return 0.3 * banks / 16
    if topology == "butterfly":
        hops = max(1, round(math.log2(max(2, banks // 8))))
        return 0.2 * hops + 0.3
    raise ValueError(f"unknown topology {topology!r}")


def design_latency(bank_kb: float, banks: int, technology_name: str,
                   topology: str = "crossbar") -> float:
    """Relative end-to-end access latency of a register file design."""
    technology = TECHNOLOGIES[technology_name]
    bank = bank_latency(bank_kb, technology)
    network = network_latency(banks, topology)
    baseline = bank_latency(_BASE_BANK_KB, TECHNOLOGIES["HP SRAM"]) + (
        network_latency(16, "crossbar")
    )
    return (bank + network) / baseline


def design_leakage(total_kb: float, technology_name: str) -> float:
    """Relative leakage power (baseline 256KB HP-SRAM file = 1.0)."""
    technology = TECHNOLOGIES[technology_name]
    return (total_kb / 256) * technology.leakage_factor


def access_energy(bank_kb: float, technology_name: str) -> float:
    """Relative dynamic energy per access (baseline bank = 1.0)."""
    technology = TECHNOLOGIES[technology_name]
    bitline_growth = math.sqrt(bank_kb / _BASE_BANK_KB)
    return technology.access_energy_factor * bitline_growth
