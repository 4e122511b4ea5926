"""Capacity experiments: Figure 3, Figure 4, Figure 9, Figure 10.

All four run the 14-workload evaluation subset and normalise to the
baseline architecture: BL on configuration #1 with the 16KB RFC budget
folded into the main register file (Section 5, "Comparison Points").

Each experiment declares its full simulation grid up front and submits
it through :meth:`Runner.simulate_many`, so ``jobs=N`` fans the grid
out over worker processes; rendering consumes the merged records in
request order and is byte-identical for any job count.
"""

from __future__ import annotations

from typing import List, Optional

from repro.arch.registry import arch_config
from repro.experiments.report import ExperimentResult, geomean, mean
from repro.experiments.runner import (
    Runner,
    SimRequest,
    simulate_vs_baseline,
)
from repro.power.energy import normalized_power
from repro.workloads import EVALUATION, workload_category


def _workloads(workloads: Optional[List[str]]) -> List[str]:
    return list(workloads) if workloads is not None else list(EVALUATION)


def fig3(runner: Runner, workloads: Optional[List[str]] = None,
         jobs: Optional[int] = None) -> ExperimentResult:
    """IPC of real vs ideal TFET-SRAM (8x capacity), normalised to baseline.

    *TFET-SRAM* is BL running on configuration #6 (real 5.3x latency);
    *Ideal TFET-SRAM* is the same capacity at baseline latency.
    """
    result = ExperimentResult(
        "Figure 3",
        "8x register file via TFET-SRAM: real vs ideal latency",
        ("Workload", "Category", "Ideal TFET", "TFET-SRAM"),
    )
    names = _workloads(workloads)
    config = arch_config("tfet-8x")
    comparison = simulate_vs_baseline(
        runner, names, ("Ideal", "BL"), config, jobs=jobs
    )
    ideal_values, real_values = [], []
    sensitive_ideal = []
    for name, base, (ideal_rec, real_rec) in comparison:
        ideal = ideal_rec.ipc / base.ipc
        real = real_rec.ipc / base.ipc
        category = workload_category(name)
        result.add_row(name, category, ideal, real)
        ideal_values.append(ideal)
        real_values.append(real)
        if category == "register-sensitive":
            sensitive_ideal.append(ideal)
    result.summary = {"ideal_mean": geomean(ideal_values)}
    # A mean over no register-sensitive workload is no finding at all.
    if sensitive_ideal:
        result.summary["ideal_sensitive_mean"] = geomean(sensitive_ideal)
    result.summary["real_mean"] = geomean(real_values)
    return result


def fig4(runner: Runner, workloads: Optional[List[str]] = None,
         jobs: Optional[int] = None) -> ExperimentResult:
    """Hardware (RFC) vs software (SHRF) register cache hit rates."""
    result = ExperimentResult(
        "Figure 4",
        "Register cache hit rate, 16KB cache, baseline configuration",
        ("Workload", "Category", "HW cache (RFC)", "SW cache (SHRF)"),
    )
    names = _workloads(workloads)
    config = arch_config("maxwell-like")
    grid = [
        SimRequest(name, policy, config)
        for name in names
        for policy in ("RFC", "SHRF")
    ]
    records = runner.simulate_many(grid, jobs=jobs)
    hw_rates, sw_rates = [], []
    for index, name in enumerate(names):
        hw_rec, sw_rec = records[2 * index:2 * index + 2]
        hw, sw = hw_rec.rfc_hit_rate, sw_rec.rfc_hit_rate
        result.add_row(name, workload_category(name), hw, sw)
        hw_rates.append(hw)
        sw_rates.append(sw)
    result.summary = {
        "hw_min": min(hw_rates), "hw_max": max(hw_rates),
        "hw_mean": mean(hw_rates), "sw_mean": mean(sw_rates),
    }
    return result


FIG9_POLICIES = ("BL", "RFC", "LTRF", "LTRF+", "Ideal")


def fig9(runner: Runner, config_id: int = 6,
         workloads: Optional[List[str]] = None,
         jobs: Optional[int] = None) -> ExperimentResult:
    """Normalised IPC of all designs on configuration #6 or #7."""
    label = {6: "Figure 9a", 7: "Figure 9b"}[config_id]
    result = ExperimentResult(
        label,
        f"IPC on configuration #{config_id}, normalised to baseline",
        ("Workload", "Category") + FIG9_POLICIES,
    )
    names = _workloads(workloads)
    config = arch_config(f"table2-{config_id}")
    comparison = simulate_vs_baseline(
        runner, names, FIG9_POLICIES, config, jobs=jobs
    )
    series = {policy: [] for policy in FIG9_POLICIES}
    for name, base, policy_records in comparison:
        row = []
        for policy, record in zip(FIG9_POLICIES, policy_records):
            value = record.ipc / base.ipc
            row.append(value)
            series[policy].append(value)
        result.add_row(name, workload_category(name), *row)
    result.summary = {
        f"{policy}_mean": geomean(values)
        for policy, values in series.items()
    }
    return result


FIG10_POLICIES = ("RFC", "LTRF", "LTRF+")


def fig10(runner: Runner, workloads: Optional[List[str]] = None,
          jobs: Optional[int] = None) -> ExperimentResult:
    """Register file power on configuration #7, normalised to baseline."""
    result = ExperimentResult(
        "Figure 10",
        "Register file power on configuration #7 (DWM), normalised",
        ("Workload", "Category") + FIG10_POLICIES,
    )
    names = _workloads(workloads)
    comparison = simulate_vs_baseline(
        runner, names, FIG10_POLICIES, arch_config("dwm-8x"), jobs=jobs
    )
    series = {policy: [] for policy in FIG10_POLICIES}
    for name, base, policy_records in comparison:
        row = []
        for policy, record in zip(FIG10_POLICIES, policy_records):
            value = normalized_power(record, base, 7, policy)
            row.append(value)
            series[policy].append(value)
        result.add_row(name, workload_category(name), *row)
    result.summary = {
        f"{policy}_mean": mean(values) for policy, values in series.items()
    }
    return result
