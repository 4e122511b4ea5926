"""Ablation benchmarks: pass-2 merging, intervals vs strands, liveness."""

from repro.experiments import table2_config, baseline_config
from repro.experiments.report import geomean

WORKLOADS = ["btree", "backprop", "srad"]


def _mean_speedup(runner, policy, config):
    values = []
    for name in WORKLOADS:
        base = runner.simulate(name, "BL", baseline_config())
        values.append(runner.simulate(name, policy, config).ipc / base.ipc)
    return geomean(values)


def test_pass2_ablation(benchmark, runner):
    """Algorithm 2's merging must not hurt (it fuses loops: fewer
    PREFETCHes), and usually helps."""
    config = table2_config(6)

    def run():
        return (
            _mean_speedup(runner, "LTRF", config),
            _mean_speedup(runner, "LTRF-pass1", config),
        )

    full, pass1_only = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nLTRF with pass 2: {full:.3f}, pass 1 only: {pass1_only:.3f}")
    assert full >= pass1_only * 0.98


def test_strand_regions_ablation(benchmark, runner):
    """Register-intervals must beat strand regions on slow MRFs."""
    config = table2_config(6)

    def run():
        return (
            _mean_speedup(runner, "LTRF", config),
            _mean_speedup(runner, "LTRF-strand", config),
        )

    interval, strand = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nLTRF interval: {interval:.3f}, strand: {strand:.3f}")
    assert interval > strand


def test_liveness_ablation(benchmark, runner):
    """LTRF+ (liveness-aware) must not lose to plain LTRF."""
    config = table2_config(7)

    def run():
        return (
            _mean_speedup(runner, "LTRF+", config),
            _mean_speedup(runner, "LTRF", config),
        )

    plus, plain = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nLTRF+: {plus:.3f}, LTRF: {plain:.3f}")
    assert plus >= plain * 0.98
