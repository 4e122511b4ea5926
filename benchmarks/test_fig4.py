"""Benchmark: Figure 4 -- register cache hit rates (HW and SW)."""


def test_fig4(run_figure):
    summary = run_figure("fig4")
    # Paper: 8-30% hit rates; SW cache close to HW cache.  Our
    # synthetics sit slightly above the band but far below anything
    # that could hide a slow register file.
    assert summary["hw_mean"] < 0.5
    assert summary["hw_min"] > 0.02
    assert abs(summary["sw_mean"] - summary["hw_mean"]) < 0.15
