"""Benchmark: Figure 13 -- sensitivity to the active-warp pool size."""


def test_fig13(run_figure):
    summary = run_figure("fig13")
    # Paper: going from 4 to 8 active warps helps on slow MRFs and the
    # returns flatten beyond 8 (our model keeps a small residual gain
    # at 16).
    assert summary["warps4_at_7x"] < summary["warps8_at_7x"]
    assert summary["warps16_at_7x"] < summary["warps8_at_7x"] * 1.1
