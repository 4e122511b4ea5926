"""Benchmark: Figure 11 -- maximum tolerable register file latency."""


def test_fig11(run_figure):
    summary = run_figure("fig11")
    # Paper means: BL 1x, RFC 2.1x, LTRF 5.3x, LTRF+ 6.2x.  Shape:
    # BL lowest, RFC ~2x, LTRF well above RFC, LTRF+ >= LTRF.
    assert summary["BL_mean"] < summary["RFC_mean"]
    assert summary["RFC_mean"] < summary["LTRF_mean"]
    assert summary["LTRF_mean"] <= summary["LTRF+_mean"] + 0.2
    assert summary["LTRF_mean"] > 2.0
    assert summary["LTRF_mean"] > 1.4 * summary["RFC_mean"]
