"""Benchmark: Figure 14 -- LTRF vs software-managed hierarchies."""


def test_fig14(run_figure):
    summary = run_figure("fig14")
    # Paper ordering of tolerable latency:
    # BL < RFC ~ SHRF < LTRF-strand < LTRF (register-interval).
    assert summary["BL_tolerable"] <= summary["RFC_tolerable"]
    assert summary["RFC_tolerable"] < summary["LTRF-strand_tolerable"]
    assert summary["LTRF-strand_tolerable"] < summary["LTRF_tolerable"]
