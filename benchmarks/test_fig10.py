"""Benchmark: Figure 10 -- register file power on configuration #7."""


def test_fig10(run_figure):
    summary = run_figure("fig10")
    # Paper: all three save power vs baseline (RFC -35%, LTRF -35%,
    # LTRF+ -46%); LTRF+ is the lowest.
    for policy in ("RFC", "LTRF", "LTRF+"):
        assert summary[f"{policy}_mean"] < 1.0
    assert summary["LTRF+_mean"] < summary["LTRF_mean"]
    assert summary["LTRF+_mean"] < summary["RFC_mean"]
