"""Benchmark: Figure 3 -- real vs ideal TFET-SRAM 8x register file."""


def test_fig3(run_figure):
    summary = run_figure("fig3")
    # Ideal capacity helps (paper: +37% on register-sensitive);
    # the real 5.3x latency erases the gain for BL.
    assert summary["ideal_sensitive_mean"] > 1.15
    assert summary["real_mean"] < summary["ideal_mean"]
    assert summary["real_mean"] < 0.8
