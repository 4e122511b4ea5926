"""Benchmark: Table 4 -- real vs optimal register-interval lengths."""


def test_table4(run_figure):
    summary = run_figure("table4")
    # Paper: real length is 89% of optimal; both tens of instructions.
    assert summary["real_avg"] > 10
    assert 0.5 <= summary["real_over_optimal"] <= 1.05
