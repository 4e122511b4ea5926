"""Benchmark: Figure 12 -- sensitivity to registers per interval."""


def test_fig12(run_figure):
    summary = run_figure("fig12")
    # Paper: 8-register intervals degrade markedly at high latency;
    # larger budgets flatten out (our model keeps a mild benefit at 32).
    assert summary["regs8_at_7x"] < summary["regs16_at_7x"]
    assert summary["regs32_at_7x"] < summary["regs16_at_7x"] * 1.2
