"""Benchmark: Figure 9 -- overall IPC on configurations #6 and #7."""


def test_fig9a_config6(run_figure):
    summary = run_figure("fig9a")
    # The paper's ordering: BL < RFC < LTRF < LTRF+ <= Ideal,
    # with LTRF within ~10% of Ideal and clearly above 1.0.
    assert summary["BL_mean"] < summary["RFC_mean"] < summary["LTRF_mean"]
    assert summary["LTRF_mean"] <= summary["LTRF+_mean"] * 1.02
    assert summary["LTRF+_mean"] > 1.0
    assert summary["LTRF+_mean"] > 0.85 * summary["Ideal_mean"]


def test_fig9b_config7(run_figure):
    summary = run_figure("fig9b")
    assert summary["BL_mean"] < summary["RFC_mean"] < summary["LTRF_mean"]
    assert summary["LTRF+_mean"] >= summary["LTRF_mean"] * 0.98
