"""Benchmark: Section 4.3 -- code size, WCB storage, traffic reduction."""


def test_overheads(run_figure):
    summary = run_figure("overheads")
    # Paper: +7% (embedded bit) / +9% (explicit instruction) code size;
    # WCB ~5% of the baseline file; 4-6x fewer MRF accesses.
    # Our kernels are far smaller than real CUDA binaries, which
    # inflates the *relative* bit-vector cost.
    assert 0.02 <= summary["code_embedded_mean"] <= 0.30
    assert summary["code_explicit_mean"] > summary["code_embedded_mean"]
    assert 0.03 <= summary["wcb_share_of_256kb"] <= 0.08
    assert summary["mrf_reduction_mean"] > 1.5


def test_wcb_storage(run_figure):
    summary = run_figure("storage")
    assert summary["paper_config_bits"] == 114880
