"""Tests for the experiment harness (runner, report, metrics)."""

import pytest

from repro.experiments import (
    ExperimentResult,
    LATENCY_GRID,
    Runner,
    baseline_config,
    fig2,
    geomean,
    max_tolerable_latency,
    mean,
    render_table,
    sweep_config,
    table1,
    table2,
    table2_config,
    table4,
)
from repro.experiments.compiler_metrics import storage_report


class TestRunner:
    def test_repeat_request_is_a_store_hit(self, tmp_path):
        """A repeat request is served from the store's memo: one
        simulation, then a hit with an equal record."""
        runner = Runner(cache_dir=str(tmp_path))
        first = runner.simulate("btree", "BL", baseline_config())
        second = runner.simulate("btree", "BL", baseline_config())
        assert first == second
        assert (runner.stats.simulated, runner.stats.hits) == (1, 1)

    def test_disk_cache_roundtrip(self, tmp_path):
        config = baseline_config()
        a = Runner(cache_dir=str(tmp_path)).simulate("btree", "BL", config)
        b = Runner(cache_dir=str(tmp_path)).simulate("btree", "BL", config)
        assert a == b

    def test_distinct_configs_not_conflated(self, tmp_path):
        runner = Runner(cache_dir=str(tmp_path))
        fast = runner.simulate("btree", "BL", sweep_config(1.0))
        slow = runner.simulate("btree", "BL", sweep_config(6.3))
        assert fast.ipc != slow.ipc

    def test_table2_config(self):
        config = table2_config(7)
        assert config.mrf_latency_multiple == 6.3
        assert config.mrf_size_kb == 2048


class TestReport:
    def test_render_table_alignment(self):
        text = render_table(
            "T", ("a", "bee"), [(1.0, "x"), (2.5, "yy")], {"k": 3.0},
        )
        assert "T" in text and "bee" in text and "k: 3.000" in text

    def test_experiment_result_render(self):
        result = ExperimentResult("Fig X", "caption", ("c1",))
        result.add_row(1.234)
        assert "Fig X: caption" in result.render()
        assert "1.234" in result.render()

    def test_geomean(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)
        with pytest.raises(ValueError, match="no values"):
            geomean([])
        with pytest.raises(ValueError, match="non-positive"):
            geomean([1.0, 0.0, 4.0])
        with pytest.raises(ValueError, match="non-positive"):
            geomean([-2.0])

    def test_mean(self):
        assert mean([1.0, 3.0]) == 2.0
        with pytest.raises(ValueError, match="no values"):
            mean([])


class TestMaxTolerableLatency:
    def test_never_dropping_curve_tolerates_everything(self):
        curve = [1.0] * len(LATENCY_GRID)
        assert max_tolerable_latency(curve) == LATENCY_GRID[-1]

    def test_immediate_drop_tolerates_baseline_only(self):
        curve = [1.0] + [0.5] * (len(LATENCY_GRID) - 1)
        # Interpolates within the first segment.
        assert 1.0 <= max_tolerable_latency(curve) < 2.0

    def test_interpolation(self):
        # Crosses 0.95 exactly halfway between 2x and 3x.
        curve = [1.0, 1.0, 0.9, 0.8, 0.7, 0.6, 0.5]
        value = max_tolerable_latency(curve)
        assert 2.0 < value < 3.0

    def test_loss_threshold(self):
        curve = [1.0, 0.97, 0.92, 0.85, 0.7, 0.6, 0.5]
        strict = max_tolerable_latency(curve, loss=0.01)
        lenient = max_tolerable_latency(curve, loss=0.10)
        assert strict < lenient


class TestStaticExperiments:
    def test_table1_bands(self):
        summary = table1().summary
        assert 1.2 <= summary["fermi_avg_x"] <= 1.6
        assert 5.0 <= summary["maxwell_max_x"] <= 6.5

    def test_fig2_pascal_share(self):
        assert fig2().summary["pascal_rf_share"] > 0.6

    def test_table2_rows(self):
        result = table2()
        assert len(result.rows) == 7

    def test_table4_runs_on_subset(self):
        result = table4(workloads=["btree", "backprop"])
        assert result.summary["real_avg"] > 0
        assert result.summary["real_over_optimal"] <= 1.05

    def test_storage_report(self):
        assert storage_report().summary["paper_config_bits"] == 114880
