"""The arithmetic of the figures that need simulation, on a stub SM.

Every simulation a figure asks for runs through
``repro.jobs.plan.execute_request_with_telemetry``; here it is replaced
by a model that computes a :class:`RunRecord` from the request alone,
so each figure's rows and summary can be checked against values worked
out by hand.  What is pinned is the figure's own work: which grid it
asks for, how it normalises, how it averages, and where it reads a
tolerable latency off a curve.
"""

from dataclasses import fields

import pytest

from repro.arch.registry import arch_config
from repro.compiler import compile_kernel
from repro.experiments.capacity import fig4, fig10
from repro.experiments.compiler_metrics import overheads
from repro.experiments.latency_tolerance import (
    LATENCY_GRID,
    fig11,
    fig12,
    fig13,
    fig14,
)
from repro.experiments.runner import (
    RunnerStats,
    RunRecord,
    Runner,
    baseline_config,
)
from repro.jobs import plan as plan_module
from repro.workloads import get_kernel

INSENSITIVE = "register-insensitive"
SENSITIVE = "register-sensitive"


def record(request, **values):
    """A record of ``request`` with every counter zero but ``values``."""
    payload = {spec.name: 0 for spec in fields(RunRecord)}
    payload.update(workload=request.workload, policy=request.policy,
                   ipc=1.0, instructions=100)
    payload.update(values)
    return RunRecord(**payload)


@pytest.fixture
def simulate(monkeypatch):
    """Install a model of the SM; returns the requests it served."""
    served = []

    def install(model):
        def execute(request):
            served.append(request)
            # One simulation, with no host time and no events.
            return model(request), "", RunnerStats(simulated=1)

        monkeypatch.setattr(plan_module, "execute_request_with_telemetry",
                            execute)
        return served

    return install


@pytest.fixture
def runner(tmp_path):
    """A runner on a fresh store, so no test's stub records serve
    another test."""
    runner = Runner(cache_dir=str(tmp_path))
    yield runner
    runner.result_store.close()


def step(request):
    """The latency grid index of a sweep request (0 at 1x)."""
    return LATENCY_GRID.index(request.config.mrf_latency_multiple)


def linear(drop):
    """A curve losing ``drop`` of its 1x IPC per latency step."""
    return [1.0 - drop * index for index in range(len(LATENCY_GRID))]


# -- Figure 4 ------------------------------------------------------------------

#: (read hits, read misses) per (workload, policy).
HITS = {
    ("btree", "RFC"): (1, 3), ("btree", "SHRF"): (1, 1),
    ("kmeans", "RFC"): (1, 9), ("kmeans", "SHRF"): (3, 1),
}


def _hit_model(request):
    hits, misses = HITS[request.workload, request.policy]
    return record(request, rfc_read_hits=hits, rfc_read_misses=misses)


class TestFig4:
    def test_rows_and_summary(self, simulate, runner):
        simulate(_hit_model)
        result = fig4(runner, ["btree", "kmeans"])
        assert result.rows == [("btree", INSENSITIVE, 0.25, 0.5),
                               ("kmeans", INSENSITIVE, 0.1, 0.75)]
        assert result.summary == pytest.approx({
            "hw_min": 0.1, "hw_max": 0.25, "hw_mean": 0.175,
            "sw_mean": 0.625})

    def test_both_caches_run_on_the_baseline_sm(self, simulate, runner):
        served = simulate(_hit_model)
        fig4(runner, ["btree", "kmeans"])
        assert [(r.workload, r.policy) for r in served] == list(HITS)
        assert {r.config for r in served} == {arch_config("maxwell-like")}


# -- Figure 10 -----------------------------------------------------------------

#: Per-100-instruction counts: (MRF accesses, RFC accesses, RFC fills).
TRAFFIC = {
    ("btree", "BL"): (200, 0, 0), ("kmeans", "BL"): (400, 0, 0),
    ("btree", "RFC"): (20, 100, 0), ("kmeans", "RFC"): (20, 100, 0),
    ("btree", "LTRF"): (20, 100, 20), ("kmeans", "LTRF"): (20, 100, 20),
    ("btree", "LTRF+"): (10, 100, 0), ("kmeans", "LTRF+"): (10, 100, 0),
}


def _traffic_model(request):
    mrf, rfc, fills = TRAFFIC[request.workload, request.policy]
    return record(request, mrf_reads=mrf, rfc_reads=rfc, rfc_fills=fills)


class TestFig10:
    def test_rows_and_means(self, simulate, runner):
        """Energy per instruction, by hand.  The BL baseline (config
        #1, HP SRAM): 1.0 per MRF access plus 0.5 x 1.6 = 0.8 leakage,
        so 2.8 for btree (2 accesses) and 4.8 for kmeans (4).  On
        config #7 (DWM): 0.95 per MRF access, 0.5 x 1.6 x 8 x 0.002 =
        0.0128 MRF leakage; with a cache 0.3 per RFC access and 0.05
        leakage; with a WCB (LTRF, LTRF+) 0.15 per RFC access or fill
        and 0.04 leakage."""
        simulate(_traffic_model)
        result = fig10(runner, ["btree", "kmeans"])
        cached = 0.95 * 0.2 + 0.0128 + 0.3 + 0.05           # 0.5528
        ltrf = cached + 0.15 * 1.2 + 0.04                    # 0.7728
        ltrf_plus = 0.95 * 0.1 + 0.0128 + 0.3 + 0.05 + 0.15 + 0.04
        expected = {
            "btree": (cached / 2.8, ltrf / 2.8, ltrf_plus / 2.8),
            "kmeans": (cached / 4.8, ltrf / 4.8, ltrf_plus / 4.8),
        }
        assert [row[:2] for row in result.rows] == [
            ("btree", INSENSITIVE), ("kmeans", INSENSITIVE)]
        for row in result.rows:
            assert row[2:] == pytest.approx(expected[row[0]])
        assert result.summary == pytest.approx({
            f"{policy}_mean": (values[0] + values[1]) / 2
            for policy, values in zip(
                ("RFC", "LTRF", "LTRF+"),
                zip(expected["btree"], expected["kmeans"]))
        })

    def test_policies_run_on_dwm_against_a_bl_baseline(self, simulate, runner):
        served = simulate(_traffic_model)
        fig10(runner, ["btree"])
        assert [(r.policy, r.config) for r in served] == [
            ("BL", baseline_config()), ("RFC", arch_config("dwm-8x")),
            ("LTRF", arch_config("dwm-8x")), ("LTRF+", arch_config("dwm-8x")),
        ]


# -- Figure 11 -----------------------------------------------------------------

#: Normalised IPC curves per (workload, policy).  bfs's LTRF curve at
#: full scale dips at 2x and recovers at 3x; LTRF+ here has its shape.
CURVES = {
    ("btree", "BL"): linear(0.10),
    ("btree", "RFC"): [1.0, 1.0, 0.97, 0.90, 0.80, 0.70, 0.60],
    ("btree", "LTRF"): [1.0, 1.0, 1.0, 0.99, 0.98, 0.97, 0.96],
    ("btree", "LTRF+"): [1.00, 0.84, 0.96, 0.89, 0.87, 0.83, 0.70],
    ("backprop", "BL"): linear(0.20),
    ("backprop", "RFC"): [1.0, 0.98, 0.96, 0.90, 0.80, 0.70, 0.60],
    ("backprop", "LTRF"): [1.0, 0.99, 0.98, 0.97, 0.96, 0.90, 0.85],
    ("backprop", "LTRF+"): [1.0, 0.96, 0.96, 0.94, 0.5, 0.5, 0.5],
}


def _curve_model(request):
    """IPC on the request's curve, scaled by a per-series constant so
    only a series normalised to its own 1x reads the curve back."""
    scale = 1.0 + len(request.workload) + len(request.policy)
    curve = CURVES[request.workload, request.policy]
    return record(request, ipc=scale * curve[step(request)])


class TestFig11:
    def test_rows_and_means(self, simulate, runner):
        """BL losing 10% per step crosses 95% halfway to 2x (1.5x);
        btree's RFC crosses 2/7 of the way from 0.97 at 3x to 0.90 at
        4x; a curve that never crosses tolerates the whole grid (7x)."""
        simulate(_curve_model)
        result = fig11(runner, ["btree", "backprop"])
        assert [row[:2] for row in result.rows] == [
            ("btree", INSENSITIVE), ("backprop", SENSITIVE)]
        btree, backprop = (row[2:] for row in result.rows)
        assert btree == pytest.approx((1.5, 3 + 2 / 7, 7.0, 1.3125))
        assert backprop == pytest.approx((1.25, 3 + 1 / 6, 5 + 1 / 6, 3.5))
        assert result.summary == pytest.approx({
            "BL_mean": 1.375, "RFC_mean": (6 + 2 / 7 + 1 / 6) / 2,
            "LTRF_mean": (12 + 1 / 6) / 2, "LTRF+_mean": (1.3125 + 3.5) / 2})

    def test_dip_and_recovery_stops_at_the_first_crossing(self, simulate,
                                                          runner):
        """1.00 -> 0.84 crosses 0.95 at 0.05/0.16 of the first step;
        the recovery to 0.96 at 3x does not count."""
        simulate(_curve_model)
        result = fig11(runner, ["btree"])
        assert result.rows[0][5] == pytest.approx(1.3125)

    def test_loss_sets_the_threshold(self, simulate, runner):
        """At 15% loss BL (10% per step) crosses halfway from 2x to
        3x, and backprop's LTRF+ holds 0.94 at 4x, then falls to 0.5."""
        simulate(_curve_model)
        result = fig11(runner, ["btree", "backprop"],
                       loss=0.15)
        assert result.rows[0][2] == pytest.approx(2.5)
        assert result.rows[1][5] == pytest.approx(4 + 0.09 / 0.44)
        assert result.caption == "Maximum tolerable RF latency (<= 15% " \
            "IPC loss)"

    def test_every_series_sweeps_the_whole_grid(self, simulate, runner):
        served = simulate(_curve_model)
        fig11(runner, ["btree"], arch="tfet-8x")
        assert [(r.policy, step(r)) for r in served] == [
            (policy, index) for policy in ("BL", "RFC", "LTRF", "LTRF+")
            for index in range(len(LATENCY_GRID))]
        assert {r.config.mrf_size_kb for r in served} == {
            arch_config("tfet-8x").mrf_size_kb}


# -- Figures 12 and 13 ---------------------------------------------------------

def _sized_model(field, drops):
    """LTRF losing ``drops[value]`` per step, where ``value`` is the
    request config's ``field``; backprop loses twice as much."""
    def model(request):
        drop = drops[getattr(request.config, field)]
        if request.workload == "backprop":
            drop *= 2
        return record(request, ipc=3.0 * (1.0 - drop * step(request)))
    return model


def assert_mean_rows(result, drops):
    """One row per latency, each column the mean of a curve losing
    ``drop`` per step on btree and twice that on backprop."""
    assert [row[0] for row in result.rows] == ["1x", "2x", "3x", "4x",
                                               "5x", "6x", "7x"]
    for index, row in enumerate(result.rows):
        assert row[1:] == pytest.approx(
            tuple(1.0 - 1.5 * drop * index for drop in drops))


class TestFig12And13:
    def test_fig12_rows_and_summary(self, simulate, runner):
        simulate(_sized_model("regs_per_interval",
                              {8: 0.05, 16: 0.01, 32: 0.02}))
        result = fig12(runner, ["btree", "backprop"])
        assert result.headers == ("Relative latency", "8 regs", "16 regs",
                                  "32 regs")
        assert_mean_rows(result, (0.05, 0.01, 0.02))
        assert result.summary == pytest.approx({
            "regs8_at_7x": 0.55, "regs16_at_7x": 0.91, "regs32_at_7x": 0.82})

    def test_fig13_rows_and_summary(self, simulate, runner):
        simulate(_sized_model("active_warps", {4: 0.04, 8: 0.02, 16: 0.02}))
        result = fig13(runner, ["btree", "backprop"])
        assert result.headers == ("Relative latency", "4 warps", "8 warps",
                                  "16 warps")
        assert_mean_rows(result, (0.04, 0.02, 0.02))
        assert result.summary == pytest.approx({
            "warps4_at_7x": 0.64, "warps8_at_7x": 0.82,
            "warps16_at_7x": 0.82})

    def test_columns_sweep_their_own_setting(self, simulate, runner):
        """The grid goes column by column, then workload, then
        latency, each point carrying its column's setting."""
        served = simulate(_sized_model("active_warps",
                                       {4: 0.04, 8: 0.02, 16: 0.02}))
        fig13(runner, ["btree", "backprop"])
        assert [(r.config.active_warps, r.workload, step(r))
                for r in served] == [
            (pool, name, index) for pool in (4, 8, 16)
            for name in ("btree", "backprop")
            for index in range(len(LATENCY_GRID))]
        assert {r.policy for r in served} == {"LTRF"}


# -- Figure 14 -----------------------------------------------------------------

#: Per-step IPC loss of each design on btree; backprop loses twice as
#: much.
FIG14_DROPS = {"BL": 0.1, "RFC": 0.03, "SHRF": 0.02, "LTRF-strand": 0.01,
               "LTRF": 0.0}


def _fig14_model(request):
    drop = FIG14_DROPS[request.policy]
    if request.workload == "backprop":
        drop *= 2
    return record(request, ipc=2.0 * (1.0 - drop * step(request)))


class TestFig14:
    def test_rows_and_tolerable_latencies(self, simulate, runner):
        """The mean curves lose 1.5x each design's btree drop per step:
        BL 15% crosses 95% a third of the way to 2x; RFC 4.5% holds at
        2x (0.955) and crosses 1/9 of the way to 3x; SHRF 3% holds to
        2x and crosses 2/3 of the way to 3x; LTRF-strand 1.5% crosses
        1/3 of the way from 4x to 5x; LTRF never crosses."""
        simulate(_fig14_model)
        result = fig14(runner, ["btree", "backprop"])
        assert_mean_rows(result, FIG14_DROPS.values())
        assert result.summary == pytest.approx({
            "BL_tolerable": 1 + 1 / 3, "RFC_tolerable": 2 + 1 / 9,
            "SHRF_tolerable": 2 + 2 / 3, "LTRF-strand_tolerable": 4 + 1 / 3,
            "LTRF_tolerable": 7.0})

    def test_tolerable_is_read_off_the_mean_curve(self, simulate, runner):
        """btree's BL alone tolerates 1.5x and backprop's 1.25x, but
        the figure reads the averaged curve: 4/3x, not their mean."""
        simulate(_fig14_model)
        summary = fig14(runner, ["btree", "backprop"]).summary
        assert summary["BL_tolerable"] == pytest.approx(4 / 3)
        assert summary["BL_tolerable"] != pytest.approx((1.5 + 1.25) / 2)


# -- Section 4.3 overheads -----------------------------------------------------

#: Per-100-instruction MRF accesses (reads, writes) per (workload, policy).
MRF_TRAFFIC = {("btree", "BL"): (300, 100), ("btree", "LTRF"): (50, 30),
               ("kmeans", "BL"): (200, 100), ("kmeans", "LTRF"): (60, 40)}


def _mrf_model(request):
    reads, writes = MRF_TRAFFIC[request.workload, request.policy]
    return record(request, mrf_reads=reads, mrf_writes=writes)


class TestOverheads:
    def test_mrf_reduction_rows_and_mean(self, simulate, runner):
        """btree: 4.0 BL accesses per instruction over LTRF's 0.8 is
        5.0x; kmeans: 3.0 over 1.0 is 3.0x; the mean is 4.0x."""
        served = simulate(_mrf_model)
        result = overheads(runner, ["btree", "kmeans"])
        assert [(row[0], row[3]) for row in result.rows] == [
            ("btree", "5.0x"), ("kmeans", "3.0x")]
        assert result.summary["mrf_reduction_mean"] == pytest.approx(4.0)
        assert {(r.policy, r.config) for r in served} == {
            ("BL", baseline_config()), ("LTRF", arch_config("tfet-8x"))}

    def test_code_size_and_wcb_storage(self, simulate, runner):
        """Code growth is the compiled kernel's own report; the WCB
        holds 64 warps x (256 x 5 + 3 + 2 x 256) bits, 5.5% of 256KB."""
        simulate(_mrf_model)
        result = overheads(runner, ["btree", "kmeans"])
        reports = [compile_kernel(get_kernel(name)).code_size
                   for name in ("btree", "kmeans")]
        assert [row[1:3] for row in result.rows] == [
            (f"{report.embedded_bit_overhead:.1%}",
             f"{report.explicit_instruction_overhead:.1%}")
            for report in reports]
        assert result.summary["code_embedded_mean"] == pytest.approx(
            sum(r.embedded_bit_overhead for r in reports) / 2)
        assert result.summary["code_explicit_mean"] == pytest.approx(
            sum(r.explicit_instruction_overhead for r in reports) / 2)
        assert result.summary["wcb_bits"] == 64 * 1795 == 114880
        assert result.summary["wcb_share_of_256kb"] == pytest.approx(
            114880 / (256 * 1024 * 8))
