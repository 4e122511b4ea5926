"""Tests for the figure registry and the figure functions it declares."""

import pytest

from repro.experiments import FIGURES, ExperimentResult
from repro.experiments import capacity, figures
from repro.experiments.capacity import fig3
from repro.experiments.figures import FAST, FAST_SWEEP


class _Record:
    def __init__(self, ipc):
        self.ipc = ipc


def test_registry_is_in_paper_order():
    assert list(FIGURES) == [
        "table1", "fig2", "table2", "fig3", "fig4", "fig9a", "fig9b",
        "fig10", "fig11", "fig12", "fig13", "fig14", "table4",
        "overheads", "storage",
    ]


def test_fast_sets():
    # The benchmarks' sets: a change here moves every figure bench.
    assert FAST == ("btree", "kmeans", "backprop", "srad", "lavamd")
    assert FAST_SWEEP == ("btree", "backprop", "srad")
    fast = {name: figure.fast for name, figure in FIGURES.items()}
    assert {name for name, chosen in fast.items() if chosen == FAST} == {
        "fig3", "fig4", "fig9a", "fig9b", "fig10", "fig11", "overheads"}
    assert {name for name, chosen in fast.items()
            if chosen == FAST_SWEEP} == {"fig12", "fig13", "fig14"}
    assert {name for name, chosen in fast.items() if chosen is None} == {
        "table1", "fig2", "table2", "table4", "storage"}


def test_only_the_latency_sweeps_take_an_arch():
    assert [name for name, figure in FIGURES.items()
            if figure.arch_aware] == ["fig11", "fig12", "fig13", "fig14"]


@pytest.fixture
def calls(monkeypatch):
    """Stub fig3 and fig11 where the registry looks them up."""
    seen = []

    def stub(name):
        def figure(runner, workloads=None, **kwargs):
            seen.append((name, workloads, kwargs))
            return ExperimentResult(name, "stub", ("x",))
        return figure

    monkeypatch.setattr(figures, "fig3", stub("fig3"))
    monkeypatch.setattr(figures, "fig11", stub("fig11"))
    return seen


def test_full_run_leaves_the_default_set_and_arch(calls):
    FIGURES["fig11"].run("runner", jobs=2)
    assert calls == [("fig11", None, {"jobs": 2})]


def test_fast_run_passes_the_fast_set_and_the_arch(calls):
    FIGURES["fig11"].run("runner", jobs=1, arch="my-sm", fast=True)
    FIGURES["fig3"].run("runner", fast=True)
    assert calls == [
        ("fig11", list(FAST), {"jobs": 1, "arch": "my-sm"}),
        ("fig3", list(FAST), {"jobs": None}),
    ]


def _fake_fig3(monkeypatch, names):
    """fig3 over ``names`` with Ideal at 1.5x and real at 0.5x."""
    monkeypatch.setattr(
        capacity, "simulate_vs_baseline",
        lambda runner, workloads, policies, config, jobs: [
            (name, _Record(1.0), (_Record(1.5), _Record(0.5)))
            for name in workloads
        ],
    )
    monkeypatch.setattr(capacity, "arch_config", lambda name: None)
    return fig3("runner", names).summary


def test_fig3_reports_no_mean_over_zero_sensitive_workloads(monkeypatch):
    summary = _fake_fig3(monkeypatch, ["btree", "kmeans", "bfs"])
    assert list(summary) == ["ideal_mean", "real_mean"]


def test_fig3_sensitive_mean_covers_only_sensitive_workloads(monkeypatch):
    summary = _fake_fig3(monkeypatch, ["btree", "backprop"])
    assert list(summary) == ["ideal_mean", "ideal_sensitive_mean",
                             "real_mean"]
    assert summary["ideal_sensitive_mean"] == pytest.approx(1.5)
