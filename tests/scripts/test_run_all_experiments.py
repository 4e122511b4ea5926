"""Tests for scripts/run_all_experiments.py over a stubbed registry.

``FIGURES`` is replaced by three static entries, so nothing simulates;
the tests pin what the script does with the registry: the order it
renders in, the paper notes it prints and the workloads ``--fast``
passes.
"""

import importlib.util
import os
import re

import pytest

from repro.experiments import ExperimentResult, Figure

_SCRIPT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))),
    "scripts", "run_all_experiments.py",
)
_spec = importlib.util.spec_from_file_location("run_all_experiments",
                                               _SCRIPT)
run_all = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run_all)


@pytest.fixture
def calls(monkeypatch):
    """Three static entries, the middle one without a fast set."""
    seen = []

    def entry(title, fast):
        def call(runner, workloads, jobs, arch):
            seen.append((title, workloads, jobs, arch))
            result = ExperimentResult(title, "stub", ("Workload",))
            for name in workloads or ["full"]:
                result.add_row(name)
            return result
        return Figure(call, fast, f"paper: {title} note")

    monkeypatch.setattr(run_all, "FIGURES", {
        "figb": entry("Figure B", ("w1", "w2")),
        "tablea": entry("Table A", None),
        "figc": entry("Figure C", ("w3",)),
    })
    return seen


def test_renders_in_registry_order_with_paper_notes(calls, capsys):
    run_all.main(["--jobs", "3"])
    out = capsys.readouterr().out
    progress = re.findall(r"^\[\d\d:\d\d:\d\d\] (.*) done$", out, re.M)
    assert progress == ["Figure B", "Table A", "Figure C"]
    assert re.findall(r"^(.*): stub$", out, re.M) == progress
    for title in progress:
        assert f"full\n  [paper: {title} note]\n" in out
    assert calls == [(title, None, 3, None) for title in progress]
    assert "\n[engine] " in out and "\n[store] " in out


def test_fast_passes_each_entrys_fast_set(calls, capsys):
    run_all.main(["--fast"])
    out = capsys.readouterr().out
    assert calls == [
        ("Figure B", ["w1", "w2"], 1, None),
        ("Table A", None, 1, None),
        ("Figure C", ["w3"], 1, None),
    ]
    assert "w2\n  [paper: Figure B note]\n" in out
    assert "w3\n  [paper: Figure C note]\n" in out
