"""Smoke tests for the one-command profiling harness."""

import importlib.util
import os

import pytest

_SCRIPT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))),
    "scripts", "profile_sim.py",
)
_spec = importlib.util.spec_from_file_location("profile_sim", _SCRIPT)
profile_sim = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(profile_sim)


def test_profiles_one_combination(capsys):
    assert profile_sim.main(
        ["--workload", "btree", "--policy", "BL", "--top", "5"]
    ) == 0
    out = capsys.readouterr().out
    assert "profiled 1 simulation(s): btree x BL x 1.0x" in out
    assert "cumulative" in out          # pstats table rendered
    assert "[telemetry]" in out


def test_dumps_raw_pstats(tmp_path, capsys):
    target = tmp_path / "out.pstats"
    assert profile_sim.main(
        ["--workload", "btree", "--policy", "BL", "-o", str(target)]
    ) == 0
    assert target.exists() and target.stat().st_size > 0


def test_unknown_workload_fails_cleanly(capsys):
    assert profile_sim.main(["--workload", "no-such-kernel"]) == 2
    assert "unknown workload" in capsys.readouterr().err


def test_repeat_actually_simulates_n_times(capsys):
    """--repeat must not be collapsed by the batch engine's dedup."""
    assert profile_sim.main(
        ["--workload", "btree", "--policy", "BL", "--repeat", "3",
         "--top", "1"]
    ) == 0
    out = capsys.readouterr().out
    assert "profiled 3 simulation(s)" in out
    assert "simulated 3 run(s)" in out


def test_compare_engines_option_removed(capsys):
    """Profiling always runs the event engine that sweeps run."""
    with pytest.raises(SystemExit) as excinfo:
        profile_sim.main(["--workload", "btree", "--compare-engines"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_no_static_cache_option_removed(capsys):
    """The static-artifact caches have no off switch to profile."""
    with pytest.raises(SystemExit) as excinfo:
        profile_sim.main(["--workload", "btree", "--no-static-cache"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --no-static-cache" in \
        capsys.readouterr().err
