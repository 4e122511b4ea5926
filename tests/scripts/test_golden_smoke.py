"""Tests for the fig11 golden gate's compare, diff and update paths.

The render itself is stubbed: the committed golden is checked against
a real render by running the script (see its docstring); these tests
pin what the gate does with a render once it has one.
"""

import importlib.util
import os

import pytest

_SCRIPT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))),
    "scripts", "golden_smoke.py",
)
_spec = importlib.util.spec_from_file_location("golden_smoke", _SCRIPT)
golden_smoke = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_smoke)

TABLE = "Figure 11\nbtree  1.00  0.98\nkmeans 1.00  0.91"


class _Rendered:
    def render(self):
        return TABLE


@pytest.fixture
def golden(tmp_path, monkeypatch):
    """Point the gate at a scratch golden and stub the fig11 render."""
    path = tmp_path / "golden" / "fig11_fast.txt"
    monkeypatch.setattr(golden_smoke, "GOLDEN", path)
    monkeypatch.setattr(golden_smoke, "fig11",
                        lambda runner, workloads, jobs: _Rendered())
    return path


def test_matching_golden_passes(golden, capsys):
    golden.parent.mkdir()
    golden.write_text(TABLE + "\n")
    assert golden_smoke.main([]) == 0
    assert "byte-identical" in capsys.readouterr().out


def test_one_changed_byte_fails_with_a_diff(golden, capsys):
    golden.parent.mkdir()
    golden.write_text(TABLE.replace("0.91", "0.92") + "\n")
    assert golden_smoke.main([]) == 1
    err = capsys.readouterr().err
    assert "-kmeans 1.00  0.92\n" in err
    assert "+kmeans 1.00  0.91\n" in err
    assert "--update" in err


def test_missing_golden_exits_2(golden, capsys):
    assert golden_smoke.main([]) == 2
    assert "no golden" in capsys.readouterr().err


def test_update_writes_the_golden_the_gate_accepts(golden, capsys):
    assert golden_smoke.main(["--update"]) == 0
    assert golden.read_text() == TABLE + "\n"
    assert golden_smoke.main([]) == 0
