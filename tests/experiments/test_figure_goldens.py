"""Goldens for the five paper tables that need no simulation.

Each of ``table1``, ``fig2``, ``table2``, ``table4`` and ``storage``
renders through ``repro experiment <name>``; everything the command
prints above its ``[engine]`` line must equal
``tests/golden/<name>.txt``.  Regenerate only when a change to one of
these tables is intended, and say why in the change:

    PYTHONPATH=src python tests/experiments/test_figure_goldens.py --update
"""

import argparse
import contextlib
import io
import pathlib

import pytest

from repro.cli import main as cli_main

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / "golden"

#: The registry entries whose tables are pure functions of the code.
STATIC = ("table1", "fig2", "table2", "table4", "storage")


def render(name: str) -> str:
    """``repro experiment <name>``'s output above its ``[engine]`` line."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(["experiment", name]) == 0
    text = out.getvalue()
    return text[:text.index("[engine]")]


@pytest.mark.parametrize("name", STATIC)
def test_table_matches_golden(name):
    assert render(name) == (GOLDEN_DIR / f"{name}.txt").read_text()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite the goldens from fresh renders")
    args = parser.parse_args(argv)
    if not args.update:
        parser.error("run under pytest to check; pass --update to "
                     "regenerate the goldens")
    for name in STATIC:
        (GOLDEN_DIR / f"{name}.txt").write_text(render(name))
        print(f"golden updated: {GOLDEN_DIR / name}.txt")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
