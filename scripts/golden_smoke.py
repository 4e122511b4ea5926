"""CI smoke: a fresh fast fig11 renders byte-for-byte like the golden.

Renders a fast fig11 (two workloads, all four policies, the full
seven-point latency grid) into a fresh result store, so every point
genuinely simulates, and diffs the table against the committed golden
(``tests/golden/fig11_fast.txt``).  A mismatch prints a unified diff
and exits 1: either the model changed a figure by accident, or it
changed on purpose and the golden must be regenerated with
``--update`` and committed.

Usage:
    PYTHONPATH=src python scripts/golden_smoke.py            # gate
    PYTHONPATH=src python scripts/golden_smoke.py --update   # re-golden
"""

from __future__ import annotations

import argparse
import difflib
import pathlib
import sys
import tempfile

from repro.experiments import Runner, fig11

GOLDEN = (pathlib.Path(__file__).resolve().parent.parent
          / "tests" / "golden" / "fig11_fast.txt")

#: Small mixed-category subset: one compute-ish and one memory-ish
#: workload keep the smoke under a minute.
WORKLOADS = ["btree", "kmeans"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="regenerate the committed golden instead "
                             "of gating")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        result = fig11(Runner(cache_dir=tmp), workloads=WORKLOADS, jobs=1)
        text = result.render() + "\n"
    if args.update:
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(text)
        print(f"golden updated: {GOLDEN}")
        return 0

    if not GOLDEN.exists():
        print(f"error: no golden at {GOLDEN}; run with --update "
              "and commit the result", file=sys.stderr)
        return 2
    golden = GOLDEN.read_text()
    if text != golden:
        sys.stderr.writelines(difflib.unified_diff(
            golden.splitlines(keepends=True),
            text.splitlines(keepends=True),
            fromfile=str(GOLDEN), tofile="fresh fig11",
        ))
        print("error: fresh fig11 differs from the committed golden; "
              "if the change is intended, regenerate with --update and "
              "commit", file=sys.stderr)
        return 1
    print("fig11 golden smoke OK: table byte-identical to golden")
    return 0


if __name__ == "__main__":
    sys.exit(main())
