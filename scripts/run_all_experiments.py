"""Regenerate every paper table and figure and print them.

Run with:  python scripts/run_all_experiments.py [--fast] [--jobs N]

Renders every entry of ``repro.experiments.FIGURES`` in paper order,
each followed by the paper's numbers.  ``--fast`` runs each figure on
its registry fast set (the set its benchmark uses); the full run uses
each figure's complete workload set and takes minutes cold (results
are cached under .ltrf_cache/ or $LTRF_CACHE_DIR).  ``--jobs N`` fans
each experiment's simulation grid out over N worker processes; the
rendered output is byte-identical for any job count.
"""

import argparse
import time

from repro.experiments import FIGURES, Runner


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true",
                        help="each figure's fast workload set instead of "
                             "the full set")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for simulation grids")
    args = parser.parse_args(argv)
    runner = Runner()
    sections = []
    for figure in FIGURES.values():
        result = figure.run(runner, jobs=args.jobs, fast=args.fast)
        stamp = time.strftime("%H:%M:%S")
        print(f"[{stamp}] {result.experiment} done")
        sections.append(f"{result.render()}\n  [{figure.paper}]")

    for section in sections:
        print()
        print(section)
    print()
    print(f"[engine] {runner.render_telemetry()}")
    runner.log_run("run_all_experiments" + (" --fast" if args.fast else ""))
    # Same StoreStats.summary_line() that `store stats` renders, so the
    # two can never drift apart.
    print(f"[store] {runner.results().stats().summary_line()}")


if __name__ == "__main__":
    main()
