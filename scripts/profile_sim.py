"""One-command cProfile harness for the simulator's hot paths.

Usage:
    python scripts/profile_sim.py                          # defaults
    python scripts/profile_sim.py --workload backprop --policy LTRF
    python scripts/profile_sim.py --policy BL --latency 6.3
    python scripts/profile_sim.py --grid --top 40 --sort tottime -o prof.pstats

Runs a named workload x policy combination (one simulation, or
with ``--grid`` the workload's full Figure-11-style latency sweep under
the chosen policy) under :mod:`cProfile` and prints the top-N hotspots,
so perf work starts from measurements instead of guesses.  Every run
bypasses the result store (profiling a cache hit is meaningless); the
process-wide static-artifact caches stay on, because the amortised
steady state is what sweeps actually execute.

``-o PATH`` additionally dumps raw pstats for ``snakeviz``/``pstats``
post-processing.  See the README's "Profiling" section.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import tempfile
import time


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Profile one simulator combination and print "
                    "its hotspots.",
    )
    parser.add_argument("--workload", default="backprop",
                        help="any registry-resolvable workload name "
                             "(default: backprop)")
    parser.add_argument("--policy", default="LTRF",
                        help="register policy (default: LTRF)")
    parser.add_argument("--latency", type=float, default=1.0,
                        help="MRF latency multiple (default: 1.0)")
    parser.add_argument("--grid", action="store_true",
                        help="profile the workload's whole latency sweep "
                             "(fig11 grid shape) instead of one point")
    parser.add_argument("--repeat", type=int, default=1,
                        help="simulate the combination N times (amortised "
                             "static work shows up as such; default 1)")
    parser.add_argument("--top", type=int, default=25,
                        help="rows of the stats table to print (default 25)")
    parser.add_argument("--sort", default="cumulative",
                        choices=("cumulative", "tottime", "ncalls"),
                        help="stats sort key (default: cumulative)")
    parser.add_argument("-o", "--output", default=None, metavar="PATH",
                        help="also dump raw pstats to PATH")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    from repro.experiments.latency_tolerance import sweep_requests
    from repro.experiments.runner import Runner, SimRequest, sweep_config
    from repro.launchers.worker import execute_request_with_telemetry
    from repro.workloads import get_kernel

    try:
        get_kernel(args.workload)
    except ValueError as error:     # unknown name, bad file, bad parameter
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.grid:
        requests = sweep_requests(args.policy, args.workload)
    else:
        requests = [SimRequest(args.workload, args.policy,
                               sweep_config(args.latency))]
    requests = list(requests) * args.repeat

    # Execute requests directly rather than through simulate_many: the
    # batch engine deduplicates identical requests (and serves stored
    # results), which would collapse --repeat to a single simulation.
    # Each request here genuinely simulates; only the process-wide
    # static-artifact caches amortise across them, which is the
    # steady-state behaviour --repeat exists to expose.  The runner
    # only aggregates telemetry, on a throwaway store.
    with tempfile.TemporaryDirectory(prefix="profile_sim_") as scratch:
        runner = Runner(cache_dir=scratch)
        profiler = cProfile.Profile()
        started = time.perf_counter()
        profiler.enable()
        for request in requests:
            _, _, stats = execute_request_with_telemetry(request)
            runner.stats.add(stats)
        profiler.disable()
        wall = time.perf_counter() - started
        runner.result_store.close()

    shape = "grid" if args.grid else f"{args.latency}x"
    print(f"profiled {len(requests)} simulation(s): {args.workload} x "
          f"{args.policy} x {shape}, {wall:.2f}s wall (instrumented)")
    print(f"[telemetry] {runner.render_telemetry()}")
    print()
    stats = pstats.Stats(profiler)
    if args.output:
        stats.dump_stats(args.output)
        print(f"raw pstats written to {args.output}")
    stats.sort_stats(args.sort).print_stats(args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
