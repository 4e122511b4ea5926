"""Child-process commands of the benchmark.

Each command runs in a fresh interpreter, as a user's CLI process
would, and prints one JSON summary as its last stdout line::

    python perfbench/child.py init --store DIR
    python perfbench/child.py storegen --store DIR --seed N [--hot-specs F]
    python perfbench/child.py sweep --store DIR --workload W
                                    --policies P1,P2 --seed N [--trace-out F]
    python perfbench/child.py serve [--trace-out F] -- <repro serve args>

``sweep`` is the CLI ``sweep`` flow with an explicit simulation seed
(the CLI has no ``--seed``): validate the workload,
``Runner.simulate_many`` over ``sweep_requests``, then
``render_sweep_table`` and the run log.  ``serve`` calls the CLI's
``serve`` entry point, optionally with the tracer installed first.
"""

from __future__ import annotations

import argparse
import json
import sys
from time import perf_counter

from benchlib import SpeedProbe, own_peak_rss_mb, require_source


def _init(args) -> dict:
    import repro.cli  # noqa: F401 - the import a CLI process pays
    from repro.store import ResultStore

    ResultStore(args.store).close()
    return {"store": args.store}


def _storegen(args) -> dict:
    from storegen import generate_store, prewarm

    summary = generate_store(args.store, args.seed)
    summary["hot_tables"] = []
    if args.hot_specs:
        with open(args.hot_specs, encoding="utf-8") as handle:
            specs = json.load(handle)
        summary["hot_tables"] = prewarm(args.store, specs)
    return summary


def _sweep(args) -> dict:
    import repro.cli  # noqa: F401 - the import a CLI process pays

    # Install before binding names, so they bind the wrapped callables.
    tracer = _tracer_if(args.trace_out)
    from repro.experiments import Runner, render_sweep_table, sweep_requests
    from repro.workloads import default_registry

    started = perf_counter()
    policies = args.policies.split(",")
    default_registry().get_kernel(args.workload)
    runner = Runner(cache_dir=args.store)
    runner.simulate_many([
        request
        for policy in policies
        for request in sweep_requests(policy, args.workload, seed=args.seed)
    ])
    table = render_sweep_table(runner, args.workload, policies,
                               seed=args.seed)
    runner.log_run(f"perfbench sweep {args.workload}")
    elapsed = perf_counter() - started
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(args.trace_out)
    return {"table": table, "seconds": elapsed,
            "telemetry": runner.telemetry_summary()}


def _serve(args) -> dict:
    import repro.cli

    tracer = _tracer_if(args.trace_out)
    try:
        code = repro.cli.main(["serve", *args.cli_args])
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(args.trace_out)
    return {"exit": code}


def _tracer_if(path):
    if not path:
        return None
    from tracer import Tracer
    return Tracer().install()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    init = sub.add_parser("init")
    init.add_argument("--store", required=True)
    gen = sub.add_parser("storegen")
    gen.add_argument("--store", required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--hot-specs", default=None)
    sweep = sub.add_parser("sweep")
    sweep.add_argument("--store", required=True)
    sweep.add_argument("--workload", required=True)
    sweep.add_argument("--policies", required=True)
    sweep.add_argument("--seed", type=int, required=True)
    sweep.add_argument("--trace-out", default=None)
    serve = sub.add_parser("serve")
    serve.add_argument("--trace-out", default=None)
    serve.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.command == "serve" and args.cli_args[:1] == ["--"]:
        args.cli_args = args.cli_args[1:]

    require_source()
    command = {"init": _init, "storegen": _storegen, "sweep": _sweep,
               "serve": _serve}[args.command]
    # The measured commands sample their own host speed (see SpeedProbe).
    probe = SpeedProbe().start() if args.command in ("sweep", "serve") \
        else None
    summary = command(args)
    if probe is not None:
        summary["slowness"] = probe.stop()
        summary["probe_samples"] = probe.samples
    summary["peak_rss_mb"] = own_peak_rss_mb()
    print(json.dumps(summary, sort_keys=True), flush=True)
    return int(summary.get("exit", 0))


if __name__ == "__main__":
    sys.exit(main())
