"""The repro benchmark: one command, every metric, outputs checked.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep-cold --seed 0 --seconds 20 \
        --trace 0

``--trace 0`` sets up the workload three times (reporting the median
set-up time), runs one untraced measured pass and prints the
end-to-end metrics; times are scaled to a reference host speed
sampled while the pass runs (``benchlib.SpeedProbe``).  ``--trace 1``
runs one untraced and one traced pass of the same work and prints the
per-layer metrics, including the tracing overhead (traced wall minus
untraced wall).  Both check the
program's outputs; a wrong output, a failed request or a hot request
that simulated makes the command exit 1.  Human-readable lines come
first; the last stdout line is one JSON object::

    {"correct": true, "attempted": 3, "failed": 0,
     "metrics": {"wall_ref_s": {"value": 21.9, "unit": "s"}, ...}}

See perfbench/README.md for what each workload stresses.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from time import perf_counter

from benchlib import WORK_ROOT, BenchError, PassResult, fresh_dir, median, \
    require_source
from service_mix import ServiceMix
from sweep_cold import SweepCold
from tracer import LAYER_METRICS, layer_metrics
from warm_report import WarmReport

WORKLOADS = {cls.name: cls for cls in (SweepCold, WarmReport, ServiceMix)}

#: End-to-end metrics every workload reports: (name, unit, better).
E2E_METRICS = (
    ("setup_s", "s", "lower"),
    ("wall_ref_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def end_to_end(setup_seconds, result: PassResult) -> dict:
    return {
        "setup_s": median(setup_seconds),
        "wall_ref_s": result.ref_wall_s,
        "peak_rss_mb": result.peak_rss_mb,
    }


def per_layer(untraced: PassResult, traced: PassResult) -> dict:
    supplied = dict(traced.supplied)
    supplied["trace.untraced_wall_s"] = untraced.wall_s
    supplied["trace.traced_wall_s"] = traced.wall_s
    supplied["trace.overhead_s"] = traced.wall_s - untraced.wall_s
    opens = traced.trace["spans"].get("store.open", [0])[0]
    supplied["store.opens_per_op"] = opens / len(traced.op_seconds)
    return layer_metrics(traced.trace, supplied)


def measure(workload, trace: bool):
    """Run the workload; ``(metrics, units, passes)``."""
    if not trace:
        setup_seconds = []
        for _ in range(SETUP_REPEATS):
            started = perf_counter()
            workload.setup()
            setup_seconds.append(perf_counter() - started)
        result = workload.run_pass(traced=False)
        units = {name: unit for name, unit, _ in E2E_METRICS}
        return end_to_end(setup_seconds, result), units, [result]
    workload.setup()
    untraced = workload.run_pass(traced=False)
    workload.setup(traced=True)
    traced = workload.run_pass(traced=True)
    if traced.digest != untraced.digest:
        traced.problems.append("traced pass produced different output "
                               "from the untraced pass")
        traced.failed = max(traced.failed, 1)
    units = {name: unit for name, unit, _ in LAYER_METRICS}
    return per_layer(untraced, traced), units, [untraced, traced]


def report(workload, passes, metrics: dict, units: dict) -> dict:
    """Print the human-readable lines; return the JSON summary."""
    print(f"workload {workload.name}, seed {workload.seed}")
    for number, result in enumerate(passes, 1):
        label = "traced" if result.trace is not None else "untraced"
        print(f"  pass {number} ({label}): {result.attempted} operation(s), "
              f"{result.failed} failed, {result.wall_s:.2f} s wall "
              f"({result.ref_wall_s:.2f} s at reference host speed), "
              f"output digest {result.digest}")
        for name, (value, unit, note) in sorted(result.details.items()):
            print(f"    {name:<24} {value:>14.4f} {unit:<9} {note}")
        for problem in result.problems:
            print(f"    FAILED: {problem}")
        if result.trace is not None:
            for target in result.trace["missing"]:
                print(f"    not traced (absent in this program): {target}")
    for name in sorted(metrics):
        print(f"  {name:<34} {metrics[name]:>16.6f} {units[name]}")
    failed = sum(result.failed for result in passes)
    return {
        "correct": failed == 0,
        "attempted": sum(result.attempted for result in passes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        require_source()
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    work = fresh_dir(f"run-{os.getpid()}")
    workload = WORKLOADS[args.workload](args.seed, args.seconds, work)
    try:
        metrics, units, passes = measure(workload, bool(args.trace))
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        workload.teardown()
        shutil.rmtree(work, ignore_errors=True)
        if os.path.isdir(WORK_ROOT) and not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)
    summary = report(workload, passes, metrics, units)
    print(json.dumps(summary, sort_keys=True))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
