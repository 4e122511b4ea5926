"""Chaos smoke check: a faulted parallel sweep must change nothing.

Run with:  PYTHONPATH=src python scripts/chaos_smoke.py

End-to-end rehearsal of the fault-tolerant process-pool sweep, used by
CI and runnable locally:

1. run a small latency-tolerance grid serially into a fresh store and
   render the sweep table (the reference rendering);
2. run the *same* grid on a two-worker process pool with a fault plan
   that kills one worker mid-sweep and hangs another past
   ``LTRF_CHUNK_TIMEOUT`` -- the two headline failure classes (worker
   death, worker hang) against real pool worker processes;
3. require the faulted run's table to be byte-identical to the
   reference -- fault tolerance must never change results;
4. require the survival story to be *visible*: the runner's telemetry
   must report at least one chunk retry and one timeout (a chaos test
   whose faults never fired "passes" vacuously), the store must
   verify clean, and a resumed run must re-simulate nothing.

Exits non-zero, with a diff, on any mismatch.  Both stores live in
fresh temporary directories, removed when the check ends.
"""

import difflib
import os
import shutil
import sys
import tempfile

from repro.experiments import Runner
from repro.experiments.latency_tolerance import (
    normalized_sweep,
    sweep_requests,
)

#: Small machine + short grid: enough points for several chunks, fast
#: enough for a smoke job.
SMALL = dict(max_resident_warps=8, active_warps=4)
GRID = (1.0, 2.0, 4.0)
POLICIES = ("BL", "LTRF")
WORKLOAD = "btree"

#: Kill the worker holding chunk 1; hang the one holding chunk 2 well
#: past the chunk timeout.  Both fire on first delivery only, so the
#: retry machinery (not luck) is what completes the sweep.
FAULT_PLAN = "kill:chunk=1,delay:chunk=2:30s"
CHUNK_TIMEOUT = "6"


def grid_requests():
    return [
        request
        for policy in POLICIES
        for request in sweep_requests(policy, WORKLOAD, grid=GRID,
                                      **SMALL)
    ]


def render_table(runner):
    lines = []
    for policy in POLICIES:
        sweep = normalized_sweep(runner, policy, WORKLOAD, grid=GRID,
                                 **SMALL)
        curve = "  ".join(f"{value:.4f}" for value in sweep)
        lines.append(f"{policy:8s} {curve}")
    return "\n".join(lines) + "\n"


def fail(message):
    print(f"FAIL: {message}")
    return 1


def run():
    serial_dir = tempfile.mkdtemp(prefix="chaos-serial-")
    chaos_dir = tempfile.mkdtemp(prefix="chaos-faulted-")
    try:
        return check(serial_dir, chaos_dir)
    finally:
        shutil.rmtree(serial_dir, ignore_errors=True)
        shutil.rmtree(chaos_dir, ignore_errors=True)


def check(serial_dir, chaos_dir):
    points = grid_requests()

    print(f"[1/4] clean serial reference sweep "
          f"({len(points)} points) -> {serial_dir}")
    serial = Runner(cache_dir=serial_dir)
    serial.simulate_many(points)
    reference = render_table(serial)

    print(f"[2/4] faulted sweep: --jobs 2 process pool, "
          f"LTRF_FAULT_PLAN={FAULT_PLAN}, "
          f"LTRF_CHUNK_TIMEOUT={CHUNK_TIMEOUT} -> {chaos_dir}")
    knobs = {
        "LTRF_FAULT_PLAN": FAULT_PLAN,
        "LTRF_CHUNK_TIMEOUT": CHUNK_TIMEOUT,
        "LTRF_RETRY_BACKOFF": "0",
    }
    saved = {name: os.environ.get(name) for name in knobs}
    os.environ.update(knobs)
    try:
        chaotic = Runner(cache_dir=chaos_dir)
        chaotic.simulate_many(grid_requests(), jobs=2)
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
    faulted = render_table(chaotic)

    print("[3/4] diff faulted table against the serial reference")
    if faulted != reference:
        sys.stdout.writelines(difflib.unified_diff(
            reference.splitlines(keepends=True),
            faulted.splitlines(keepends=True),
            fromfile="serial-reference", tofile="faulted-pool",
        ))
        return fail("faulted sweep table differs from the clean "
                    "serial run")
    print("      byte-identical")

    print("[4/4] survival story must be visible, durable, and clean")
    summary = chaotic.telemetry_summary()
    print(f"      {chaotic.render_telemetry()}")
    if summary["chunk_retries"] < 1:
        return fail("no chunk retries reported -- the kill fault "
                    "never fired (vacuous chaos test)")
    if summary["chunk_timeouts"] < 1:
        return fail("no chunk timeouts reported -- the delay fault "
                    "never hit LTRF_CHUNK_TIMEOUT")
    if chaotic.stats.simulated != len(points):
        return fail(f"{chaotic.stats.simulated} of {len(points)} "
                    "points simulated -- the sweep lost work")

    resumed = Runner(cache_dir=chaos_dir)
    resumed.simulate_many(grid_requests())
    if resumed.stats.simulated != 0:
        return fail(f"resume re-simulated {resumed.stats.simulated} "
                    "point(s); every record should have been flushed")

    from repro.store import ResultStore
    store = ResultStore(chaos_dir)
    report = store.verify()
    store.close()
    if not report.ok:
        print(report.render())
        return fail("faulted store failed verification")

    print("OK: killed + hung workers; zero lost, zero repeated, "
          "table unchanged, retries visible")
    return 0


if __name__ == "__main__":
    sys.exit(run())
