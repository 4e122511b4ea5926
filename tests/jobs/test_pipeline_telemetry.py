"""Telemetry golden for the batch pipeline.

Pins what the pipeline *reports* -- simulations, memory and disk hits,
batch requested/deduplicated/dispatched, kernel builds, store records
written and run-log entries -- for one fixed grid, run three ways over
one store:

1. ``cold``: in a fresh process, through ``Runner.simulate_many``;
2. ``warm``: the same, in another fresh process;
3. ``tracker``: warm again through a :class:`~repro.jobs.JobTracker`,
   in the ``warm`` process right after it.

Each fresh process first validates the workload the way ``repro
sweep`` does, which builds its kernel before any runner exists, so the
kernel-build counts are the ones a CLI user sees.

The grid: btree under BL and LTRF at 1x, 3x and 7x MRF latency on a
small SM (``max_resident_warps=8, active_warps=4``), plus one repeated
request.  The job repeats the 7x point instead (a spec has no way to
repeat a single request).  Regenerate only when a counter is meant to
change, and say why in the change:

    PYTHONPATH=src python tests/jobs/test_pipeline_telemetry.py --update
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve()
GOLDEN = HERE.parent.parent / "golden" / "pipeline_telemetry.json"
SRC = HERE.parent.parent.parent / "src"

WORKLOAD = "btree"
POLICIES = ("BL", "LTRF")
LATENCIES = (1.0, 3.0, 7.0)
SMALL = {"max_resident_warps": 8, "active_warps": 4}

#: ``RunnerStats`` counters pinned for every run.
COUNTERS = ("simulated", "memory_hits", "disk_hits", "batch_requests",
            "batch_deduplicated", "batch_dispatched", "kernel_builds")


def _grid() -> list:
    from repro.experiments import sweep_requests

    requests = [
        request
        for policy in POLICIES
        for request in sweep_requests(policy, WORKLOAD, LATENCIES, **SMALL)
    ]
    return requests + requests[:1]


def _store_shape(root: str) -> tuple:
    """(entries, run-log entries) on disk, read by a fresh store."""
    from repro.store import ResultStore

    store = ResultStore(root, create=False)
    try:
        return store.stats().entries, len(list(store.iter_run_logs()))
    finally:
        store.close()


def _row(runner, root: str, before: tuple) -> dict:
    entries, logs = _store_shape(root)
    row = {name: getattr(runner.stats, name) for name in COUNTERS}
    row["records_written"] = entries - before[0]
    row["run_log_entries"] = logs - before[1]
    return row


def _run_phase(phase: str, root: str) -> dict:
    """One fresh process's runs; returns ``{run name: row}``."""
    from repro.experiments import Runner
    from repro.jobs import JobSpec, JobTracker
    from repro.store import ResultStore
    from repro.workloads import default_registry

    default_registry().get_kernel(WORKLOAD)    # `repro sweep` validation
    ResultStore(root).close()
    rows = {}
    before = _store_shape(root)
    runner = Runner(cache_dir=root)
    runner.simulate_many(_grid())
    runner.log_run(f"golden {phase}")
    runner.result_store.close()
    rows[phase] = _row(runner, root, before)
    if phase == "warm":
        before = _store_shape(root)
        runners = []

        def factory(spec):
            runners.append(Runner(store=tracker.store(),
                                  backend=spec.backend))
            return runners[-1]

        tracker = JobTracker(root, runner_factory=factory)
        job = tracker.run(JobSpec(
            workloads=(WORKLOAD,), policies=POLICIES,
            grid=LATENCIES + LATENCIES[-1:], overrides=SMALL,
            label="golden tracker",
        ))
        tracker.close()
        row = _row(runners[0], root, before)
        row["state"] = job.state
        row["progress"] = dict(job.progress)
        rows["tracker"] = row
    return rows


def measure(root: str) -> dict:
    """Run both phases in fresh processes over the store at ``root``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [path for path in
                      env.get("PYTHONPATH", "").split(os.pathsep) if path])
    rows = {}
    for phase in ("cold", "warm"):
        done = subprocess.run(
            [sys.executable, str(HERE), "--phase", phase, "--store", root],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert done.returncode == 0, done.stderr
        rows.update(json.loads(done.stdout.splitlines()[-1]))
    return rows


@pytest.fixture(scope="module")
def measured(tmp_path_factory):
    return measure(str(tmp_path_factory.mktemp("telemetry-golden")))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("run", ["cold", "warm", "tracker"])
def test_run_matches_golden(measured, golden, run):
    assert measured[run] == golden[run]


def test_golden_covers_exactly_the_runs(golden):
    assert sorted(golden) == ["cold", "tracker", "warm"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite the golden from a fresh run")
    parser.add_argument("--phase", choices=("cold", "warm"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--store", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.phase is not None:
        print(json.dumps(_run_phase(args.phase, args.store), sort_keys=True))
        return 0
    if not args.update:
        parser.error("run under pytest to check; pass --update to "
                     "regenerate the golden")
    import tempfile

    with tempfile.TemporaryDirectory(prefix="telemetry-golden-") as root:
        rows = measure(root)
    GOLDEN.write_text(json.dumps(rows, indent=1, sort_keys=True) + "\n")
    print(f"golden updated: {GOLDEN} ({len(rows)} runs)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
