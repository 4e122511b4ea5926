"""Integration tests: fault plans against the real process pool.

These are the acceptance scenarios of the parallel sweep: kill a pool
worker before or in the middle of its chunk, hang one past
``LTRF_CHUNK_TIMEOUT``, abort a sweep while a chunk hangs.  A sweep
that completes must lose no point, re-simulate nothing after resume,
and match an unfaulted serial run byte for byte -- with the survival
story visible in telemetry instead of silently absorbed.
"""

import json
import multiprocessing
import time
from dataclasses import asdict

import pytest

from repro.arch import GPUConfig
from repro.experiments import Runner, SimRequest, sweep_requests
from repro.jobs import execute_plan, plan_requests
from repro.launchers import SweepAborted

SMALL = GPUConfig(max_resident_warps=8, active_warps=4)

#: The fault plan reaches pool workers through the environment they
#: inherit when the pool forks them.
needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="fault plan reaches pool workers via fork env",
)


def small_grid():
    return [
        SimRequest(workload, policy, SMALL)
        for workload in ("btree", "kmeans")
        for policy in ("BL", "RFC")
    ]


def dumps(records):
    return [json.dumps(asdict(record), sort_keys=True)
            for record in records]


def assert_survived(runner, records, grid, tmp_path):
    """The shared acceptance contract of every fault scenario."""
    assert runner.stats.simulated == len(grid)          # zero lost
    serial = Runner(cache_dir=str(tmp_path / "serial")).simulate_many(grid)
    assert dumps(records) == dumps(serial)              # byte-identical
    resumed = Runner(cache_dir=str(tmp_path))
    resumed.simulate_many(grid)
    assert resumed.stats.simulated == 0                 # zero repeated
    assert "fault tolerance" in runner.render_telemetry()


class TestPoolSweeps:
    def test_clean_sweep_matches_serial(self, tmp_path):
        grid = small_grid()
        runner = Runner(cache_dir=str(tmp_path))
        records = runner.simulate_many(grid, jobs=2)
        assert runner.stats.simulated == len(grid)
        assert dumps(records) == dumps(
            Runner(cache_dir=str(tmp_path / "serial")).simulate_many(grid)
        )
        # A clean run reports no fault-tolerance noise.
        assert "fault tolerance" not in runner.render_telemetry()


@needs_fork
class TestPoolFaults:
    def test_killed_pool_worker_is_retried_and_sweep_completes(
            self, tmp_path, monkeypatch):
        """An injected kill takes the whole pool down
        (BrokenProcessPool), the pool is rebuilt, the charged chunk
        retries, and the sweep completes byte-identical to serial."""
        monkeypatch.setenv("LTRF_FAULT_PLAN", "kill:chunk=1")
        grid = small_grid()
        runner = Runner(cache_dir=str(tmp_path))
        records = runner.simulate_many(grid, jobs=2)
        assert runner.stats.pool_retries >= 1       # pool was rebuilt
        assert runner.stats.chunk_retries >= 1
        assert_survived(runner, records, grid, tmp_path)

    @pytest.mark.parametrize("plan, counter", [
        ("kill:chunk=1", "chunk_retries"),
        ("kill:chunk=1:always", "chunks_quarantined"),
    ])
    def test_a_dead_worker_is_charged_to_its_chunk_alone(
            self, tmp_path, monkeypatch, plan, counter):
        """One chunk's worker dies while its pool-mates run: the kill
        costs exactly one retry, and a chunk killed on every attempt is
        the only one quarantined -- the innocents it took down with the
        pool re-run uncharged."""
        monkeypatch.setenv("LTRF_FAULT_PLAN", plan)
        grid = [
            SimRequest(workload, policy, SMALL)
            for workload in ("btree", "kmeans")
            for policy in ("BL", "RFC", "LTRF")
        ]
        runner = Runner(cache_dir=str(tmp_path))
        records = runner.simulate_many(grid, jobs=2)
        assert getattr(runner.stats, counter) == 1
        assert_survived(runner, records, grid, tmp_path)

    def test_mid_chunk_kill_reruns_the_chunk(self, tmp_path, monkeypatch):
        """A worker killed after finishing part of its chunk returns
        nothing; the retry re-runs the whole chunk on a fresh pool,
        and every point is stored exactly once."""
        monkeypatch.setenv("LTRF_FAULT_PLAN", "kill:chunk=0:after=1")
        # Ten points on two latency rows: chunks hold two points each,
        # so "killed after 1 sim" dies with finished work in hand.
        grid = [
            request
            for policy in ("BL", "RFC")
            for request in sweep_requests(
                policy, "btree", grid=(1.0, 2.0, 3.0, 4.0, 5.0),
                max_resident_warps=8, active_warps=4,
            )
        ]
        runner = Runner(cache_dir=str(tmp_path))
        records = runner.simulate_many(grid, jobs=2)
        assert runner.stats.chunk_retries >= 1
        assert runner.stats.pool_retries >= 1
        assert_survived(runner, records, grid, tmp_path)

    def test_hung_chunk_hits_timeout_and_is_reassigned(
            self, tmp_path, monkeypatch):
        """The timeout kill terminates the pool's workers, the pool is
        rebuilt, and the hung chunk completes on its retry."""
        monkeypatch.setenv("LTRF_FAULT_PLAN", "delay:chunk=0:60s")
        monkeypatch.setenv("LTRF_CHUNK_TIMEOUT", "4")
        grid = small_grid()
        runner = Runner(cache_dir=str(tmp_path))
        started = time.monotonic()
        records = runner.simulate_many(grid, jobs=2)
        assert time.monotonic() - started < 40      # not the 60s hang
        assert runner.stats.chunk_timeouts >= 1
        assert runner.stats.chunk_retries >= 1
        assert runner.stats.pool_retries >= 1
        assert runner.telemetry_summary()["chunk_timeouts"] >= 1
        assert_survived(runner, records, grid, tmp_path)

    def test_abort_while_a_chunk_hangs_keeps_flushed_records(
            self, tmp_path, monkeypatch):
        """Cancelling a parallel sweep whose chunk hangs stops it
        promptly (the hung worker is terminated, not waited for), and
        every point delivered before the abort stays in the store."""
        monkeypatch.setenv("LTRF_FAULT_PLAN", "delay:chunk=0:60s")
        grid = small_grid()
        runner = Runner(cache_dir=str(tmp_path))
        plan = plan_requests(runner, grid)
        delivered = []
        started = time.monotonic()
        with pytest.raises(SweepAborted):
            execute_plan(runner, plan, jobs=2,
                         on_point=lambda key, simulated: delivered.append(
                             key),
                         should_abort=lambda: bool(delivered))
        assert time.monotonic() - started < 15
        assert delivered and plan.keys[0] not in delivered
        reader = Runner(cache_dir=str(tmp_path))
        assert all(reader.lookup(key) is not None for key in delivered)
        reader.simulate_many(grid)
        assert reader.stats.simulated == len(grid) - len(delivered)
        assert reader.stats.hits == len(delivered)
