"""Integration tests: fault plans against the real backends.

These are the acceptance scenarios of the distributed-backend work:
kill a worker mid-sweep (local pool and subprocess backends), hang a
worker past ``LTRF_CHUNK_TIMEOUT``, and in every case the sweep must
complete with zero lost points, zero re-simulations after resume, and
results byte-identical to an unfaulted serial run -- with the
survival story visible in telemetry instead of silently absorbed.
"""

import json
from dataclasses import asdict

import pytest

from repro.arch import GPUConfig
from repro.experiments import Runner, SimRequest

SMALL = GPUConfig(max_resident_warps=8, active_warps=4)


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
    serial = Runner(cache_dir=None).simulate_many(grid)
    assert dumps(records) == dumps(serial)              # byte-identical
    resumed = Runner(cache_dir=str(tmp_path))
    resumed.simulate_many(grid)
    assert resumed.stats.simulated == 0                 # zero repeated
    assert "fault tolerance" in runner.render_telemetry()


class TestSubprocessBackend:
    def test_clean_sweep_matches_serial(self, tmp_path):
        grid = small_grid()
        runner = Runner(cache_dir=str(tmp_path), backend="subprocess")
        records = runner.simulate_many(grid, jobs=2)
        assert runner.stats.simulated == len(grid)
        assert dumps(records) == dumps(
            Runner(cache_dir=None).simulate_many(grid)
        )
        # A clean run reports no fault-tolerance noise.
        assert "fault tolerance" not in runner.render_telemetry()

    def test_killed_worker_is_retried_and_sweep_completes(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("LTRF_FAULT_PLAN", "kill:chunk=1")
        monkeypatch.setenv("LTRF_RETRY_BACKOFF", "0")
        grid = small_grid()
        runner = Runner(cache_dir=str(tmp_path), backend="subprocess")
        records = runner.simulate_many(grid, jobs=2)
        assert runner.stats.chunk_retries >= 1
        assert runner.telemetry_summary()["chunk_retries"] >= 1
        assert_survived(runner, records, grid, tmp_path)

    def test_mid_chunk_kill_loses_no_flushed_work(self, tmp_path,
                                                  monkeypatch):
        """A worker killed after flushing part of its chunk leaves the
        flushed records durable; the retry serves them from the store
        (the worker reports them as cached) instead of re-simulating."""
        monkeypatch.setenv("LTRF_FAULT_PLAN", "kill:chunk=0:after=1")
        monkeypatch.setenv("LTRF_RETRY_BACKOFF", "0")
        # A grid big enough that chunks hold several points each, so
        # "killed after 1 sim" leaves genuinely partial progress.
        grid = [
            SimRequest(workload, policy, SMALL)
            for workload in ("btree", "kmeans", "backprop")
            for policy in ("BL", "RFC", "LTRF")
        ]
        runner = Runner(cache_dir=str(tmp_path), backend="subprocess")
        records = runner.simulate_many(grid, jobs=2)
        assert runner.stats.chunk_retries >= 1
        assert_survived(runner, records, grid, tmp_path)

    def test_hung_chunk_hits_timeout_and_is_reassigned(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("LTRF_FAULT_PLAN", "delay:chunk=0:60s")
        monkeypatch.setenv("LTRF_CHUNK_TIMEOUT", "4")
        monkeypatch.setenv("LTRF_RETRY_BACKOFF", "0")
        grid = small_grid()
        runner = Runner(cache_dir=str(tmp_path), backend="subprocess")
        records = runner.simulate_many(grid, jobs=2)
        assert runner.stats.chunk_timeouts >= 1
        assert runner.stats.chunk_retries >= 1
        summary = runner.telemetry_summary()
        assert summary["chunk_timeouts"] >= 1
        assert_survived(runner, records, grid, tmp_path)

    def test_torn_segment_fault_stays_invisible(self, tmp_path,
                                                monkeypatch):
        """corrupt-segment tears the worker's own segment after its
        chunk; the store's crash-consistency contract keeps the tear
        invisible and the verify green."""
        monkeypatch.setenv("LTRF_FAULT_PLAN",
                           "corrupt-segment:chunk=0")
        grid = small_grid()
        runner = Runner(cache_dir=str(tmp_path), backend="subprocess")
        records = runner.simulate_many(grid, jobs=2)
        assert runner.stats.simulated == len(grid)
        assert dumps(records) == dumps(
            Runner(cache_dir=None).simulate_many(grid)
        )
        from repro.store import ResultStore
        store = ResultStore(str(tmp_path))
        assert store.verify().ok
        store.close()


class TestLocalBackendFaults:
    def test_killed_pool_worker_is_retried_and_sweep_completes(
            self, tmp_path, monkeypatch):
        """The kill-a-worker acceptance scenario on ``--backend local``:
        an injected kill takes the whole pool down (BrokenProcessPool),
        the pool is rebuilt, the charged chunk retries, and the sweep
        completes byte-identical to serial."""
        import multiprocessing
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("fault plan reaches pool workers via fork env")
        monkeypatch.setenv("LTRF_FAULT_PLAN", "kill:chunk=1")
        monkeypatch.setenv("LTRF_RETRY_BACKOFF", "0")
        grid = small_grid()
        runner = Runner(cache_dir=str(tmp_path), backend="local")
        records = runner.simulate_many(grid, jobs=2)
        assert runner.stats.pool_retries >= 1       # pool was rebuilt
        assert runner.stats.chunk_retries >= 1
        assert_survived(runner, records, grid, tmp_path)


class TestMakeLauncher:
    def test_ssh_is_an_unknown_backend(self):
        from repro.launchers import BACKENDS, make_launcher

        assert BACKENDS == ("local", "subprocess")
        with pytest.raises(ValueError, match=r"unknown backend 'ssh' "
                           r"\(expected one of local, subprocess\)"):
            make_launcher("ssh")
