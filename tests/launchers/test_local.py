"""Unit tests for the process-pool launcher, on a fake executor.

The pool is the one parallel sweep path, so its own contract -- how a
chunk's outcome is classified, the lazy rebuild after the pool breaks,
the timeout kill and the two shutdown modes -- is pinned here without
starting a process.  ``tests/launchers/test_backends.py`` drives the
real pool end to end.
"""

import os
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.launchers import local
from repro.launchers.base import Chunk
from repro.launchers.faults import KILL_EXIT_CODE
from repro.launchers.local import LocalPoolLauncher, _run_pool_chunk


class _FakeProcess:
    def __init__(self):
        self.terminated = False

    def terminate(self):
        self.terminated = True


class _FakePool:
    """Stand-in ProcessPoolExecutor: ``submit`` hands back futures the
    test settles by hand, and every call is recorded."""

    made = []

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.submitted = []          # (fn, args)
        self.futures = []
        self.shutdowns = []          # (wait, cancel_futures)
        self.broken_on_submit = False
        self._processes = {101: _FakeProcess(), 102: _FakeProcess()}
        type(self).made.append(self)

    def submit(self, fn, *args):
        if self.broken_on_submit:
            raise BrokenProcessPool("a child process terminated abruptly")
        future = Future()
        self.submitted.append((fn, args))
        self.futures.append(future)
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        self.shutdowns.append((wait, cancel_futures))

    def terminated(self):
        return [process.terminated for process in self._processes.values()]


@pytest.fixture
def pools(monkeypatch):
    """Every fake pool the launcher builds, in build order."""
    _FakePool.made = []
    monkeypatch.setattr(local, "ProcessPoolExecutor", _FakePool)
    return _FakePool.made


def make_chunk(index=0, failures=0):
    return Chunk(id=index, items=[(f"key-{index}", f"request-{index}")],
                 failures=failures)


def started(workers=2):
    launcher = LocalPoolLauncher()
    launcher.start(workers)
    return launcher


class TestSubmit:
    def test_pool_is_built_lazily_with_at_least_one_worker(self, pools):
        launcher = started(workers=0)
        assert pools == []
        launcher.submit(make_chunk())
        assert [pool.max_workers for pool in pools] == [1]

    def test_task_carries_chunk_id_attempt_requests_and_parent_pid(
            self, pools):
        """The attempt number is the chunk's failure count: that is
        what lets a first-attempt-only fault spare the retry."""
        started().submit(make_chunk(index=3, failures=2))
        ((fn, args),) = pools[0].submitted
        assert fn is _run_pool_chunk
        assert args == (3, 2, ["request-3"], os.getpid())

    def test_one_pool_serves_every_chunk_while_healthy(self, pools):
        launcher = started()
        for index in range(3):
            launcher.submit(make_chunk(index))
        assert len(pools) == 1
        assert len(pools[0].submitted) == 3
        assert launcher.restarts == 0

    def test_pool_broken_at_submit_is_rebuilt_and_keeps_the_chunk(
            self, pools):
        launcher = started()
        launcher.submit(make_chunk(0))
        pools[0].broken_on_submit = True
        launcher.submit(make_chunk(1))
        assert len(pools) == 2
        assert [args[0] for _, args in pools[1].submitted] == [1]
        assert pools[0].shutdowns == [(False, True)]    # not waited on
        assert launcher.restarts == 1


class TestPoll:
    def test_running_chunk_polls_none(self, pools):
        handle = started().submit(make_chunk())
        assert handle.poll() is None

    def test_finished_chunk_delivers_record_telemetry_pairs(self, pools):
        handle = started().submit(make_chunk())
        pools[0].futures[0].set_result([("record", "telemetry")])
        outcome = handle.poll()
        assert outcome.status == "ok"
        assert outcome.results == [("record", "telemetry")]

    def test_broken_pool_reports_died_and_is_rebuilt_on_next_submit(
            self, pools):
        launcher = started()
        handle = launcher.submit(make_chunk(0))
        pools[0].futures[0].set_exception(
            BrokenProcessPool("a child process terminated abruptly")
        )
        outcome = handle.poll()
        assert outcome.status == "died"
        assert "terminated abruptly" in outcome.message
        assert launcher.restarts == 0                   # rebuilt lazily
        launcher.submit(make_chunk(0, failures=1))
        assert len(pools) == 2
        assert pools[0].shutdowns == [(False, True)]
        assert launcher.restarts == 1

    def test_chunk_that_raises_reports_error_and_keeps_the_pool(
            self, pools):
        launcher = started()
        handle = launcher.submit(make_chunk(0))
        pools[0].futures[0].set_exception(ValueError("unknown workload"))
        outcome = handle.poll()
        assert outcome.status == "error"
        assert outcome.message == "ValueError: unknown workload"
        launcher.submit(make_chunk(1))
        assert len(pools) == 1
        assert launcher.restarts == 0


class TestKillAndShutdown:
    def test_kill_terminates_every_worker_then_pool_is_rebuilt(
            self, pools):
        """No per-worker kill exists on a pool: the timeout kill takes
        every worker down, and the next submit builds a fresh pool."""
        launcher = started()
        handle = launcher.submit(make_chunk(0))
        launcher.submit(make_chunk(1))
        handle.kill()
        assert pools[0].terminated() == [True, True]
        launcher.submit(make_chunk(0, failures=1))
        assert len(pools) == 2
        assert pools[1].terminated() == [False, False]
        assert launcher.restarts == 1

    def test_clean_shutdown_drains_the_pool(self, pools):
        launcher = started()
        launcher.submit(make_chunk())
        launcher.shutdown()
        assert pools[0].shutdowns == [(True, False)]
        assert pools[0].terminated() == [False, False]

    def test_kill_shutdown_terminates_and_does_not_wait(self, pools):
        launcher = started()
        launcher.submit(make_chunk())
        launcher.shutdown(kill=True)
        assert pools[0].terminated() == [True, True]
        assert pools[0].shutdowns == [(False, True)]

    def test_shutdown_of_a_broken_pool_does_not_wait(self, pools):
        launcher = started()
        handle = launcher.submit(make_chunk())
        pools[0].futures[0].set_exception(BrokenProcessPool("gone"))
        handle.poll()
        launcher.shutdown()
        assert pools[0].shutdowns == [(False, True)]

    def test_shutdown_before_any_submit_builds_no_pool(self, pools):
        launcher = started()
        launcher.shutdown(kill=True)
        launcher.shutdown()
        assert pools == []


class _Killed(Exception):
    """Raised by the patched ``os._exit`` an injected kill calls."""


@pytest.fixture
def task(monkeypatch):
    """Run ``_run_pool_chunk`` in this process with its simulation and
    its kill scripted; yields the list of requests it executed."""
    executed = []

    def execute(request):
        executed.append(request)
        return (f"record-{request}", None)

    def exit_(code):
        raise _Killed(code)

    monkeypatch.setattr(local, "execute_request_with_telemetry", execute)
    monkeypatch.setattr(os, "_exit", exit_)
    # The task marks a pool worker through LTRF_WORKER_ID; that
    # identity must not leak into the rest of the suite (it would arm
    # the fault harness there).  Setting it before deleting it makes
    # monkeypatch remove whatever the task sets at teardown.
    monkeypatch.setenv("LTRF_WORKER_ID", "")
    monkeypatch.delenv("LTRF_WORKER_ID")
    yield executed


class TestPoolTask:
    def test_task_in_the_orchestrator_never_fires_a_fault(
            self, task, monkeypatch):
        """A scripted in-process pool runs the task in the parent,
        which must never look like a worker."""
        monkeypatch.setenv("LTRF_FAULT_PLAN", "kill:chunk=0")
        results = _run_pool_chunk(0, 0, ["a", "b"], os.getpid())
        assert results == [("record-a", None), ("record-b", None)]
        assert task == ["a", "b"]
        assert "LTRF_WORKER_ID" not in os.environ

    def test_task_in_a_worker_takes_a_pid_identity_and_arms_the_plan(
            self, task, monkeypatch):
        monkeypatch.setenv("LTRF_FAULT_PLAN", "kill:chunk=0:after=1")
        with pytest.raises(_Killed) as killed:
            _run_pool_chunk(0, 0, ["a", "b"], os.getpid() + 1)
        assert killed.value.args == (KILL_EXIT_CODE,)
        assert task == ["a"]                     # died after one sim
        assert os.environ["LTRF_WORKER_ID"] == f"w-pid{os.getpid()}"

    def test_retry_attempt_runs_clean_in_a_worker(self, task, monkeypatch):
        """A first-attempt fault spares the chunk's retry, which is
        what lets the scheduler absorb an injected kill."""
        monkeypatch.setenv("LTRF_FAULT_PLAN", "kill:chunk=0")
        results = _run_pool_chunk(0, 1, ["a", "b"], os.getpid() + 1)
        assert [record for record, _ in results] == ["record-a",
                                                     "record-b"]
