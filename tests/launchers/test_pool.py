"""Unit tests for the process-pool scheduler, on a fake executor.

``run_chunks`` is pinned here without starting a process: every pool
it builds is a :class:`FakePool`, whose futures follow a script per
``(chunk id, attempt)``.  ``tests/launchers/test_backends.py`` drives
the real pool end to end.
"""

import os
import subprocess
import sys
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from repro.launchers import SweepAborted, pool
from repro.launchers.faults import KILL_EXIT_CODE
from repro.launchers.pool import (
    Chunk,
    RetryPolicy,
    _run_pool_chunk,
    run_chunks,
)


class FakeProcess:
    def __init__(self):
        self.terminated = False

    def terminate(self):
        self.terminated = True


class FakePool:
    """Stand-in ``ProcessPoolExecutor``; every call is recorded."""

    def __init__(self, pools, max_workers):
        self.pools = pools
        self.max_workers = max_workers
        self.submitted = []          # (fn, args)
        self.beside = []             # (chunk id, ids of unresolved chunks)
        self.shutdowns = []          # (wait, cancel_futures)
        self.broken = False
        self._unresolved = {}        # future -> chunk id
        self._processes = {101: FakeProcess(), 102: FakeProcess()}

    def submit(self, fn, *args):
        if self.broken:
            raise BrokenProcessPool("a child process terminated abruptly")
        chunk_id, attempt, requests, _ = args
        self.submitted.append((fn, args))
        self.beside.append((chunk_id, sorted(self._unresolved.values())))
        future = Future()
        verdict = self.pools.verdict(chunk_id, attempt)
        if verdict == "ok":
            future.set_result([(f"record-{request}", "telemetry")
                               for request in requests])
        elif verdict == "raise":
            future.set_exception(ValueError(f"chunk {chunk_id} raised"))
        else:
            self._unresolved[future] = chunk_id
        if verdict == "die":
            self.die()
        return future

    def die(self):
        """Break as a real pool does: every unresolved future fails
        with ``BrokenProcessPool`` and later submits raise it."""
        self.broken = True
        for unresolved in self._unresolved:
            unresolved.set_exception(BrokenProcessPool(
                "a child process terminated abruptly"))
        self._unresolved.clear()

    def shutdown(self, wait=True, cancel_futures=False):
        self.shutdowns.append((wait, cancel_futures))

    def terminated(self):
        return [process.terminated for process in self._processes.values()]


class FakePools:
    """Builds every :class:`FakePool` ``run_chunks`` asks for.

    ``script[(chunk id, attempt)]`` is a verdict, or a list of verdicts
    taken one per submission whose last one repeats; other submissions
    get ``default``.  ``ok`` resolves with one ``(record, telemetry)``
    pair per request, ``raise`` with a ``ValueError`` (the pool lives),
    ``hang`` never resolves on its own, and ``die`` breaks the pool:
    it and every unresolved future fail with ``BrokenProcessPool``, and
    later submits raise it.
    """

    def __init__(self):
        self.script = {}
        self.default = "ok"
        self.made = []
        self._taken = {}

    def __call__(self, max_workers):
        # A scheduler that re-queues without ever charging would
        # rebuild pools forever; fail instead of hanging the suite.
        assert len(self.made) < 50, "pool rebuilt 50 times"
        fake = FakePool(self, max_workers)
        self.made.append(fake)
        return fake

    def verdict(self, chunk_id, attempt):
        verdicts = self.script.get((chunk_id, attempt), self.default)
        if isinstance(verdicts, str):
            return verdicts
        taken = self._taken.get((chunk_id, attempt), 0)
        self._taken[(chunk_id, attempt)] = taken + 1
        return verdicts[min(taken, len(verdicts) - 1)]

    def submissions(self):
        """``(chunk id, attempt)`` of every submission, in order."""
        return [args[:2] for fake in self.made for _, args in fake.submitted]


@pytest.fixture
def pools(monkeypatch):
    pools = FakePools()
    monkeypatch.setattr(pool, "ProcessPoolExecutor", pools)
    return pools


def make_chunks(count):
    return [Chunk(id=index, items=[(f"key-{index}", f"request-{index}")])
            for index in range(count)]


def drive(chunks, policy=None, workers=2, **hooks):
    """Run the scheduler; returns deliveries, serial ids and events."""
    delivered, serial, events = {}, [], []
    run_chunks(
        chunks, workers, policy or RetryPolicy(),
        on_done=lambda chunk, results:
            delivered.setdefault(chunk.id, []).append(results),
        run_serial=lambda rest: serial.extend(chunk.id for chunk in rest),
        on_event=lambda kind, chunk: events.append((kind, chunk.id)),
        **hooks,
    )
    return delivered, serial, events


def ids(events, kind):
    return [chunk_id for event, chunk_id in events if event == kind]


class TestRetries:
    def test_transient_failure_retries_then_succeeds(self, pools):
        pools.script = {(1, 0): "die"}
        delivered, serial, events = drive(make_chunks(3))
        assert sorted(delivered) == [0, 1, 2]
        assert all(len(v) == 1 for v in delivered.values())  # once each
        assert serial == []
        assert ids(events, "retry") == [1]
        assert (1, 1) in pools.submissions()       # re-ran as attempt 1

    def test_from_env_overrides(self, monkeypatch):
        monkeypatch.setenv("LTRF_CHUNK_TIMEOUT", "7.5")
        policy = RetryPolicy.from_env()
        assert policy.timeout == 7.5
        assert policy.max_attempts == 3

    def test_from_env_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("LTRF_CHUNK_TIMEOUT", "soon")
        with pytest.raises(ValueError, match="LTRF_CHUNK_TIMEOUT"):
            RetryPolicy.from_env()

    @pytest.mark.parametrize("text", ["0", "-5", " "])  # off, off, unset
    def test_from_env_clamps_out_of_range_values(self, monkeypatch, text):
        monkeypatch.setenv("LTRF_CHUNK_TIMEOUT", text)
        assert RetryPolicy.from_env().timeout is None


class TestDeadWorkerCharge:
    """One dead worker breaks every future of its pool; only the chunk
    whose worker died may be charged for it."""

    def test_dead_worker_is_charged_to_its_culprit_only(self, pools):
        # Chunk 0 is still running when chunk 1's worker dies.
        pools.script = {(0, 0): ["hang", "ok"], (1, 0): "die"}
        delivered, serial, events = drive(make_chunks(3))
        assert ids(events, "retry") == [1]
        assert sorted(delivered) == [0, 1, 2]
        assert serial == []
        # The innocent re-ran uncharged, at attempt 0.
        assert [attempt for chunk_id, attempt in pools.submissions()
                if chunk_id == 0] == [0, 0]

    def test_poison_beside_innocents_is_quarantined_alone(self, pools):
        pools.script = {(1, attempt): "die" for attempt in range(3)}
        pools.script.update({(0, attempt): ["hang", "ok"]
                             for attempt in range(3)})
        delivered, serial, events = drive(make_chunks(3))
        assert serial == [1]
        assert ids(events, "quarantine") == [1]
        assert ids(events, "retry") == [1, 1]
        assert sorted(delivered) == [0, 2]

    def test_suspect_runs_alone(self, pools):
        """After the break, chunks 0 and 1 are suspects: while one runs
        (here chunk 0 hangs until its timeout, twice), nothing runs
        beside it."""
        pools.script = {(0, 0): "hang", (0, 1): "hang", (1, 0): "die"}
        delivered, serial, events = drive(
            make_chunks(4), RetryPolicy(timeout=0.05))
        beside = [(chunk_id, running) for fake in pools.made
                  for chunk_id, running in fake.beside if running]
        assert beside == [(1, [0])]       # only before anyone was suspect
        assert ids(events, "timeout") == [0, 0]
        assert ids(events, "retry") == [0, 1, 0]
        assert sorted(delivered) == [0, 1, 2, 3]

    def test_sibling_with_a_result_is_delivered_not_rerun(self, pools):
        pools.script = {(0, 0): ["hang", "ok"], (2, 0): "die"}
        delivered, serial, events = drive(make_chunks(3), workers=3)
        assert sorted(delivered) == [0, 1, 2]
        assert pools.submissions().count((1, 0)) == 1   # ran once
        assert ids(events, "retry") == [2]


class TestQuarantine:
    def test_poisoned_chunk_exhausts_budget_and_runs_serially(self, pools):
        pools.script = {(1, attempt): "raise" for attempt in range(3)}
        delivered, serial, events = drive(
            make_chunks(3), RetryPolicy(max_attempts=3))
        assert sorted(delivered) == [0, 2]
        assert serial == [1]
        assert ids(events, "quarantine") == [1]
        assert ids(events, "retry") == [1, 1]   # attempts 1 and 2
        assert ids(events, "degrade") == []     # healthy pool, sick chunk


class TestDegradation:
    def test_streak_across_chunks_abandons_backend(self, pools):
        pools.default = "die"
        delivered, serial, events = drive(
            make_chunks(4), RetryPolicy(max_attempts=3))
        assert delivered == {}
        assert serial == [0, 1, 2, 3]             # nothing lost
        assert ("degrade", -1) in events

    def test_single_sick_chunk_does_not_degrade(self, pools):
        """A streak confined to one chunk is a poisoned chunk, not a
        broken backend: quarantine it, keep the backend."""
        pools.script = {(0, attempt): "raise" for attempt in range(8)}
        delivered, serial, events = drive(
            make_chunks(2), RetryPolicy(max_attempts=8), workers=1)
        assert ids(events, "degrade") == []
        assert serial == [0]
        assert sorted(delivered) == [1]

    def test_success_resets_the_streak(self, pools):
        # Six charged failures in all, never six in a row.
        pools.script = {(chunk_id, attempt): "raise"
                        for chunk_id in (0, 1) for attempt in range(3)}
        delivered, serial, events = drive(
            make_chunks(4), RetryPolicy(max_attempts=4), workers=1)
        assert len(ids(events, "retry")) == 6
        assert ids(events, "degrade") == []
        assert sorted(delivered) == [0, 1, 2, 3]
        assert serial == []


class TestTimeouts:
    def test_hung_chunk_is_killed_and_reassigned(self, pools):
        pools.script = {(1, 0): "hang"}
        delivered, serial, events = drive(
            make_chunks(3), RetryPolicy(timeout=0.05))
        assert ids(events, "timeout") == [1]
        assert ids(events, "retry") == [1]
        assert sorted(delivered) == [0, 1, 2]     # completed after retry
        assert serial == []

    def test_collateral_kill_requeues_innocents_uncharged(self, pools):
        """Killing a hung chunk takes the pool, and with it the
        innocent in-flight chunk, down; it re-queues without being
        charged a retry."""
        pools.script = {(0, 0): ["hang", "ok"], (1, 0): ["hang", "ok"]}
        delivered, serial, events = drive(
            make_chunks(2), RetryPolicy(timeout=0.05))
        assert sorted(delivered) == [0, 1]
        (charged,) = ids(events, "timeout")
        assert ids(events, "retry") == [charged]
        (innocent,) = {0, 1} - {charged}
        assert [attempt for chunk_id, attempt in pools.submissions()
                if chunk_id == innocent] == [0, 0]

    def test_chunk_that_hangs_every_attempt_is_quarantined(self, pools):
        pools.default = "hang"
        delivered, serial, events = drive(
            make_chunks(1), RetryPolicy(timeout=0.02, max_attempts=2))
        assert ids(events, "timeout") == [0, 0]
        assert ids(events, "quarantine") == [0]
        assert delivered == {}
        assert serial == [0]              # finished in the orchestrator

    def test_no_timeout_means_no_deadline(self, pools):
        delivered, _, events = drive(make_chunks(2),
                                     RetryPolicy(timeout=None))
        assert ids(events, "timeout") == []
        assert sorted(delivered) == [0, 1]


class TestLifecycle:
    def test_shutdown_always_called(self, pools):
        """A failing delivery (here the store) still shuts the pool
        down, killing its workers rather than waiting on them."""
        def on_done(chunk, results):
            raise RuntimeError("store is full")

        with pytest.raises(RuntimeError, match="store is full"):
            run_chunks(make_chunks(2), 2, RetryPolicy(), on_done=on_done,
                       run_serial=lambda rest: None)
        assert pools.made[0].shutdowns == [(False, True)]
        assert pools.made[0].terminated() == [True, True]

    def test_restart_event_surfaces_pool_rebuilds(self, pools):
        pools.script = {(0, 0): "die", (1, 0): "die"}
        _, _, events = drive(make_chunks(2), workers=1)
        assert len(pools.made) == 3
        assert ids(events, "restart") == [-1, -1]    # one per rebuild


class TestAbort:
    def test_should_abort_kills_in_flight_work_and_keeps_deliveries(
            self, pools):
        pools.script = {(1, 0): "hang"}
        delivered, serial = [], []
        with pytest.raises(SweepAborted, match="1 in-flight"):
            run_chunks(
                make_chunks(2), 2, RetryPolicy(),
                on_done=lambda chunk, results: delivered.append(chunk.id),
                run_serial=serial.extend,
                should_abort=lambda: bool(delivered),
            )
        assert delivered == [0]
        assert pools.made[0].terminated() == [True, True]
        assert pools.made[0].shutdowns == [(False, True)]  # killed
        assert serial == []                       # nothing runs after

    def test_keyboard_interrupt_kills_in_flight_work_and_propagates(
            self, pools):
        pools.script = {(1, 0): "hang"}

        def on_done(chunk, results):
            raise KeyboardInterrupt

        serial = []
        with pytest.raises(KeyboardInterrupt):
            run_chunks(make_chunks(2), 2, RetryPolicy(), on_done=on_done,
                       run_serial=serial.extend)
        assert pools.made[0].terminated() == [True, True]
        assert pools.made[0].shutdowns == [(False, True)]
        assert serial == []


class TestSubmit:
    def test_pool_is_built_lazily_with_at_least_one_worker(self, pools):
        drive(make_chunks(1), workers=0)
        assert [fake.max_workers for fake in pools.made] == [1]

    def test_task_carries_chunk_id_attempt_requests_and_parent_pid(
            self, pools):
        """The attempt number is the chunk's failure count: that is
        what lets a first-attempt-only fault spare the retry."""
        chunk = Chunk(id=3, items=[("key-3", "request-3")], failures=2)
        drive([chunk], RetryPolicy(max_attempts=5))
        ((fn, args),) = pools.made[0].submitted
        assert fn is _run_pool_chunk
        assert args == (3, 2, ["request-3"], os.getpid())

    def test_one_pool_serves_every_chunk_while_healthy(self, pools):
        _, _, events = drive(make_chunks(3))
        assert len(pools.made) == 1
        assert len(pools.made[0].submitted) == 3
        assert ids(events, "restart") == []

    def test_pool_broken_at_submit_is_rebuilt_and_keeps_the_chunk(
            self, pools):
        def on_done(chunk, results):
            pools.made[0].broken = True    # dies between two submits

        events = []
        run_chunks(make_chunks(2), 1, RetryPolicy(), on_done=on_done,
                   run_serial=lambda rest: None,
                   on_event=lambda kind, chunk: events.append(kind))
        assert len(pools.made) == 2
        assert [args[0] for _, args in pools.made[1].submitted] == [1]
        assert pools.made[0].shutdowns == [(False, True)]  # not waited on
        assert events == ["restart"]                       # not charged

    def test_pool_broken_at_submit_settles_its_chunks_first(self, pools):
        """A worker died while a delivery was absorbed: the chunk alone
        in flight on the broken pool is charged before the rebuild, and
        the fresh pool keeps the chunk launched on it."""
        pools.script = {(0, 0): "hang"}

        def on_done(chunk, results):
            if chunk.id == 1:
                pools.made[0].die()

        events = []
        run_chunks(make_chunks(3), 2, RetryPolicy(), on_done=on_done,
                   run_serial=lambda rest: None,
                   on_event=lambda kind, chunk: events.append(
                       (kind, chunk.id)))
        assert ids(events, "retry") == [0]
        assert len(pools.made) == 2                # one rebuild, not two
        assert pools.submissions().count((2, 0)) == 1


class TestDelivery:
    def test_running_chunk_is_not_delivered(self, pools):
        pools.script = {(0, 0): "hang"}
        delivered, checks = [], []

        def should_abort():
            checks.append(None)
            return len(checks) > 3

        with pytest.raises(SweepAborted):
            run_chunks(make_chunks(1), 2, RetryPolicy(),
                       on_done=lambda chunk, results: delivered.append(1),
                       run_serial=lambda rest: None,
                       should_abort=should_abort)
        assert delivered == []
        assert pools.submissions() == [(0, 0)]

    def test_finished_chunk_delivers_record_telemetry_pairs(self, pools):
        chunk = Chunk(id=0, items=[("key-a", "a"), ("key-b", "b")])
        delivered, _, _ = drive([chunk])
        assert delivered == {
            0: [[("record-a", "telemetry"), ("record-b", "telemetry")]]
        }

    def test_broken_pool_is_charged_and_rebuilt_on_next_submit(
            self, pools):
        pools.script = {(0, 0): "die"}
        delivered, _, events = drive(make_chunks(1))
        assert events == [("retry", 0), ("restart", -1)]   # lazily
        assert pools.made[0].shutdowns == [(False, True)]
        assert [args[:2] for _, args in pools.made[1].submitted] \
            == [(0, 1)]
        assert sorted(delivered) == [0]

    def test_chunk_that_raises_is_charged_and_keeps_the_pool(self, pools):
        pools.script = {(0, 0): "raise"}
        delivered, _, events = drive(make_chunks(2))
        assert ids(events, "retry") == [0]
        assert len(pools.made) == 1
        assert sorted(delivered) == [0, 1]


class TestKillAndShutdown:
    def test_kill_terminates_every_worker_then_pool_is_rebuilt(
            self, pools):
        """No per-worker kill exists on a pool: the timeout kill takes
        every worker down, and the next submit builds a fresh pool."""
        pools.script = {(0, 0): "hang"}
        _, _, events = drive(make_chunks(2), RetryPolicy(timeout=0.05))
        assert pools.made[0].terminated() == [True, True]
        assert len(pools.made) == 2
        assert pools.made[1].terminated() == [False, False]
        assert ids(events, "restart") == [-1]

    def test_clean_shutdown_drains_the_pool(self, pools):
        drive(make_chunks(2))
        assert pools.made[0].shutdowns == [(True, False)]
        assert pools.made[0].terminated() == [False, False]

    def test_kill_shutdown_terminates_and_does_not_wait(self, pools):
        pools.default = "hang"
        with pytest.raises(SweepAborted):
            drive(make_chunks(1), should_abort=lambda: bool(pools.made))
        assert pools.made[0].terminated() == [True, True]
        assert pools.made[0].shutdowns == [(False, True)]

    def test_shutdown_of_a_broken_pool_does_not_wait(self, pools):
        pools.script = {(0, 0): "die"}
        _, serial, _ = drive(make_chunks(1), RetryPolicy(max_attempts=1))
        assert serial == [0]
        assert len(pools.made) == 1        # nothing left to rebuild for
        assert pools.made[0].shutdowns == [(False, True)]

    def test_shutdown_before_any_submit_builds_no_pool(self, pools):
        delivered, serial, events = drive([])
        assert pools.made == []
        assert (delivered, serial, events) == ({}, [], [])


def test_run_chunks_never_sleeps(pools, monkeypatch):
    """The scheduler waits on futures; it never naps between polls."""
    def no_sleep(seconds):
        raise AssertionError(f"time.sleep({seconds}) called")

    monkeypatch.setattr(time, "sleep", no_sleep)
    pools.script = {(0, 0): "die", (1, 0): "raise", (2, 0): "hang"}
    delivered, _, events = drive(
        make_chunks(4), RetryPolicy(timeout=0.05),
        should_abort=lambda: False,
    )
    assert sorted(delivered) == [0, 1, 2, 3]
    assert ids(events, "retry") == [0, 1, 2]


def test_serial_import_loads_no_pool():
    """A serial CLI start or a job tracker never loads the pool, and
    with it ``multiprocessing``."""
    code = (
        "import sys, repro.cli, repro.jobs.tracker\n"
        "print([name for name in ('multiprocessing',"
        " 'concurrent.futures.process', 'repro.launchers.pool')"
        " if name in sys.modules])\n"
    )
    src = Path(pool.__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


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

    monkeypatch.setattr(pool, "execute_request_with_telemetry", execute)
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
