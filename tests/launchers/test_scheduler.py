"""Unit tests for the chunk scheduler, driven by scripted launchers."""

import time

import pytest

from repro.launchers.base import (
    Chunk,
    ChunkHandle,
    ChunkOutcome,
    Launcher,
)
from repro.launchers.scheduler import RetryPolicy, SweepAborted, run_chunks

FAST = dict(base_backoff=0.0, poll_interval=0.001)


def make_chunks(count):
    return [Chunk(id=index, items=[(f"key-{index}", None)])
            for index in range(count)]


class _ScriptedHandle(ChunkHandle):
    def __init__(self, chunk, outcome):
        super().__init__(chunk)
        self.outcome = outcome       # ChunkOutcome, or None = hang
        self.killed = False

    def poll(self):
        return None if self.killed else self.outcome

    def kill(self):
        self.killed = True


class _ScriptedLauncher(Launcher):
    """Launcher whose per-attempt behaviour is a ``script`` callable
    ``(chunk_id, attempt) -> "ok" | "died" | "error" | "hang"``."""

    def __init__(self, script):
        super().__init__()
        self.script = script
        self.submitted = []          # (chunk_id, attempt) log
        self.shutdowns = []

    def submit(self, chunk):
        attempt = chunk.failures
        self.submitted.append((chunk.id, attempt))
        verdict = self.script(chunk.id, attempt)
        if verdict == "hang":
            return _ScriptedHandle(chunk, None)
        if verdict == "ok":
            outcome = ChunkOutcome(
                status="ok",
                results=[(f"record-{chunk.id}", None)],
            )
        else:
            outcome = ChunkOutcome(status=verdict, message=verdict)
        return _ScriptedHandle(chunk, outcome)

    def shutdown(self, kill=False):
        self.shutdowns.append(kill)


def drive(launcher, chunks, policy, workers=2):
    """Run the scheduler, collecting deliveries and serial fallbacks."""
    delivered = {}
    serial = []

    def on_done(chunk, results):
        delivered.setdefault(chunk.id, []).append(results)

    def run_serial(rest):
        serial.extend(chunk.id for chunk in rest)

    events = []
    report = run_chunks(
        launcher, chunks, workers, policy,
        on_done=on_done, run_serial=run_serial,
        on_event=lambda kind, chunk: events.append((kind, chunk.id)),
    )
    return report, delivered, serial, events


class TestRetries:
    def test_transient_failure_retries_then_succeeds(self):
        launcher = _ScriptedLauncher(
            lambda cid, attempt: "died" if (cid, attempt) == (1, 0)
            else "ok"
        )
        report, delivered, serial, events = drive(
            launcher, make_chunks(3), RetryPolicy(**FAST)
        )
        assert sorted(delivered) == [0, 1, 2]
        assert all(len(v) == 1 for v in delivered.values())  # once each
        assert serial == []
        assert report.retries == 1
        assert ("retry", 1) in events
        assert report.health[1] == ["died", "clean"]
        assert (1, 1) in launcher.submitted       # re-ran as attempt 1

    def test_backoff_is_deterministic_capped_and_grows(self):
        policy = RetryPolicy(base_backoff=0.25, max_backoff=1.0)
        first = policy.backoff(3, 1)
        assert first == policy.backoff(3, 1)          # deterministic
        assert policy.backoff(3, 2) > 0
        assert policy.backoff(3, 9) <= 1.0 + 0.5 * 0.25   # capped
        assert RetryPolicy(base_backoff=0.0).backoff(3, 1) == 0.0

    def test_from_env_overrides(self, monkeypatch):
        monkeypatch.setenv("LTRF_CHUNK_TIMEOUT", "7.5")
        monkeypatch.setenv("LTRF_CHUNK_RETRIES", "5")
        monkeypatch.setenv("LTRF_RETRY_BACKOFF", "0")
        policy = RetryPolicy.from_env()
        assert policy.timeout == 7.5
        assert policy.max_attempts == 5
        assert policy.base_backoff == 0.0

    def test_from_env_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("LTRF_CHUNK_TIMEOUT", "soon")
        with pytest.raises(ValueError, match="LTRF_CHUNK_TIMEOUT"):
            RetryPolicy.from_env()

    @pytest.mark.parametrize("name, text, field, expected", [
        ("LTRF_CHUNK_TIMEOUT", "0", "timeout", None),     # disabled
        ("LTRF_CHUNK_TIMEOUT", "-5", "timeout", None),
        ("LTRF_CHUNK_RETRIES", "0", "max_attempts", 1),   # at least one
        ("LTRF_CHUNK_RETRIES", " ", "max_attempts", 3),   # blank: default
        ("LTRF_RETRY_BACKOFF", "-1", "base_backoff", 0.0),
    ])
    def test_from_env_clamps_out_of_range_values(self, monkeypatch, name,
                                                 text, field, expected):
        for variable in ("LTRF_CHUNK_TIMEOUT", "LTRF_CHUNK_RETRIES",
                         "LTRF_RETRY_BACKOFF"):
            monkeypatch.delenv(variable, raising=False)
        monkeypatch.setenv(name, text)
        assert getattr(RetryPolicy.from_env(), field) == expected

    def test_from_env_rejects_non_integer_retries(self, monkeypatch):
        monkeypatch.setenv("LTRF_CHUNK_RETRIES", "2.5")
        with pytest.raises(ValueError, match="LTRF_CHUNK_RETRIES"):
            RetryPolicy.from_env()

    def test_retry_waits_out_its_backoff(self):
        submitted_at = []

        def script(cid, attempt):
            submitted_at.append(time.monotonic())
            return "died" if attempt == 0 else "ok"

        policy = RetryPolicy(base_backoff=0.05, poll_interval=0.001)
        report, delivered, _, _ = drive(
            _ScriptedLauncher(script), make_chunks(1), policy
        )
        assert sorted(delivered) == [0]
        first, retry = submitted_at
        assert retry - first >= policy.backoff(0, 1) >= 0.05


class TestQuarantine:
    def test_poisoned_chunk_exhausts_budget_and_runs_serially(self):
        launcher = _ScriptedLauncher(
            lambda cid, attempt: "error" if cid == 1 else "ok"
        )
        report, delivered, serial, events = drive(
            launcher, make_chunks(3), RetryPolicy(max_attempts=3, **FAST)
        )
        assert sorted(delivered) == [0, 2]
        assert serial == [1]
        assert report.quarantined == 1
        assert report.retries == 2        # attempts 1 and 2 were retries
        assert ("quarantine", 1) in events
        assert report.health[1] == ["error", "error", "error"]
        assert not report.degraded        # healthy backend, sick chunk


class TestDegradation:
    def test_streak_across_chunks_abandons_backend(self):
        launcher = _ScriptedLauncher(lambda cid, attempt: "died")
        report, delivered, serial, events = drive(
            launcher, make_chunks(4),
            RetryPolicy(max_attempts=3, degrade_after=4, **FAST),
        )
        assert report.degraded
        assert "consecutive failed deliveries" in report.degrade_reason
        assert delivered == {}
        assert sorted(serial) == [0, 1, 2, 3]     # nothing lost
        assert ("degrade", -1) in events

    def test_single_sick_chunk_does_not_degrade(self):
        """A streak confined to one chunk is a poisoned chunk, not a
        broken backend: quarantine it, keep the backend."""
        launcher = _ScriptedLauncher(
            lambda cid, attempt: "error" if cid == 0 else "ok"
        )
        report, delivered, serial, _ = drive(
            launcher, make_chunks(2),
            RetryPolicy(max_attempts=8, degrade_after=3, **FAST),
            workers=1,
        )
        assert not report.degraded
        assert serial == [0]
        assert sorted(delivered) == [1]

    def test_success_resets_the_streak(self):
        verdicts = iter(["died", "died", "ok", "died", "died", "ok",
                         "ok", "ok", "ok", "ok", "ok", "ok"])
        launcher = _ScriptedLauncher(lambda cid, attempt: next(verdicts))
        report, delivered, serial, _ = drive(
            launcher, make_chunks(4),
            RetryPolicy(max_attempts=5, degrade_after=4, **FAST),
            workers=1,
        )
        assert not report.degraded
        assert sorted(delivered) == [0, 1, 2, 3]
        assert serial == []


class TestTimeouts:
    def test_hung_chunk_is_killed_and_reassigned(self):
        launcher = _ScriptedLauncher(
            lambda cid, attempt: "hang" if (cid, attempt) == (1, 0)
            else "ok"
        )
        report, delivered, serial, events = drive(
            launcher, make_chunks(3),
            RetryPolicy(timeout=0.05, **FAST),
        )
        assert report.timeouts == 1
        assert ("timeout", 1) in events
        assert sorted(delivered) == [0, 1, 2]     # completed after retry
        assert serial == []
        assert report.health[1] == ["timed-out", "clean"]

    def test_collateral_kill_requeues_innocents_uncharged(self):
        """Killing a hung chunk takes the pool, and with it the
        innocent in-flight chunks, down; they re-queue without being
        charged a retry."""
        hung = set()

        def script(cid, attempt):
            if cid not in hung:     # first delivery of each chunk hangs
                hung.add(cid)
                return "hang"
            return "ok"

        launcher = _ScriptedLauncher(script)
        report, delivered, serial, _ = drive(
            launcher, make_chunks(2),
            RetryPolicy(timeout=0.05, **FAST),
        )
        assert sorted(delivered) == [0, 1]
        # Exactly one chunk was charged with the timeout; its sibling
        # came back with failures == 0 (uncharged collateral).
        assert report.timeouts == 1
        charged = [chunk_id for chunk_id, history in report.health.items()
                   if "timed-out" in history]
        assert len(charged) == 1
        collateral = [chunk_id for chunk_id, history
                      in report.health.items()
                      if "collateral" in history]
        assert len(collateral) == 1
        resubmits = [entry for entry in launcher.submitted
                     if entry[0] == collateral[0]]
        assert resubmits[-1][1] == 0              # attempt 0 again

    def test_chunk_that_hangs_every_attempt_is_quarantined(self):
        launcher = _ScriptedLauncher(lambda cid, attempt: "hang")
        report, delivered, serial, _ = drive(
            launcher, make_chunks(1),
            RetryPolicy(timeout=0.02, max_attempts=2, **FAST),
        )
        assert report.timeouts == 2
        assert report.quarantined == 1
        assert report.health[0] == ["timed-out", "timed-out"]
        assert delivered == {}
        assert serial == [0]              # finished in the orchestrator

    def test_no_timeout_means_no_deadline(self):
        launcher = _ScriptedLauncher(lambda cid, attempt: "ok")
        report, delivered, _, _ = drive(
            launcher, make_chunks(2), RetryPolicy(timeout=None, **FAST)
        )
        assert report.timeouts == 0
        assert sorted(delivered) == [0, 1]


class TestLifecycle:
    def test_shutdown_always_called(self):
        launcher = _ScriptedLauncher(lambda cid, attempt: "ok")
        drive(launcher, make_chunks(2), RetryPolicy(**FAST))
        assert launcher.shutdowns

    def test_restart_event_surfaces_launcher_rebuilds(self):
        class _Rebuilding(_ScriptedLauncher):
            def submit(self, chunk):
                handle = super().submit(chunk)
                if chunk.id == 1 and chunk.failures == 0:
                    self.restarts += 1
                return handle

        launcher = _Rebuilding(lambda cid, attempt: "ok")
        events = []
        run_chunks(
            launcher, make_chunks(2), 1, RetryPolicy(**FAST),
            on_done=lambda chunk, results: None,
            run_serial=lambda rest: None,
            on_event=lambda kind, chunk: events.append(kind),
        )
        assert "restart" in events


class TestAbort:
    def test_should_abort_kills_in_flight_work_and_keeps_deliveries(self):
        launcher = _ScriptedLauncher(
            lambda cid, attempt: "ok" if cid == 0 else "hang"
        )
        delivered, serial = [], []
        with pytest.raises(SweepAborted, match="1 in-flight"):
            run_chunks(
                launcher, make_chunks(2), 2, RetryPolicy(**FAST),
                on_done=lambda chunk, results: delivered.append(chunk.id),
                run_serial=serial.extend,
                should_abort=lambda: bool(delivered),
            )
        assert delivered == [0]
        assert launcher.shutdowns[0] is True      # killed, not drained
        assert serial == []                       # nothing runs after

    def test_keyboard_interrupt_kills_in_flight_work_and_propagates(self):
        class _Interrupted(_ScriptedHandle):
            def poll(self):
                raise KeyboardInterrupt

        class _Launcher(_ScriptedLauncher):
            def submit(self, chunk):
                super().submit(chunk)
                return _Interrupted(chunk, None)

        launcher = _Launcher(lambda cid, attempt: "ok")
        serial = []
        with pytest.raises(KeyboardInterrupt):
            run_chunks(
                launcher, make_chunks(2), 2, RetryPolicy(**FAST),
                on_done=lambda chunk, results: None,
                run_serial=serial.extend,
            )
        assert launcher.shutdowns[0] is True
        assert serial == []
