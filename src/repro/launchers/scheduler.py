"""Chunk scheduler: retry, timeout, quarantine.

This is the robustness machinery around the launcher.  The old
runner had exactly one recovery move -- re-dispatch the whole
unfinished remainder once after ``BrokenProcessPool`` -- which loses
the sweep on a second failure and cannot survive a *hang* at all.
The scheduler replaces it with per-chunk machinery:

* **Retry budget with capped exponential backoff + jitter.**  A chunk
  whose delivery fails (worker died, chunk raised, wall-clock timeout)
  is re-queued up to ``max_attempts`` times; the wait before attempt
  *n* is ``base * 2**(n-1)`` capped at ``max_backoff``, plus a
  deterministic per-(chunk, attempt) jitter so a herd of failed chunks
  does not re-dispatch in lockstep.  Deterministic on purpose: chaos
  tests replay byte-identically.
* **Per-chunk wall-clock timeouts** (``LTRF_CHUNK_TIMEOUT``): a chunk
  running past the deadline is killed and re-queued ("timed-out"),
  which is what turns a hung worker from a stuck sweep into a retry.
  The pool's kill is collateral, so the innocent chunks in flight
  with it are re-queued *uncharged*.
* **Worker health classification.**  Every attempt ends "clean",
  "died", "timed-out" or "error"; a chunk that fails its whole budget
  is **quarantined** (poisoned-chunk suspicion) rather than retried
  forever, and quarantined chunks run serially in the orchestrating
  process at the end -- where a genuine poison reproduces its real
  traceback instead of an opaque worker death.
* **Graceful degradation.**  A backend that keeps failing with no
  successes in between (``degrade_after`` consecutive failed
  deliveries spanning more than one chunk) is abandoned: everything
  not yet completed runs serially in-process.  A sweep on a broken
  backend finishes late, not never.

The scheduler reports every decision through an ``on_event`` callback
(``retry``/``timeout``/``quarantine``/``degrade``/``restart``) that
the runner folds into :class:`~repro.experiments.runner.RunnerStats`,
so fault tolerance is visible in ``telemetry_summary()`` and
``repro report`` rather than silently absorbed.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.launchers.base import Chunk, ChunkHandle, Launcher

ENV_CHUNK_TIMEOUT = "LTRF_CHUNK_TIMEOUT"
ENV_CHUNK_RETRIES = "LTRF_CHUNK_RETRIES"
ENV_RETRY_BACKOFF = "LTRF_RETRY_BACKOFF"


class SweepAborted(RuntimeError):
    """A sweep was cancelled cooperatively (``should_abort`` returned
    True) rather than failing.

    Raised by :func:`run_chunks` -- and by the serial execution path in
    :mod:`repro.jobs.plan` -- after in-flight work has been killed and
    the launcher shut down.  Everything already delivered to
    ``on_done`` (and therefore flushed by the runner) survives, which
    is what makes an aborted sweep resumable: re-running the same grid
    picks up from the store.  The job tracker maps this onto the
    ``partial`` job state.
    """


def _env_float(name: str, default: Optional[float]) -> Optional[float]:
    text = os.environ.get(name)
    if text is None or not text.strip():
        return default
    try:
        value = float(text)
    except ValueError:
        raise ValueError(
            f"{name} must be a number of seconds, got {text!r}"
        ) from None
    return value


@dataclass
class RetryPolicy:
    """Knobs of the robustness machinery (env-overridable)."""

    #: Delivery attempts per chunk before quarantine.
    max_attempts: int = 3
    #: First-retry backoff in seconds; doubles per attempt.
    base_backoff: float = 0.25
    #: Backoff ceiling in seconds.
    max_backoff: float = 5.0
    #: Wall-clock seconds a chunk may run before it is killed and
    #: re-queued; ``None`` (or <= 0) disables timeouts.
    timeout: Optional[float] = None
    #: Consecutive failed deliveries (no success in between, more than
    #: one distinct chunk involved) before the backend is declared
    #: broken and the sweep degrades to serial in-process execution.
    degrade_after: int = 6
    #: Scheduler poll cadence in seconds.
    poll_interval: float = 0.02

    @classmethod
    def from_env(cls, **overrides) -> "RetryPolicy":
        policy = cls(**overrides)
        policy.timeout = _env_float(ENV_CHUNK_TIMEOUT, policy.timeout)
        if policy.timeout is not None and policy.timeout <= 0:
            policy.timeout = None
        retries = os.environ.get(ENV_CHUNK_RETRIES)
        if retries is not None and retries.strip():
            try:
                policy.max_attempts = max(1, int(retries))
            except ValueError:
                raise ValueError(
                    f"{ENV_CHUNK_RETRIES} must be an integer, "
                    f"got {retries!r}"
                ) from None
        base = _env_float(ENV_RETRY_BACKOFF, None)
        if base is not None:
            policy.base_backoff = max(0.0, base)
        return policy

    def backoff(self, chunk_id: int, attempt: int) -> float:
        """Capped exponential backoff plus deterministic jitter.

        Jitter derives from a hash of ``(chunk, attempt)`` -- spread
        without randomness, so two runs of the same fault plan wait
        identically.
        """
        if self.base_backoff <= 0:
            return 0.0
        delay = min(self.base_backoff * (2 ** max(0, attempt - 1)),
                    self.max_backoff)
        digest = hashlib.sha256(f"{chunk_id}:{attempt}".encode()).digest()
        jitter = (digest[0] / 255.0) * 0.5 * self.base_backoff
        return delay + jitter


class SchedulerReport:
    """Counters of one scheduling run (what the runner folds into
    RunnerStats)."""

    def __init__(self) -> None:
        self.retries = 0            # charged re-queues (died/error/timeout)
        self.timeouts = 0           # chunks killed at the deadline
        self.quarantined = 0        # chunks that exhausted their budget
        self.degraded = False       # backend abandoned for serial
        self.degrade_reason = ""
        #: chunk id -> health history, e.g. [2, ["died", "clean"]].
        self.health: Dict[int, List[str]] = {}

    def note(self, chunk: Chunk, status: str) -> None:
        self.health.setdefault(chunk.id, []).append(status)


def run_chunks(
    launcher: Launcher,
    chunks: List[Chunk],
    workers: int,
    policy: RetryPolicy,
    on_done: Callable[[Chunk, list], None],
    run_serial: Callable[[List[Chunk]], None],
    on_event: Optional[Callable[[str, Chunk], None]] = None,
    should_abort: Optional[Callable[[], bool]] = None,
) -> SchedulerReport:
    """Drive ``chunks`` through ``launcher`` to completion.

    ``on_done(chunk, results)`` delivers each completed chunk exactly
    once (late duplicate completions are the runner's count-once guard
    to ignore).  ``run_serial(chunks)`` executes chunks in the calling
    process -- the quarantine/degradation escape hatch.  ``on_event``
    observes scheduling decisions: ``retry``, ``timeout``,
    ``quarantine``, ``degrade``, ``restart``.

    KeyboardInterrupt is honoured eagerly: in-flight work is killed,
    the launcher shut down, and the interrupt re-raised -- everything
    already delivered to ``on_done`` (and therefore flushed by the
    runner) survives.  ``should_abort`` is the programmatic twin
    (polled once per scheduling round): when it returns True the same
    teardown happens and :class:`SweepAborted` is raised -- how the
    job tracker cancels a sweep mid-grid without owning the thread's
    signal handling.
    """
    report = SchedulerReport()
    events = on_event or (lambda kind, chunk: None)
    queue: List[Chunk] = list(chunks)
    in_flight: Dict[ChunkHandle, float] = {}   # handle -> deadline
    done_ids = set()
    serial_rest: List[Chunk] = []
    failure_streak = 0
    streak_chunks = set()
    restarts_seen = launcher.restarts

    def fail(handle_chunk: Chunk, status: str, charge: bool = True) -> None:
        nonlocal failure_streak
        report.note(handle_chunk, status)
        if not charge:
            handle_chunk.eligible_at = 0.0
            queue.append(handle_chunk)
            return
        failure_streak += 1
        streak_chunks.add(handle_chunk.id)
        handle_chunk.failures += 1
        if handle_chunk.failures >= policy.max_attempts:
            report.quarantined += 1
            events("quarantine", handle_chunk)
            serial_rest.append(handle_chunk)
            return
        report.retries += 1
        events("retry", handle_chunk)
        handle_chunk.eligible_at = (
            time.monotonic()
            + policy.backoff(handle_chunk.id, handle_chunk.failures)
        )
        queue.append(handle_chunk)

    launcher.start(workers)
    cap = max(1, workers)
    try:
        while queue or in_flight:
            if should_abort is not None and should_abort():
                launcher.shutdown(kill=True)
                raise SweepAborted(
                    f"sweep aborted with {len(queue)} queued and "
                    f"{len(in_flight)} in-flight chunk(s); completed "
                    "chunks are already delivered"
                )
            now = time.monotonic()
            progressed = False

            # Submit eligible chunks up to the in-flight cap.
            if queue and len(in_flight) < cap:
                queue.sort(key=lambda c: (c.eligible_at, c.id))
                while queue and len(in_flight) < cap \
                        and queue[0].eligible_at <= now:
                    chunk = queue.pop(0)
                    handle = launcher.submit(chunk)
                    deadline = (now + policy.timeout
                                if policy.timeout is not None
                                else float("inf"))
                    in_flight[handle] = deadline
                    progressed = True

            # Poll in-flight chunks.
            for handle in list(in_flight):
                if handle not in in_flight:
                    continue      # removed as collateral this round
                outcome = handle.poll()
                if outcome is None:
                    if time.monotonic() >= in_flight[handle]:
                        del in_flight[handle]
                        report.timeouts += 1
                        events("timeout", handle.chunk)
                        handle.kill()
                        fail(handle.chunk, "timed-out")
                        # The kill took the shared pool down with it;
                        # re-queue the innocents without charging
                        # their budget.
                        for other in list(in_flight):
                            del in_flight[other]
                            fail(other.chunk, "collateral", charge=False)
                        progressed = True
                    continue
                del in_flight[handle]
                progressed = True
                if outcome.status == "ok":
                    report.note(handle.chunk, "clean")
                    done_ids.add(handle.chunk.id)
                    failure_streak = 0
                    streak_chunks.clear()
                    on_done(handle.chunk, outcome.results)
                else:
                    fail(handle.chunk, outcome.status)

            if launcher.restarts != restarts_seen:
                restarts_seen = launcher.restarts
                events("restart", Chunk(id=-1, items=[]))

            if failure_streak >= policy.degrade_after \
                    and len(streak_chunks) > 1:
                # Abandon the backend: drain nothing further from it;
                # everything queued or in flight runs serially.
                report.degraded = True
                report.degrade_reason = (
                    f"{failure_streak} consecutive failed deliveries "
                    f"across {len(streak_chunks)} chunk(s) with no "
                    "successes in between"
                )
                events("degrade", Chunk(id=-1, items=[]))
                for handle in list(in_flight):
                    try:
                        handle.kill()
                    except Exception:
                        pass
                serial_rest.extend(h.chunk for h in in_flight)
                in_flight.clear()
                serial_rest.extend(queue)
                queue.clear()
                break

            if not progressed:
                # Nothing to do right now: nap until the next deadline
                # or backoff expiry, bounded by the poll interval.
                time.sleep(policy.poll_interval)
    except KeyboardInterrupt:
        launcher.shutdown(kill=True)
        raise
    finally:
        launcher.shutdown(kill=bool(in_flight))

    pending = [chunk for chunk in serial_rest if chunk.id not in done_ids]
    if pending:
        # Deterministic order regardless of failure interleaving.
        pending.sort(key=lambda c: c.id)
        run_serial(pending)
    return report
