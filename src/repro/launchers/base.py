"""Launcher abstraction: how a batch of simulation chunks executes.

A *launcher* owns the mechanics of running one chunk of grid points
somewhere -- on a local process pool, or in a freshly spawned
``repro worker-chunk`` subprocess.  It deliberately knows nothing
about retries, timeouts, quarantine, or result bookkeeping: that
robustness machinery lives in :mod:`repro.launchers.scheduler` and is
shared by every backend, so a dying subprocess and a hung pool worker
are survived by the same code path.

The contract is synchronous-submission / polled-completion:

* :meth:`Launcher.submit` starts a chunk and returns a
  :class:`ChunkHandle` immediately.
* :meth:`ChunkHandle.poll` is non-blocking: ``None`` while running,
  else a :class:`ChunkOutcome` whose status is ``"ok"`` (aligned
  results delivered), ``"died"`` (the executing worker vanished --
  killed, crashed, non-zero exit), or ``"error"`` (the worker stayed
  alive but the chunk raised; the exception text travels in
  ``message``).
* :meth:`ChunkHandle.kill` force-stops the chunk (used by the
  scheduler's wall-clock timeout).  A launcher whose kill cannot be
  scoped to one chunk (the local process pool: terminating a worker
  breaks the whole pool) declares ``kill_is_collateral = True`` and
  the scheduler re-queues innocent in-flight chunks uncharged.

Timeout classification ("timed-out" vs "died") is the scheduler's
call -- a launcher only ever reports what it observed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import List, Optional, Tuple


class LauncherError(Exception):
    """The backend itself is unusable (cannot start or submit).

    Raised by launchers for environment-level failures, as opposed to
    a chunk failing.
    The scheduler reacts by degrading to serial in-process execution
    rather than crashing the sweep.
    """


@dataclass
class Chunk:
    """One schedulable unit: a slice of ``(key, SimRequest)`` pairs.

    ``id`` is assigned in deterministic dispatch order (the order
    :func:`repro.jobs.plan._dispatch_chunks` produced the
    chunks), which is what makes fault-plan selectors like
    ``kill:chunk=2`` reproducible across runs and backends.
    ``failures`` counts delivery attempts that did not complete --
    the retry budget charges against it.
    """

    id: int
    items: List[Tuple[str, object]]      # [(cache key, SimRequest)]
    failures: int = 0
    #: Monotonic-clock time before which this chunk must not be
    #: re-submitted (set by the scheduler's backoff on a retry).
    eligible_at: float = 0.0
    #: Health history of this chunk's attempts ("died", "timed-out",
    #: "error"), newest last; surfaced in degradation diagnostics.
    history: List[str] = field(default_factory=list)


@dataclass
class ChunkOutcome:
    """What happened to one submitted chunk attempt."""

    status: str                          # "ok" | "died" | "error"
    #: For "ok": [(RunRecord, SimTelemetry, cached)] aligned with
    #: ``chunk.items``; ``cached`` is True when the worker served the
    #: record from an already-flushed store entry instead of
    #: re-simulating (a killed predecessor's partial progress).
    results: Optional[list] = None
    message: str = ""


class ChunkHandle:
    """A launcher-specific in-flight chunk.  Subclasses implement
    :meth:`poll` and :meth:`kill`."""

    def __init__(self, chunk: Chunk) -> None:
        self.chunk = chunk

    def poll(self) -> Optional[ChunkOutcome]:
        raise NotImplementedError

    def kill(self) -> None:
        raise NotImplementedError


class Launcher:
    """Base class: lifecycle plus the collateral-kill declaration."""

    name = "abstract"
    #: True when killing one chunk necessarily disturbs the others
    #: sharing the backend (the local pool).  The scheduler re-queues
    #: disturbed chunks without charging their retry budget.
    kill_is_collateral = False

    def __init__(self) -> None:
        #: Times the backend was torn down and rebuilt mid-grid
        #: (e.g. a broken process pool replaced).  The runner maps
        #: this onto ``RunnerStats.pool_retries``.
        self.restarts = 0

    def start(self, workers: int) -> None:
        """Acquire backend resources.  May raise LauncherError."""

    def submit(self, chunk: Chunk) -> ChunkHandle:
        raise NotImplementedError

    def shutdown(self, kill: bool = False) -> None:
        """Release resources; with ``kill``, stop in-flight work too."""


def worker_id() -> Optional[str]:
    """This process's launcher-assigned worker identity, or ``None``.

    Set (via the ``LTRF_WORKER_ID`` environment variable) only inside
    launcher-spawned workers -- which is the guard that keeps the
    fault-injection harness from ever firing in the orchestrating
    process: a quarantined chunk re-run serially in the parent must
    not re-trigger the ``kill`` that quarantined it.
    """
    return os.environ.get("LTRF_WORKER_ID")
