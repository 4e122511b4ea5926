"""Chunks of grid points on a local process pool.

:func:`run_chunks` owns a ``ProcessPoolExecutor``, waits on its futures
until every chunk is delivered or set aside for a serial run, and
reports each recovery move through ``on_event``:

* ``retry`` -- a failed delivery is charged to its chunk, which
  re-queues until it has failed ``max_attempts`` times.  A dead worker
  breaks the whole pool without saying whose it was: a chunk alone in
  flight is charged; otherwise every chunk in flight re-queues
  uncharged as a *suspect*, and suspects run alone, first, until each
  completes.  Workers store nothing, so a cut-off chunk re-runs whole.
* ``timeout`` -- a chunk past ``LTRF_CHUNK_TIMEOUT`` is charged and
  every worker is terminated (a pool has no per-worker kill); the
  other chunks in flight re-queue uncharged.
* ``quarantine`` -- a chunk out of attempts re-runs serially in the
  calling process at the end, where a real poison raises its own
  traceback instead of an opaque worker death.
* ``degrade`` -- :data:`DEGRADE_AFTER` consecutive charged failures
  across more than one chunk abandon the pool for serial runs.
* ``restart`` -- a pool was built to replace a broken or killed one.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.launchers import SweepAborted
from repro.launchers.faults import active_plan
from repro.launchers.worker import execute_request_with_telemetry

#: Consecutive charged failures, with no delivery in between and more
#: than one chunk among them, that abandon the pool for serial runs.
DEGRADE_AFTER = 6

#: Longest single wait while ``should_abort`` is given, so a cancel
#: stays prompt during a long chunk.
ABORT_POLL_SECONDS = 0.05


@dataclass
class Chunk:
    """A slice of ``(key, SimRequest)`` pairs.  ``id`` follows dispatch
    order (what ``kill:chunk=2`` selects); ``failures`` counts charged
    failures and is the attempt number a pool task is given."""

    id: int
    items: List[Tuple[str, object]]      # [(cache key, SimRequest)]
    failures: int = 0


#: The chunk argument of the ``restart`` and ``degrade`` events.
_NO_CHUNK = Chunk(id=-1, items=[])


def _env_number(name: str, parse, what: str):
    text = os.environ.get(name)
    if text is None or not text.strip():
        return None
    try:
        return parse(text)
    except ValueError:
        raise ValueError(f"{name} must be {what}, got {text!r}") from None


@dataclass
class RetryPolicy:
    """The retry budget and the chunk timeout (``LTRF_CHUNK_RETRIES``
    and ``LTRF_CHUNK_TIMEOUT`` override them in :meth:`from_env`)."""

    #: Charged failed deliveries per chunk before quarantine.
    max_attempts: int = 3
    #: Wall-clock seconds a chunk may run before it is killed and
    #: re-queued; ``None`` disables timeouts.
    timeout: Optional[float] = None

    @classmethod
    def from_env(cls) -> "RetryPolicy":
        policy = cls()
        timeout = _env_number("LTRF_CHUNK_TIMEOUT", float,
                              "a number of seconds")
        if timeout is not None:
            policy.timeout = timeout if timeout > 0 else None
        retries = _env_number("LTRF_CHUNK_RETRIES", int, "an integer")
        if retries is not None:
            policy.max_attempts = max(1, retries)
        return policy


def _run_pool_chunk(chunk_id: int, attempt: int, requests: list,
                    parent_pid: int) -> list:
    """Module-level (picklable) pool task: run one chunk's requests,
    one at a time so the fault harness can kill between simulations."""
    if os.getpid() != parent_pid:
        # Only a genuine pool worker gets a worker identity.  A
        # scripted in-process pool (tests) runs this in the
        # orchestrator, which must never look like a worker -- that is
        # the guard that keeps injected faults out of the parent.
        os.environ.setdefault("LTRF_WORKER_ID", f"w-pid{os.getpid()}")
    plan = active_plan()
    plan.on_chunk_start(chunk_id, attempt)
    outcomes = []
    for index, request in enumerate(requests):
        outcomes.append(execute_request_with_telemetry(request))
        plan.on_request_done(chunk_id, attempt, completed=index + 1)
    return outcomes


def run_chunks(
    chunks: List[Chunk],
    workers: int,
    policy: RetryPolicy,
    on_done: Callable[[Chunk, list], None],
    run_serial: Callable[[List[Chunk]], None],
    on_event: Optional[Callable[[str, Chunk], None]] = None,
    should_abort: Optional[Callable[[], bool]] = None,
) -> None:
    """Drive ``chunks`` through a pool of ``workers`` processes.

    ``on_done(chunk, results)`` delivers each completed chunk once;
    ``run_serial(chunks)`` gets the quarantined (after a degradation,
    all undelivered) chunks in id order once the pool is gone.  When
    ``should_abort()`` returns True the workers are killed and
    :class:`SweepAborted` is raised; a ``KeyboardInterrupt`` (or any
    error) kills them too and propagates.  Deliveries are never undone.
    """
    events = on_event or (lambda kind, chunk: None)
    cap = max(1, workers)
    queue: List[Chunk] = list(chunks)
    # future -> (chunk, monotonic-clock deadline)
    in_flight: Dict[object, Tuple[Chunk, float]] = {}
    suspects = set()                  # ids of chunks that must run alone
    serial_rest: List[Chunk] = []
    streak: List[int] = []            # charged chunk ids since a delivery
    pool = None
    pools_built = 0

    def discard(kill: bool) -> None:
        # Drop the pool unwaited; ``kill`` stops every worker first.
        nonlocal pool
        if pool is None:
            return
        if kill:
            for process in list((getattr(pool, "_processes", None)
                                 or {}).values()):
                try:
                    process.terminate()
                except (OSError, ValueError):
                    pass              # already gone
        pool.shutdown(wait=False, cancel_futures=True)
        pool = None

    def submit(args: tuple):
        nonlocal pool, pools_built
        if pool is None:
            if pools_built:
                events("restart", _NO_CHUNK)
            pool = ProcessPoolExecutor(max_workers=cap)
            pools_built += 1
        return pool.submit(_run_pool_chunk, *args)

    def launch(chunk: Chunk) -> None:
        args = (chunk.id, chunk.failures,
                [request for _, request in chunk.items], os.getpid())
        try:
            future = submit(args)
        except BrokenProcessPool:
            # The pool broke since the last wait: settle the chunks in
            # flight on it, then rebuild it once rather than lose this
            # one (so every chunk in flight is on the current pool).
            pool_broke()
            future = submit(args)
        deadline = (time.monotonic() + policy.timeout
                    if policy.timeout is not None else math.inf)
        in_flight[future] = (chunk, deadline)

    def fill() -> None:
        queue.sort(key=lambda chunk: chunk.id not in suspects)
        while queue and len(in_flight) < cap:
            running = {chunk.id for chunk, _ in in_flight.values()}
            if running and suspects & (running | {queue[0].id}):
                break                 # a suspect runs alone
            launch(queue.pop(0))

    def deliver(future) -> None:
        chunk, _ = in_flight.pop(future)
        suspects.discard(chunk.id)
        streak.clear()
        on_done(chunk, future.result())

    def charge(chunk: Chunk) -> None:
        chunk.failures += 1
        streak.append(chunk.id)
        if chunk.failures >= policy.max_attempts:
            events("quarantine", chunk)
            serial_rest.append(chunk)
        else:
            events("retry", chunk)
            queue.append(chunk)

    def take_in_flight() -> List[Chunk]:
        chunks = [chunk for chunk, _ in in_flight.values()]
        in_flight.clear()
        return chunks

    def pool_broke() -> None:
        for future in list(in_flight):
            if future.done() and future.exception() is None:
                deliver(future)
        lost = take_in_flight()
        discard(kill=False)
        if len(lost) == 1:
            charge(lost[0])
        else:
            suspects.update(chunk.id for chunk in lost)
            queue.extend(lost)

    def time_out(future) -> None:
        chunk, _ = in_flight.pop(future)
        events("timeout", chunk)
        discard(kill=True)
        queue.extend(take_in_flight())    # collateral: uncharged
        charge(chunk)

    try:
        while queue or in_flight:
            if should_abort is not None and should_abort():
                raise SweepAborted(
                    f"sweep aborted with {len(queue)} queued and "
                    f"{len(in_flight)} in-flight chunk(s); completed "
                    "chunks are already delivered"
                )
            fill()
            deadline = min(deadline for _, deadline in in_flight.values())
            if should_abort is not None:
                deadline = min(deadline, time.monotonic() + ABORT_POLL_SECONDS)
            timeout = (None if deadline == math.inf
                       else max(0.0, deadline - time.monotonic()))
            done, _ = wait(list(in_flight), timeout=timeout,
                           return_when=FIRST_COMPLETED)
            for future in sorted(done, key=lambda f: in_flight[f][0].id):
                if future not in in_flight:
                    continue          # settled with a broken sibling
                error = future.exception()
                if error is None:
                    deliver(future)
                elif isinstance(error, BrokenProcessPool):
                    pool_broke()
                else:
                    charge(in_flight.pop(future)[0])
            now = time.monotonic()
            for future, (_, deadline) in list(in_flight.items()):
                if deadline <= now and not future.done():
                    time_out(future)
                    break
            if len(streak) >= DEGRADE_AFTER and len(set(streak)) > 1:
                events("degrade", _NO_CHUNK)
                discard(kill=True)
                serial_rest.extend(take_in_flight() + queue)
                queue.clear()
    except BaseException:
        discard(kill=True)
        raise
    if pool is not None:
        pool.shutdown(wait=True)
    if serial_rest:
        run_serial(sorted(serial_rest, key=lambda chunk: chunk.id))
