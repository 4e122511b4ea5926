"""Local process-pool launcher: today's in-machine fan-out path.

Wraps a ``ProcessPoolExecutor`` behind the
:class:`~repro.launchers.base.Launcher` contract.  The pool is a
*shared* backend: one worker dying breaks the whole executor
(``BrokenProcessPool``), and there is no supported way to kill a
single hung worker -- so this launcher declares
``kill_is_collateral`` and, when the scheduler kills a timed-out
chunk, terminates the pool's worker processes outright and rebuilds
the pool lazily on the next submit.  Innocent in-flight chunks are the
scheduler's problem (it re-queues them uncharged); rebuilt-pool counts
surface as ``restarts`` -> ``RunnerStats.pool_retries``.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Optional

from repro.launchers.base import (
    Chunk,
    ChunkHandle,
    ChunkOutcome,
    Launcher,
)
from repro.launchers.worker import execute_request_with_telemetry


def _run_pool_chunk(chunk_id: int, attempt: int, requests: list,
                    parent_pid: int) -> list:
    """Module-level (picklable) pool task: run one chunk's requests.

    Requests execute one at a time so the fault harness can kill
    between simulations (``kill:chunk=N:after=M``).  The tier-1 suite
    scripts worker behaviour by patching this module's
    ``execute_request_with_telemetry`` and ``ProcessPoolExecutor``.
    """
    if os.getpid() != parent_pid:
        # Only a genuine pool worker gets a worker identity.  A
        # scripted in-process pool (tests) runs this in the
        # orchestrator, which must never look like a worker -- that is
        # the guard that keeps injected faults out of the parent.
        os.environ.setdefault("LTRF_WORKER_ID", f"w-pid{os.getpid()}")
    from repro.launchers.faults import active_plan
    plan = active_plan()
    plan.on_chunk_start(chunk_id, attempt)
    outcomes = []
    for index, request in enumerate(requests):
        outcomes.append(execute_request_with_telemetry(request))
        plan.on_request_done(chunk_id, attempt, completed=index + 1)
    return outcomes


class _PoolHandle(ChunkHandle):
    def __init__(self, chunk: Chunk, future, launcher) -> None:
        super().__init__(chunk)
        self.future = future
        self.launcher = launcher

    def poll(self) -> Optional[ChunkOutcome]:
        if not self.future.done():
            return None
        error = self.future.exception()
        if error is None:
            return ChunkOutcome(
                status="ok",
                results=[
                    (record, telemetry, False)
                    for record, telemetry in self.future.result()
                ],
            )
        if isinstance(error, BrokenProcessPool):
            # The shared pool is gone; every sibling in-flight chunk
            # will report the same.  Mark for lazy rebuild.
            self.launcher._broken = True
            return ChunkOutcome(status="died", message=str(error))
        return ChunkOutcome(
            status="error",
            message=f"{type(error).__name__}: {error}",
        )

    def kill(self) -> None:
        # There is no per-worker kill on a ProcessPoolExecutor;
        # terminate the whole pool (collateral is declared, the
        # scheduler re-queues the innocents uncharged).
        self.launcher._terminate_pool()


class LocalPoolLauncher(Launcher):
    """``--backend local``: chunks on a local process pool."""

    name = "local"
    kill_is_collateral = True

    def __init__(self) -> None:
        super().__init__()
        self._pool = None
        self._broken = False
        self._workers = 1

    def start(self, workers: int) -> None:
        self._workers = max(1, workers)

    def _ensure_pool(self):
        if self._broken and self._pool is not None:
            self._discard_pool()
            self.restarts += 1
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self._workers)
            self._broken = False
        return self._pool

    def _discard_pool(self, wait: bool = False) -> None:
        pool = self._pool
        self._pool = None
        if pool is not None:
            try:
                pool.shutdown(wait=wait, cancel_futures=not wait)
            except TypeError:
                # Scripted test doubles may not take the kwargs.
                pool.shutdown()
            except Exception:
                pass

    def _terminate_pool(self) -> None:
        """Hard-stop every pool worker (the timeout kill path)."""
        pool = self._pool
        self._broken = True
        if pool is None:
            return
        processes = getattr(pool, "_processes", None)
        if processes:
            for process in list(processes.values()):
                try:
                    process.terminate()
                except Exception:
                    pass

    def submit(self, chunk: Chunk) -> ChunkHandle:
        args = (chunk.id, chunk.failures,
                [request for _, request in chunk.items], os.getpid())
        try:
            future = self._ensure_pool().submit(_run_pool_chunk, *args)
        except BrokenProcessPool:
            # The pool died since the last poll noticed; rebuild once
            # and resubmit rather than losing the chunk.
            self._broken = True
            future = self._ensure_pool().submit(_run_pool_chunk, *args)
        return _PoolHandle(chunk, future, self)

    def shutdown(self, kill: bool = False) -> None:
        if kill:
            self._terminate_pool()
        # A clean shutdown drains gracefully; a kill (or broken pool)
        # must not block on workers that will never finish.
        self._discard_pool(wait=not kill and not self._broken)
