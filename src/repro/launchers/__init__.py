"""Pluggable sweep execution backends (see base.py for the contract).

Two launchers ship: ``local`` (process pool, the default) and
``subprocess`` (one ``repro worker-chunk`` process per chunk).  Both
sit under the same scheduler (scheduler.py) -- retries, timeouts,
quarantine and degradation behave identically regardless of where a
chunk physically runs -- and the same deterministic fault-injection
harness (faults.py) exercises them in tests and CI.
"""

from repro.launchers.base import (
    Chunk,
    ChunkHandle,
    ChunkOutcome,
    Launcher,
    LauncherError,
    worker_id,
)
from repro.launchers.faults import (
    ENV_FAULT_PLAN,
    FaultPlanError,
    parse_fault_plan,
)
from repro.launchers.scheduler import (
    ENV_CHUNK_RETRIES,
    ENV_CHUNK_TIMEOUT,
    ENV_RETRY_BACKOFF,
    RetryPolicy,
    SchedulerReport,
    SweepAborted,
    run_chunks,
)

#: ``--backend`` choices, in help-text order.
BACKENDS = ("local", "subprocess")


def make_launcher(backend: str, store_dir=None) -> Launcher:
    """Instantiate the launcher for a ``--backend`` name.

    ``store_dir`` is the orchestrator's result-store root, which
    subprocess workers flush to directly.
    """
    if backend == "local":
        from repro.launchers.local import LocalPoolLauncher
        return LocalPoolLauncher()
    if backend == "subprocess":
        from repro.launchers.subproc import SubprocessLauncher
        return SubprocessLauncher(store_dir=store_dir)
    raise ValueError(
        f"unknown backend {backend!r} (expected one of "
        f"{', '.join(BACKENDS)})"
    )


__all__ = [
    "BACKENDS",
    "Chunk",
    "ChunkHandle",
    "ChunkOutcome",
    "ENV_CHUNK_RETRIES",
    "ENV_CHUNK_TIMEOUT",
    "ENV_FAULT_PLAN",
    "ENV_RETRY_BACKOFF",
    "FaultPlanError",
    "Launcher",
    "LauncherError",
    "RetryPolicy",
    "SchedulerReport",
    "SweepAborted",
    "make_launcher",
    "parse_fault_plan",
    "run_chunks",
    "worker_id",
]
