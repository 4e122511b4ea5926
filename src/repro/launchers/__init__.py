"""Parallel sweep execution (see base.py for the contract).

Grid-point misses fan out over a local process pool (local.py) under a
scheduler (scheduler.py) that owns retries, timeouts, quarantine and
degradation; a deterministic fault-injection harness (faults.py)
exercises that machinery in tests and CI.
"""

from repro.launchers.base import (
    Chunk,
    ChunkHandle,
    ChunkOutcome,
    Launcher,
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

__all__ = [
    "Chunk",
    "ChunkHandle",
    "ChunkOutcome",
    "ENV_CHUNK_RETRIES",
    "ENV_CHUNK_TIMEOUT",
    "ENV_FAULT_PLAN",
    "ENV_RETRY_BACKOFF",
    "FaultPlanError",
    "Launcher",
    "RetryPolicy",
    "SchedulerReport",
    "SweepAborted",
    "parse_fault_plan",
    "run_chunks",
    "worker_id",
]
