"""Crash-consistent result store on one SQLite file (see
result_store.py) and the one query API every consumer reads it through
(see query.py)."""

from repro.store.query import Query, StoredRecord
from repro.store.result_store import (
    CompactionReport,
    ParsedKey,
    SEED_RANGE,
    ResultStore,
    StoreError,
    StoreStats,
    VerifyReport,
    check_workload_name,
)

__all__ = [
    "CompactionReport",
    "ParsedKey",
    "Query",
    "ResultStore",
    "SEED_RANGE",
    "StoreError",
    "StoreStats",
    "StoredRecord",
    "VerifyReport",
    "check_workload_name",
]
