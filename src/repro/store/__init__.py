"""Sharded, crash-consistent result store (see result_store.py) and
the one query API every consumer reads it through (see query.py)."""

from repro.store.query import ParsedKey, Query, StoredRecord
from repro.store.result_store import (
    DEFAULT_SHARDS,
    CompactionReport,
    ResultStore,
    StoreError,
    StoreStats,
    VerifyReport,
)

__all__ = [
    "CompactionReport",
    "DEFAULT_SHARDS",
    "ParsedKey",
    "Query",
    "ResultStore",
    "StoreError",
    "StoreStats",
    "StoredRecord",
    "VerifyReport",
]
