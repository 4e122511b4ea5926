"""Sharded, crash-consistent result store (see result_store.py) and
the one query API every consumer reads it through (see query.py)."""

from repro.store.merge import MergeOutcome, merge_store
from repro.store.query import (
    AGGREGATORS,
    ParsedKey,
    Query,
    StoredRecord,
    parse_key,
)
from repro.store.result_store import (
    DEFAULT_SHARDS,
    CompactionReport,
    ResultStore,
    StoreError,
    StoreStats,
    VerifyReport,
)

__all__ = [
    "AGGREGATORS",
    "CompactionReport",
    "DEFAULT_SHARDS",
    "MergeOutcome",
    "ParsedKey",
    "Query",
    "ResultStore",
    "StoreError",
    "StoreStats",
    "StoredRecord",
    "VerifyReport",
    "merge_store",
    "parse_key",
]
