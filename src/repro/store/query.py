"""One query API over the result store.

Every consumer used to read the store through its own ad-hoc path:
the figures replayed ``simulate_many`` for warm records, the ``store``
CLI called :meth:`ResultStore.stats` directly, scripts iterated
``store.keys()`` by hand and re-parsed payloads.  This module is the
single sanctioned read surface instead: a :class:`Query` that decodes
raw ``key -> payload`` entries into typed :class:`StoredRecord` rows
(workload, policy, arch/kernel fingerprints, seed, the full payload,
and -- where the arch manifest knows the fingerprint -- the concrete
MRF latency multiple), with filters, projections, group-by, and
aggregations over IPC and any other numeric record field.

Reports (``repro report``), run diffing (``repro diff-runs``), the
``store`` CLI, ``run_all_experiments``'s ``[store]`` line, and
:meth:`Runner.results` are all built on it; direct segment/index
access stays confined to :mod:`repro.store`.

Keys are parsed structurally, never trusted blindly: both the current
format ``<workload>__<policy>__a<arch-fp>__<seed>__k<kernel-fp>`` and
the pre-arch-fingerprint legacy format (a bare config hash in place of
the ``a<fp>`` segment) decode, and a key that matches neither still
yields a row (fingerprints empty, identity recovered from the payload
where possible) so maintenance tooling sees *every* record.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.store.result_store import ResultStore, StoreStats


#: Lowercase hex digits only: no uppercase, no ``0x`` prefix.
_HEX = re.compile(r"[0-9a-f]+")


def _is_hex(text: str) -> bool:
    return _HEX.fullmatch(text) is not None


@dataclass(frozen=True)
class ParsedKey:
    """The structured form of one result-store cache key."""

    workload: str
    policy: str
    #: Content fingerprint of the architecture (``a<fp>`` segment);
    #: empty for legacy-format keys.
    arch_fingerprint: str
    #: The legacy config-hash segment, for pre-arch-fingerprint keys;
    #: empty for current-format keys.
    config_fingerprint: str
    seed: int
    kernel_fingerprint: str


def parse_key(key: str) -> Optional[ParsedKey]:
    """Decode a cache key, or ``None`` if it matches neither format.

    Parsed right to left (kernel fingerprint, seed, arch segment,
    policy) because only the workload may itself contain ``__`` -- a
    file-backed workload is addressed by its path.
    """
    base, sep, kernel_fp = key.rpartition("__k")
    if not sep or not _is_hex(kernel_fp):
        return None
    parts = base.rsplit("__", 3)
    if len(parts) != 4:
        return None
    workload, policy, arch_token, seed_text = parts
    if not workload or not policy:
        return None
    try:
        seed = int(seed_text)
    except ValueError:
        return None
    if arch_token.startswith("a") and _is_hex(arch_token[1:]):
        return ParsedKey(workload, policy, arch_token[1:], "", seed,
                         kernel_fp)
    if _is_hex(arch_token):
        return ParsedKey(workload, policy, "", arch_token, seed, kernel_fp)
    return None


@dataclass(frozen=True)
class StoredRecord:
    """One typed row of the store: a decoded ``key -> payload`` entry."""

    key: str
    workload: str
    policy: str
    arch_fingerprint: str
    config_fingerprint: str
    seed: int
    kernel_fingerprint: str
    #: The raw stored payload (a ``RunRecord``-shaped dict for current
    #: entries; possibly an older schema for stale ones).
    payload: Mapping[str, Any]
    #: Whether the payload decodes under the *current* ``RunRecord``
    #: schema.  Stale entries stay visible (they are what ``diff-runs``
    #: attributes to schema drift) but are excluded from aggregations.
    schema_ok: bool
    #: The MRF latency multiple of the architecture this record was
    #: simulated on, resolved through the store's arch manifest;
    #: ``None`` when the fingerprint has no recorded description.
    latency: Optional[float]
    #: Whether the key parsed as a known cache-key format.
    key_ok: bool = True

    @property
    def ipc(self) -> Optional[float]:
        value = self.payload.get("ipc")
        return float(value) if isinstance(value, (int, float)) else None

    def value(self, name: str) -> Any:
        """Resolve a field by name: record attributes first (workload,
        policy, fingerprints, seed, latency, key), then any payload
        field (ipc, cycles, mrf_reads, ...)."""
        if name in _RECORD_FIELDS:
            return getattr(self, name)
        return self.payload.get(name)


_RECORD_FIELDS = frozenset(
    ("key", "workload", "policy", "arch_fingerprint",
     "config_fingerprint", "seed", "kernel_fingerprint", "latency",
     "schema_ok", "key_ok")
)


def _current_schema_fields() -> frozenset:
    # Deferred: repro.experiments.runner imports repro.store, so the
    # RunRecord schema cannot be imported at module load without a
    # cycle.  The field set is what decides schema_ok -- RunRecord
    # construction itself would also coerce types, but stored payloads
    # are produced by asdict(RunRecord), so shape is the honest check.
    from dataclasses import fields as dataclass_fields

    from repro.experiments.runner import RunRecord
    return frozenset(spec.name for spec in dataclass_fields(RunRecord))


def _decode_latency(arch_payload: Optional[dict]) -> Optional[float]:
    """The MRF latency multiple recorded in an arch-manifest payload."""
    if arch_payload is None:
        return None
    from repro.arch.serialize import ArchSerializationError, arch_from_dict
    try:
        return arch_from_dict(arch_payload).mrf_latency_multiple
    except ArchSerializationError:
        return None


# -- aggregation functions ----------------------------------------------------

def _geomean(values: Sequence[float]) -> float:
    positive = [v for v in values if v > 0]
    if not positive:
        return 0.0
    return math.exp(sum(math.log(v) for v in positive) / len(positive))


AGGREGATORS: Dict[str, Callable[[Sequence[float]], float]] = {
    "count": len,
    "sum": sum,
    "min": min,
    "max": max,
    "mean": lambda values: sum(values) / len(values) if values else 0.0,
    "geomean": _geomean,
}


class Query:
    """Lazy, chainable read API over one result store.

    Construct from an open :class:`ResultStore` (or a root path via
    :meth:`Query.open`); filters accumulate and nothing touches disk
    until a terminal method (:meth:`records`, :meth:`project`,
    :meth:`group_by`, :meth:`aggregate`, :meth:`count`,
    :meth:`stats`) runs.
    """

    def __init__(self, store: ResultStore,
                 _predicates: Tuple[Callable[[StoredRecord], bool], ...]
                 = ()) -> None:
        self._store = store
        self._predicates = _predicates

    @classmethod
    def open(cls, root: str, create: bool = False) -> "Query":
        """Open the store at ``root`` read-only-safely and query it.

        Propagates :class:`~repro.store.result_store.StoreError` for a
        directory that is not a store, exactly like ``ResultStore``
        with ``create=False``.
        """
        return cls(ResultStore(root, create=create))

    @property
    def store(self) -> ResultStore:
        return self._store

    # -- filters ------------------------------------------------------------

    def filter(self, predicate: Callable[[StoredRecord], bool]) -> "Query":
        """A new query with ``predicate`` added to the filter chain."""
        return Query(self._store, self._predicates + (predicate,))

    def where(self, workload: Optional[str] = None,
              policy: Optional[str] = None,
              arch_fingerprint: Optional[str] = None,
              kernel_fingerprint: Optional[str] = None,
              seed: Optional[int] = None,
              schema_ok: Optional[bool] = None,
              min_latency: Optional[float] = None,
              max_latency: Optional[float] = None,
              key_in: Optional[Sequence[str]] = None) -> "Query":
        """Equality filters on the key dimensions, plus a latency band.

        Latency bounds compare the manifest-resolved MRF latency
        multiple; records whose architecture the manifest does not know
        never match a latency bound (unknown is not "within range").
        ``key_in`` restricts to an explicit key set -- how the service
        scopes ``GET /report/<job>`` to exactly one job's grid.
        """
        checks: List[Callable[[StoredRecord], bool]] = []
        if key_in is not None:
            wanted = frozenset(key_in)
            checks.append(lambda r: r.key in wanted)
        if workload is not None:
            checks.append(lambda r: r.workload == workload)
        if policy is not None:
            checks.append(lambda r: r.policy == policy)
        if arch_fingerprint is not None:
            checks.append(lambda r: r.arch_fingerprint == arch_fingerprint)
        if kernel_fingerprint is not None:
            checks.append(
                lambda r: r.kernel_fingerprint == kernel_fingerprint
            )
        if seed is not None:
            checks.append(lambda r: r.seed == seed)
        if schema_ok is not None:
            checks.append(lambda r: r.schema_ok == schema_ok)
        if min_latency is not None:
            checks.append(
                lambda r: r.latency is not None and r.latency >= min_latency
            )
        if max_latency is not None:
            checks.append(
                lambda r: r.latency is not None and r.latency <= max_latency
            )
        query = self
        for check in checks:
            query = query.filter(check)
        return query

    # -- terminal reads -----------------------------------------------------

    def records(self) -> List[StoredRecord]:
        """Every live record passing the filter chain, sorted by key
        (deterministic regardless of segment/shard layout)."""
        schema_fields = _current_schema_fields()
        latency_cache: Dict[str, Optional[float]] = {}
        rows = []
        for key in self._store.keys():
            payload = self._store.get(key)
            if payload is None:       # compacted away mid-iteration
                continue
            parsed = parse_key(key)
            if parsed is not None:
                workload, policy = parsed.workload, parsed.policy
                arch_fp = parsed.arch_fingerprint
                config_fp = parsed.config_fingerprint
                seed, kernel_fp = parsed.seed, parsed.kernel_fingerprint
            else:
                workload = str(payload.get("workload", ""))
                policy = str(payload.get("policy", ""))
                arch_fp = config_fp = kernel_fp = ""
                seed = 0
            if arch_fp not in latency_cache:
                latency_cache[arch_fp] = _decode_latency(
                    self._store.arch_payload(arch_fp)
                ) if arch_fp else None
            record = StoredRecord(
                key=key, workload=workload, policy=policy,
                arch_fingerprint=arch_fp, config_fingerprint=config_fp,
                seed=seed, kernel_fingerprint=kernel_fp,
                payload=payload,
                schema_ok=frozenset(payload) == schema_fields,
                latency=latency_cache[arch_fp],
                key_ok=parsed is not None,
            )
            if all(predicate(record) for predicate in self._predicates):
                rows.append(record)
        rows.sort(key=lambda r: r.key)
        return rows

    def count(self) -> int:
        return len(self.records())

    def project(self, *names: str) -> List[Tuple[Any, ...]]:
        """The named fields of every matching record, as tuples."""
        return [
            tuple(record.value(name) for name in names)
            for record in self.records()
        ]

    def group_by(self, *names: str) -> Dict[Tuple[Any, ...],
                                            List[StoredRecord]]:
        """Matching records bucketed by the named fields."""
        groups: Dict[Tuple[Any, ...], List[StoredRecord]] = {}
        for record in self.records():
            groups.setdefault(
                tuple(record.value(name) for name in names), []
            ).append(record)
        return groups

    def aggregate(self, by: Sequence[str],
                  **aggregations: Tuple[str, str]) -> List[Dict[str, Any]]:
        """Group-by plus named aggregations, one output row per group.

        Each keyword is ``name=(aggregator, field)`` with aggregator
        one of :data:`AGGREGATORS` (``count``/``sum``/``min``/``max``/
        ``mean``/``geomean``) over the numeric values of ``field``
        (e.g. ``ipc``, ``cycles``, ``latency``).  Non-numeric and
        missing values are excluded; ``count`` counts records with a
        usable value of its field (count over ``key`` counts all).
        Rows come back sorted by the group tuple.
        """
        for name, (aggregator, _) in aggregations.items():
            if aggregator not in AGGREGATORS:
                raise ValueError(
                    f"unknown aggregator {aggregator!r} for {name!r}; "
                    f"choose from {sorted(AGGREGATORS)}"
                )
        rows = []
        for group, records in sorted(self.group_by(*by).items(),
                                     key=lambda item: _sort_token(item[0])):
            row: Dict[str, Any] = dict(zip(by, group))
            for name, (aggregator, field_name) in aggregations.items():
                if aggregator == "count" and field_name in ("", "key"):
                    row[name] = len(records)
                    continue
                values = [
                    value for value in
                    (record.value(field_name) for record in records)
                    if isinstance(value, (int, float))
                    and not isinstance(value, bool)
                ]
                row[name] = AGGREGATORS[aggregator](values) if (
                    values or aggregator == "count"
                ) else None
            rows.append(row)
        return rows

    # -- store-level reads --------------------------------------------------

    def stats(self) -> StoreStats:
        """On-disk shape of the whole store (full scan; includes the
        corrupt-line and torn-tail damage counters reports surface)."""
        return self._store.stats()

    def run_history(self) -> List[dict]:
        """Recorded run-telemetry entries, oldest first."""
        entries = list(self._store.iter_run_logs())
        entries.sort(key=lambda entry: entry.get("time", 0))
        return entries

    def arch_descriptions(self) -> Dict[str, Optional[dict]]:
        """fingerprint -> recorded arch payload for every manifest entry."""
        return {
            fingerprint: self._store.arch_payload(fingerprint)
            for fingerprint in self._store.arch_fingerprints()
        }


def _sort_token(group: Tuple[Any, ...]) -> Tuple:
    # None-safe deterministic ordering for mixed group tuples.
    return tuple(
        (value is None, str(type(value).__name__), value if value is not None
         else "")
        for value in group
    )
