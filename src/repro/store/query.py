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

Keys are parsed structurally, never trusted blindly: the format
``<workload>__<policy>__a<arch-fp>__<seed>__k<kernel-fp>`` decodes, and
a key that does not match it -- such as one written before the
``a<fp>`` segment existed -- still yields a row (``key_ok`` false,
fingerprints empty, identity recovered from the payload where
possible) so maintenance tooling sees *every* record.

Filters the key decides (workload, policy, fingerprints, seed, an
explicit key set, and the latency band, which follows from the arch
fingerprint) run on the parsed key, before its payload is read; a
query and every query derived from it share one parse per key.
"""

from __future__ import annotations

import copy
import math
import re
from operator import attrgetter
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.store.result_store import ResultStore, StoreStats


#: Whether a whole string is lowercase hex digits only (no uppercase,
#: no ``0x`` prefix); returns a match or ``None``.
_is_hex = re.compile(r"[0-9a-f]+").fullmatch


class ParsedKey(NamedTuple):
    """The structured form of one result-store cache key.

    A read-only named tuple rather than a frozen dataclass: the query
    layer builds one per stored record, and a tuple is constructed in
    about half the time.
    """

    workload: str
    policy: str
    #: Content fingerprint of the architecture (``a<fp>`` segment).
    arch_fingerprint: str
    seed: int
    kernel_fingerprint: str


def parse_key(key: str) -> Optional[ParsedKey]:
    """Decode a cache key, or ``None`` if it does not match the format.

    Parsed right to left (kernel fingerprint, seed, arch segment,
    policy) because only the workload may itself contain ``__`` -- a
    file-backed workload is addressed by its path.
    """
    return _parse_key(key, {}.setdefault)


def _parse_key(key: str, share: Callable[[Any, Any], Any]
               ) -> Optional[ParsedKey]:
    """:func:`parse_key` with the seed and every non-empty string field
    passed through ``share`` (a ``dict.setdefault``), so the thousands
    of keys naming one workload, policy, fingerprint or seed can hold
    one copy of it."""
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
    workload = share(workload, workload)
    policy = share(policy, policy)
    seed = share(seed, seed)
    kernel_fp = share(kernel_fp, kernel_fp)
    if not arch_token.startswith("a") or not _is_hex(arch_token[1:]):
        return None
    arch_fp = arch_token[1:]
    return ParsedKey(workload, policy, share(arch_fp, arch_fp), seed,
                     kernel_fp)


class StoredRecord(NamedTuple):
    """One typed row of the store: a decoded ``key -> payload`` entry
    (a read-only named tuple, like :class:`ParsedKey`)."""

    key: str
    workload: str
    policy: str
    arch_fingerprint: str
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
    #: Whether the key parsed as a cache key.
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
    ("key", "workload", "policy", "arch_fingerprint", "seed",
     "kernel_fingerprint", "latency", "schema_ok", "key_ok")
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


class _Latencies(dict):
    """arch fingerprint -> manifest-resolved MRF latency multiple,
    resolved on first use.  One per :meth:`Query.records` call: the
    manifest may gain a fingerprint between two queries."""

    def __init__(self, store: ResultStore) -> None:
        super().__init__()
        self._store = store

    def __missing__(self, fingerprint: str) -> Optional[float]:
        latency = self[fingerprint] = _decode_latency(
            self._store.arch_payload(fingerprint)
        ) if fingerprint else None
        return latency


#: Marks a key the parse memo has not seen yet (``None`` in the memo
#: means "seen, and not a cache key").
_UNSEEN = object()


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

    A query and every query :meth:`where`/:meth:`filter` derive from
    it share one memo of parsed keys, so a long-lived base query (the
    service keeps one) parses each key once however many filtered
    queries it serves.  The memo is per key, never a key set: each
    terminal read still lists the store's live keys.
    """

    def __init__(self, store: ResultStore) -> None:
        self._store = store
        #: key -> ParsedKey, or None for a key that does not parse;
        #: shared by the whole lineage (dict reads and writes are
        #: atomic, so concurrent queries at worst parse a key twice).
        self._parsed: Dict[str, Optional[ParsedKey]] = {}
        #: One copy of each key field value the memo holds.
        self._shared: Dict[Any, Any] = {}
        # Key-decided where() constraints: an explicit key set,
        # (getter, expected) equality checks on the parsed key fields,
        # and (min, max) latency bands.
        self._key_in: Optional[FrozenSet[str]] = None
        self._key_checks: Tuple[Tuple[Callable[[Any], Any], Any], ...] = ()
        self._latency_bands: Tuple[Tuple[Optional[float],
                                         Optional[float]], ...] = ()
        #: Row predicates: filter() callables and where(schema_ok=...),
        #: which need the payload.
        self._predicates: Tuple[Callable[[StoredRecord], bool], ...] = ()

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

    def _derive(self, **changes: Any) -> "Query":
        """A copy with some filter fields replaced; the parse memo is
        shared, not copied."""
        query = copy.copy(self)
        vars(query).update(changes)
        return query

    def filter(self, predicate: Callable[[StoredRecord], bool]) -> "Query":
        """A new query with ``predicate`` added to the filter chain."""
        return self._derive(_predicates=self._predicates + (predicate,))

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

        Everything but ``schema_ok`` is decided by the key, so
        :meth:`records` drops a parseable key that fails it without
        reading its payload; a key that does not parse is checked on its
        row, with identity from the payload.
        """
        changes: Dict[str, Any] = {}
        if key_in is not None:
            wanted = frozenset(key_in)
            changes["_key_in"] = wanted if self._key_in is None \
                else self._key_in & wanted
        equal = {
            name: value for name, value in (
                ("workload", workload), ("policy", policy),
                ("arch_fingerprint", arch_fingerprint),
                ("kernel_fingerprint", kernel_fingerprint), ("seed", seed),
            ) if value is not None
        }
        if equal:
            # attrgetter of one name yields the bare value, of several
            # a tuple; a ParsedKey and a StoredRecord both answer it.
            expected = tuple(equal.values())
            changes["_key_checks"] = self._key_checks + ((
                attrgetter(*equal),
                expected if len(expected) > 1 else expected[0],
            ),)
        if min_latency is not None or max_latency is not None:
            changes["_latency_bands"] = self._latency_bands + (
                (min_latency, max_latency),)
        if schema_ok is not None:
            changes["_predicates"] = self._predicates + (
                lambda r: r.schema_ok == schema_ok,)
        return self._derive(**changes)

    def _key_passes(self, fields: Any, latencies: "_Latencies") -> bool:
        """Whether the key-decided constraints hold for ``fields`` (a
        ParsedKey, or the row of a key that does not parse).  An unknown
        latency is never within a band."""
        for getter, expected in self._key_checks:
            if getter(fields) != expected:
                return False
        if self._latency_bands:
            latency = latencies[fields.arch_fingerprint]
            for low, high in self._latency_bands:
                if latency is None or not (
                        (low is None or latency >= low)
                        and (high is None or latency <= high)):
                    return False
        return True

    # -- terminal reads -----------------------------------------------------

    def records(self) -> List[StoredRecord]:
        """Every live record passing the filter chain, sorted by key
        (deterministic regardless of segment/shard layout)."""
        schema_fields = _current_schema_fields()
        predicates = self._predicates
        key_in = self._key_in
        key_filtered = bool(self._key_checks or self._latency_bands)
        memo, share = self._parsed, self._shared.setdefault
        latencies = _Latencies(self._store)
        rows = []
        # Rows are read through get(), so the benchmark's traced run
        # counts every row read as a store.get span; a hit is one
        # index lookup and reads nothing from disk.
        get = self._store.get
        for key in self._store.keys():
            if key_in is not None and key not in key_in:
                continue
            parsed = memo.get(key, _UNSEEN)
            if parsed is _UNSEEN:
                parsed = memo[key] = _parse_key(key, share)
            if parsed is not None:
                if key_filtered and not self._key_passes(parsed, latencies):
                    continue
                payload = get(key)
                if payload is None:   # compacted away mid-iteration
                    continue
                workload, policy, arch_fp, seed, kernel_fp = parsed
                record = StoredRecord(
                    key, workload, policy, arch_fp, seed, kernel_fp,
                    payload, payload.keys() == schema_fields,
                    latencies[arch_fp],
                )
            else:
                payload = get(key)
                if payload is None:
                    continue
                record = StoredRecord(
                    key, str(payload.get("workload", "")),
                    str(payload.get("policy", "")), "", 0, "",
                    payload, payload.keys() == schema_fields, None, False,
                )
                if key_filtered and not self._key_passes(record, latencies):
                    continue
            if not predicates or all(predicate(record)
                                     for predicate in predicates):
                rows.append(record)
        rows.sort(key=attrgetter("key"))
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
        """On-disk shape of the whole store, including the corrupt-line
        and torn-tail damage counters reports surface.  Read off the
        store's live index (see :meth:`ResultStore.stats`), so it costs
        no second pass over the records."""
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
