"""One query API over the result store.

Every consumer used to read the store through its own ad-hoc path:
the figures replayed ``simulate_many`` for warm records, the ``store``
CLI called :meth:`ResultStore.stats` directly, scripts iterated
``store.keys()`` by hand and re-parsed payloads.  This module is the
single sanctioned read surface instead: a :class:`Query` that turns
stored ``key -> payload`` entries into typed :class:`StoredRecord` rows
(workload, policy, arch/kernel fingerprints, seed, the full payload,
and -- where the arch manifest knows the fingerprint -- the concrete
MRF latency multiple), with key filters and projections.

Reports (``repro report``), run diffing (``repro diff-runs``), the
``store`` CLI, ``run_all_experiments``'s ``[store]`` line, and
:meth:`Runner.results` are all built on it; direct database access
stays confined to :mod:`repro.store`.

Keys are parsed structurally, never trusted blindly: the store parses
the format ``<workload>__<policy>__a<arch-fp>__<seed>__k<kernel-fp>``
into its key columns when a record is put, and a key that does not
match it -- such as one written before the ``a<fp>`` segment existed
-- still yields a row (``key_ok`` false, fingerprints empty, identity
recovered from the payload where possible) so maintenance tooling sees
*every* record.

Every filter (workload, policy, fingerprints, seed, an explicit key
set, and the latency band, which follows from the arch fingerprint) is
decided by the key columns, before a payload is read.  The equality
filters run in SQL (:meth:`ResultStore.select`), so a filtered query
reads only the records it returns; a query and every query derived
from it share one resolved latency per arch fingerprint.
"""

from __future__ import annotations

import copy
from operator import attrgetter
from typing import (
    Any,
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


class StoredRecord(NamedTuple):
    """One typed row of the store: a decoded ``key -> payload`` entry
    (a read-only named tuple, like :class:`ParsedKey`)."""

    key: str
    workload: str
    policy: str
    arch_fingerprint: str
    seed: int
    kernel_fingerprint: str
    #: The raw stored payload, a ``RunRecord``-shaped dict.  A change
    #: to the record's fields bumps the store's format version, so no
    #: store this build reads holds another schema.
    payload: Mapping[str, Any]
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
     "kernel_fingerprint", "latency", "key_ok")
)


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
    """arch fingerprint -> manifest-resolved MRF latency multiple for
    one :meth:`Query.records` call, resolved on first use.

    An arch description is content-addressed and never rewritten, so a
    resolved latency goes into ``resolved``, which the query lineage
    shares; an unresolved one stays in this call's dict only, because
    the manifest may gain the fingerprint (``record_arch``) before the
    next query.
    """

    def __init__(self, store: ResultStore,
                 resolved: Dict[str, float]) -> None:
        super().__init__()
        self._store = store
        self._resolved = resolved

    def __missing__(self, fingerprint: str) -> Optional[float]:
        latency = self._resolved.get(fingerprint)
        if latency is None and fingerprint:
            latency = _decode_latency(self._store.arch_payload(fingerprint))
            if latency is not None:
                self._resolved[fingerprint] = latency
        self[fingerprint] = latency
        return latency


class Query:
    """Lazy, chainable read API over one result store.

    Construct from an open :class:`ResultStore` (or a root path via
    :meth:`Query.open`); filters accumulate and nothing touches disk
    until a terminal method (:meth:`records`, :meth:`project`,
    :meth:`count`, :meth:`stats`) runs.

    A query and every query :meth:`where` derives from it share one
    memo of resolved latencies, so a long-lived base query (the service
    keeps one) reads each recorded arch description once however many
    filtered queries it serves.  Each terminal read queries the store
    again, so records written since (by this instance or another
    writer) show.
    """

    def __init__(self, store: ResultStore) -> None:
        self._store = store
        #: arch fingerprint -> resolved MRF latency multiple; shared by
        #: the whole lineage.
        self._latencies: Dict[str, float] = {}
        # where() constraints, all decided by the key: an explicit key
        # set, (field, expected) equality checks on the key fields, and
        # (min, max) latency bands.
        self._key_in: Optional[FrozenSet[str]] = None
        self._equal: Tuple[Tuple[str, Any], ...] = ()
        self._latency_bands: Tuple[Tuple[Optional[float],
                                         Optional[float]], ...] = ()

    @classmethod
    def open(cls, root: str) -> "Query":
        """Open the store at ``root`` read-only-safely and query it.

        Propagates :class:`~repro.store.result_store.StoreError` for a
        directory that is not a store, exactly like ``ResultStore``
        with ``create=False``.
        """
        return cls(ResultStore(root, create=False))

    @property
    def store(self) -> ResultStore:
        return self._store

    # -- filters ------------------------------------------------------------

    def _derive(self, **changes: Any) -> "Query":
        """A copy with some filter fields replaced; the latency memo is
        shared, not copied."""
        query = copy.copy(self)
        vars(query).update(changes)
        return query

    def where(self, workload: Optional[str] = None,
              policy: Optional[str] = None,
              arch_fingerprint: Optional[str] = None,
              kernel_fingerprint: Optional[str] = None,
              seed: Optional[int] = None,
              min_latency: Optional[float] = None,
              max_latency: Optional[float] = None,
              key_in: Optional[Sequence[str]] = None) -> "Query":
        """Equality filters on the key dimensions, plus a latency band.

        Latency bounds compare the manifest-resolved MRF latency
        multiple; records whose architecture the manifest does not know
        never match a latency bound (unknown is not "within range").
        ``key_in`` restricts to an explicit key set -- how the service
        scopes ``GET /report/<job>`` to exactly one job's grid.

        Every filter is decided by the key, so :meth:`records` drops a
        parseable key that fails one without reading its payload; a key
        that does not parse is checked on its row, with identity from
        the payload.
        """
        changes: Dict[str, Any] = {}
        if key_in is not None:
            wanted = frozenset(key_in)
            changes["_key_in"] = wanted if self._key_in is None \
                else self._key_in & wanted
        equal = tuple(
            (name, value) for name, value in (
                ("workload", workload), ("policy", policy),
                ("arch_fingerprint", arch_fingerprint),
                ("kernel_fingerprint", kernel_fingerprint), ("seed", seed),
            ) if value is not None
        )
        if equal:
            changes["_equal"] = self._equal + equal
        if min_latency is not None or max_latency is not None:
            changes["_latency_bands"] = self._latency_bands + (
                (min_latency, max_latency),)
        return self._derive(**changes)

    def _key_passes(self, fields: Any, latencies: "_Latencies") -> bool:
        """Whether the key-decided constraints hold for ``fields`` (a
        ParsedKey, or the row of a key that does not parse).  An unknown
        latency is never within a band."""
        for name, expected in self._equal:
            if getattr(fields, name) != expected:
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

    def records(self, undecodable: Optional[List[str]] = None
                ) -> List[StoredRecord]:
        """Every record passing the filters, sorted by key.

        The equality filters select candidates in SQL, together with
        every key that does not parse; each candidate is checked on its
        key fields (or, for a key that does not parse, on its row)
        before it counts.  Only the records that pass a parsed key's
        checks are read.

        A record whose payload does not decode is left out; with
        ``undecodable`` given, its key is appended there, for each such
        record the filters do not rule out (for a key that does not
        parse, only ``key_in`` can).
        """
        key_in = self._key_in
        latencies = _Latencies(self._store, self._latencies)
        rows = []
        # Rows are read through get(), so the benchmark's traced run
        # counts every row read as a store.get span; a key this store
        # instance has read before costs one memo lookup.
        get = self._store.get
        for key, parsed in self._store.select(self._equal):
            if key_in is not None and key not in key_in:
                continue
            if parsed is not None and not self._key_passes(parsed,
                                                           latencies):
                continue
            payload = get(key)
            if payload is None:   # its payload does not decode
                if undecodable is not None:
                    undecodable.append(key)
                continue
            if parsed is not None:
                workload, policy, arch_fp, seed, kernel_fp = parsed
                record = StoredRecord(
                    key, workload, policy, arch_fp, seed, kernel_fp,
                    payload, latencies[arch_fp],
                )
            else:
                record = StoredRecord(
                    key, str(payload.get("workload", "")),
                    str(payload.get("policy", "")), "", 0, "",
                    payload, None, False,
                )
                if not self._key_passes(record, latencies):
                    continue
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

    # -- store-level reads --------------------------------------------------

    def stats(self) -> StoreStats:
        """Shape of the whole store, from SQL counts (see
        :meth:`ResultStore.stats`), so it costs no pass over the
        records."""
        return self._store.stats()

    def run_history(self) -> List[dict]:
        """Recorded run-telemetry entries, oldest first."""
        entries = list(self._store.iter_run_logs())
        entries.sort(key=lambda entry: entry.get("time", 0))
        return entries
