"""One query API over the result store.

Every consumer used to read the store through its own ad-hoc path:
the figures replayed ``simulate_many`` for warm records, the ``store``
CLI called :meth:`ResultStore.stats` directly, scripts iterated
``store.keys()`` by hand and re-parsed payloads.  This module is the
single sanctioned read surface instead: a :class:`Query` that decodes
raw ``key -> payload`` entries into typed :class:`StoredRecord` rows
(workload, policy, arch/kernel fingerprints, seed, the full payload,
and -- where the arch manifest knows the fingerprint -- the concrete
MRF latency multiple), with key filters and projections.

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

Every filter (workload, policy, fingerprints, seed, an explicit key
set, and the latency band, which follows from the arch fingerprint) is
decided by the key, before its payload is read; a query and every
query derived from it share one parse per key and one resolved latency
per arch fingerprint.  A filtered query lists the store's keys without
decoding them (:meth:`ResultStore.filed_keys`) and narrows them
through a per-workload key index kept with the parse memo, so it
decodes only the records it reads.
"""

from __future__ import annotations

import copy
import re
from operator import attrgetter
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
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


def _parse_key(key: str, share: Callable[[Any, Any], Any]
               ) -> Optional[ParsedKey]:
    """Decode a cache key, or ``None`` if it does not match the format.

    Parsed right to left (kernel fingerprint, seed, arch segment,
    policy) because only the workload may itself contain ``__`` -- a
    file-backed workload is addressed by its path.  The seed and every
    non-empty string field pass through ``share`` (a
    ``dict.setdefault``), so the thousands of keys naming one workload,
    policy, fingerprint or seed can hold one copy of it.
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
    #: attributes to schema drift) but reports leave them out.
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
    """arch fingerprint -> manifest-resolved MRF latency multiple for
    one :meth:`Query.records` call, resolved on first use.

    A sidecar is content-addressed and never rewritten, so a resolved
    latency goes into ``resolved``, which the query lineage shares; an
    unresolved one stays in this call's dict only, because the manifest
    may gain the fingerprint (``record_arch``) before the next query.
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


#: Marks a key the parse memo has not seen yet (``None`` in the memo
#: means "seen, and not a cache key").
_UNSEEN = object()


class _KeyMemo:
    """The parsed keys one query lineage shares, indexed by workload,
    and the latencies it has resolved.

    Derived queries may run on several threads at once (the service
    derives every query from one base), so the index only grows, its
    buckets are sets, and :meth:`parse` files a key in its bucket
    *before* it enters ``parsed``: a query that finds a key parsed
    finds it indexed too.  Concurrent queries at worst parse a key (or
    resolve a latency) twice, to equal results.
    """

    __slots__ = ("parsed", "by_workload", "unparsed", "shared", "latencies")

    def __init__(self) -> None:
        #: key -> ParsedKey, or None for a key that does not parse.
        self.parsed: Dict[str, Optional[ParsedKey]] = {}
        #: workload -> the parsed keys naming it.
        self.by_workload: Dict[str, Set[str]] = {}
        #: The keys that do not parse (a candidate for any workload).
        self.unparsed: Set[str] = set()
        #: One copy of each key field value the memo holds.
        self.shared: Dict[Any, Any] = {}
        #: arch fingerprint -> resolved MRF latency multiple.
        self.latencies: Dict[str, float] = {}

    def parse(self, key: str) -> Optional[ParsedKey]:
        """Parse and index a key the memo has not seen."""
        parsed = _parse_key(key, self.shared.setdefault)
        if parsed is None:
            self.unparsed.add(key)
        else:
            self.by_workload.setdefault(parsed.workload, set()).add(key)
        self.parsed[key] = parsed
        return parsed


class Query:
    """Lazy, chainable read API over one result store.

    Construct from an open :class:`ResultStore` (or a root path via
    :meth:`Query.open`); filters accumulate and nothing touches disk
    until a terminal method (:meth:`records`, :meth:`project`,
    :meth:`count`, :meth:`stats`) runs.

    A query and every query :meth:`where` derives from it share one
    memo of parsed keys, indexed by workload, and of resolved
    latencies, so a long-lived base query (the service keeps one)
    parses each key and reads each arch sidecar once however many
    filtered queries it serves.  The memo never stands in
    for the store's key set: each terminal read lists the store's keys
    again, so records written since (by this instance or another
    writer) show.
    """

    def __init__(self, store: ResultStore) -> None:
        self._store = store
        #: Shared by the whole lineage.
        self._memo = _KeyMemo()
        # where() constraints, all decided by the key: an explicit key
        # set, the latest workload named (its index bucket holds every
        # candidate that parses), (getter, expected) equality checks on
        # the parsed key fields, and (min, max) latency bands.
        self._key_in: Optional[FrozenSet[str]] = None
        self._workload: Optional[str] = None
        self._key_checks: Tuple[Tuple[Callable[[Any], Any], Any], ...] = ()
        self._latency_bands: Tuple[Tuple[Optional[float],
                                         Optional[float]], ...] = ()

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
        """A copy with some filter fields replaced; the key memo is
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
        equal = {
            name: value for name, value in (
                ("workload", workload), ("policy", policy),
                ("arch_fingerprint", arch_fingerprint),
                ("kernel_fingerprint", kernel_fingerprint), ("seed", seed),
            ) if value is not None
        }
        if workload is not None:
            changes["_workload"] = workload
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

    def _candidates(self) -> Iterable[str]:
        """The keys a query with a key-decided filter may return.

        Every key the store has filed (listed without decoding), less
        those outside ``key_in``; with a workload filter, only its
        bucket of the index and the keys that do not parse.  Parses and
        indexes each key the memo has not seen.
        """
        memo = self._memo
        keys = self._store.filed_keys()
        if self._key_in is not None:
            keys &= self._key_in          # before any parse
        for key in keys.difference(memo.parsed):
            memo.parse(key)
        if self._workload is None:
            return keys
        return (keys.intersection(memo.by_workload.get(self._workload, ()))
                | keys.intersection(memo.unparsed))

    def records(self) -> List[StoredRecord]:
        """Every live record passing the filters, sorted by key
        (deterministic regardless of segment/shard layout).

        With no key-decided filter every row is read, so the store's
        live keys are listed, decoding as it scans; with one, only the
        :meth:`_candidates` that pass it are read, so only their
        records are decoded.
        """
        schema_fields = _current_schema_fields()
        key_filtered = bool(self._key_checks or self._latency_bands)
        memo = self._memo
        parsed_keys = memo.parsed
        latencies = _Latencies(self._store, memo.latencies)
        rows = []
        # Rows are read through get(), so the benchmark's traced run
        # counts every row read as a store.get span; a hit is one
        # index lookup and reads nothing from disk.
        get = self._store.get
        if key_filtered or self._key_in is not None:
            keys = self._candidates()
        else:
            keys = self._store.keys()
        for key in keys:
            parsed = parsed_keys.get(key, _UNSEEN)
            if parsed is _UNSEEN:
                parsed = memo.parse(key)
            if parsed is not None:
                if key_filtered and not self._key_passes(parsed, latencies):
                    continue
                payload = get(key)
                if payload is None:   # compacted away, or all corrupt
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
