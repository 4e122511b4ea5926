"""Sharded, append-only, crash-consistent result store.

The experiment runner used to keep one JSON file per cached result,
named by a *lossy* sanitisation of the cache key (``/`` -> ``_``,
``+`` -> ``plus``).  Two distinct keys could alias to the same
filename and silently serve each other's records -- the exact
silent-wrong-results hazard the fingerprinted keys were built to kill.
This store closes that hole by construction: records are addressed by
their **full key string** through an index, never through a
key-derived filename.

Layout::

    <root>/
        STORE_FORMAT                     # format marker (version, shard count)
        shard-00/ .. shard-<NN>/         # sha256(key) % shards
            seg-<seq>-<writer>.jsonl     # append-only segment files

Each segment line is one JSON object ``{"k": <full key>, "r":
<record payload>}``.  A writer process appends to its *own* segment
file (one per shard, created lazily), so appends never interleave;
concurrent runners sharing a directory simply produce sibling
segments.  Within a shard, segments are replayed in ``(seq, writer)``
order and later entries win, which makes compaction trivially
crash-safe: the compacted segment is published atomically under a
higher sequence number (via :func:`repro.util.atomic_write_text`)
*before* the stale segments are unlinked -- a crash between the two
steps only leaves superseded duplicates, never data loss.

Crash consistency on the read side: a torn final line (writer crashed
mid-append) is tolerated -- scans only consume byte ranges ending in a
newline, so a partial tail is invisible until its writer completes it,
and a crashed writer's partial tail is simply skipped forever (and
dropped by the next compaction).  A corrupt *interior* line is
counted, skipped, and reported by ``verify``.

The in-memory index maps key -> record payload and is (re)built by
scanning segments lazily per shard; on a lookup miss the shard is
re-scanned incrementally (only bytes appended since the last scan), so
a store instance observes records published by concurrent writers
without re-reading whole files.  The same scan counts parsed entries,
corrupt lines and torn tails per segment, so ``stats`` and ``items``
are served from the index; only ``verify`` (and ``compact``) replay
every segment from scratch.

One instance may be shared by many threads (the service keeps one for
all its jobs and queries): a single lock covers shard-state creation,
re-scans, appends and the sidecar writes, while a ``get`` that hits
the index takes no lock.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.util import atomic_write_text

#: Store format marker file, written once at store creation.
FORMAT_FILE = "STORE_FORMAT"
FORMAT_NAME = "ltrf-store"
FORMAT_VERSION = 1
DEFAULT_SHARDS = 16
#: Rotate a writer's active segment once it exceeds this many bytes.
DEFAULT_SEGMENT_BYTES = 1 << 20

_SHARD_PREFIX = "shard-"
_SEGMENT_PREFIX = "seg-"
_SEGMENT_SUFFIX = ".jsonl"
#: Sidecar directory of architecture descriptions, one
#: ``<fingerprint>.json`` per distinct configuration ever simulated
#: into this store.  Each file is a complete ``ltrf-arch`` payload, so
#: the query layer can map the ``a<fp>`` key segment back to concrete
#: hardware parameters (e.g. the MRF latency multiple a sweep varied).
_ARCH_DIR = "archs"
#: Sidecar directory of run-telemetry logs: one JSONL file per writer,
#: one line per completed run (sweep/experiment/CLI invocation).
#: Telemetry is host-specific by design and therefore kept out of the
#: record segments -- records must stay byte-identical across engines
#: and machines, while these logs feed `repro report`'s telemetry
#: section.
_RUNS_DIR = "runs"


class StoreError(Exception):
    """Unusable store directory (bad marker, unreadable layout)."""


@dataclass
class StoreStats:
    """Aggregate shape of a store, as reported by ``store stats``."""

    root: str
    shards: int
    segments: int
    entries: int          # total JSONL lines that parsed
    live_keys: int        # distinct keys (what a reader can serve)
    superseded: int       # entries shadowed by a later write of their key
    corrupt_lines: int    # interior lines that failed to parse
    torn_tails: int       # segments ending in a partial line
    bytes: int

    def summary_line(self) -> str:
        """One-line shape summary.

        The *single* formatting of "how big is this store": both
        ``store stats`` (via :meth:`render`) and
        ``run_all_experiments``'s ``[store]`` line print this exact
        string, so the two can never drift apart.
        """
        text = (
            f"{self.live_keys} record(s) in {self.segments} segment(s) "
            f"across {self.shards} shard(s) at {self.root}"
        )
        if self.superseded:
            text += (f"; {self.superseded} superseded entr(ies) -- "
                     "`python -m repro.cli store compact` reclaims them")
        return text

    def render(self) -> str:
        return (
            f"store {self.root}\n"
            f"  format      {FORMAT_NAME} v{FORMAT_VERSION}, "
            f"{self.shards} shard(s)\n"
            f"  segments    {self.segments} ({self.bytes} bytes)\n"
            f"  records     {self.live_keys} live key(s), "
            f"{self.superseded} superseded, {self.entries} total entr(ies)\n"
            f"  damage      {self.corrupt_lines} corrupt line(s), "
            f"{self.torn_tails} torn tail(s)\n"
            f"  summary     {self.summary_line()}"
        )


@dataclass
class VerifyReport:
    """Outcome of a full-store consistency scan."""

    stats: StoreStats
    #: key -> number of *distinct* payloads observed (>1 is a conflict:
    #: the simulator is deterministic, so one key must map to one
    #: payload; a conflict means aliasing or corruption).
    conflicts: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.conflicts and self.stats.corrupt_lines == 0

    def render(self) -> str:
        lines = [self.stats.render()]
        if self.conflicts:
            lines.append(f"  CONFLICTS   {len(self.conflicts)} key(s) with "
                         "multiple distinct payloads:")
            for key in sorted(self.conflicts):
                lines.append(f"    {key!r}: {self.conflicts[key]} payloads")
        lines.append(f"  verdict     {'OK' if self.ok else 'FAILED'}")
        return "\n".join(lines)


@dataclass
class CompactionReport:
    """Outcome of a compaction/GC pass."""

    shards_compacted: int
    segments_before: int
    segments_after: int
    entries_dropped: int      # superseded + corrupt + torn lines removed
    bytes_before: int
    bytes_after: int

    def render(self) -> str:
        return (
            f"compacted {self.shards_compacted} shard(s): "
            f"{self.segments_before} -> {self.segments_after} segment(s), "
            f"{self.bytes_before} -> {self.bytes_after} bytes, "
            f"dropped {self.entries_dropped} dead entr(ies)"
        )


def _encode_entry(key: str, payload: dict) -> str:
    # sort_keys so identical records encode identically regardless of
    # construction order -- verify's distinct-payload check relies on it.
    return json.dumps({"k": key, "r": payload}, sort_keys=True) + "\n"


def _decode_entry(line: bytes) -> Optional[Tuple[str, dict]]:
    """Parse one non-blank segment line; ``None`` if it is corrupt.

    The single place entry framing is validated, shared by the
    incremental index and the full verify/compact replay so the two
    can never disagree about what counts as corrupt.
    """
    try:
        entry = json.loads(line)
        key, payload = entry["k"], entry["r"]
        if not isinstance(key, str) or not isinstance(payload, dict):
            raise ValueError("malformed entry")
    except (ValueError, TypeError, KeyError):
        return None
    return key, payload


def _segment_sort_key(name: str) -> Tuple[int, str]:
    # seg-<seq>-<writer>.jsonl -> (seq, writer); malformed names sort
    # first so a stray file can never shadow real segments.
    stem = name[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)]
    seq_text, _, writer = stem.partition("-")
    try:
        return int(seq_text), writer
    except ValueError:
        return -1, name


def _is_segment_name(name: str) -> bool:
    return name.startswith(_SEGMENT_PREFIX) and name.endswith(_SEGMENT_SUFFIX)


class _Segment:
    """Incremental-scan bookkeeping for one segment file."""

    __slots__ = ("rank", "scanned", "size", "entries", "corrupt")

    def __init__(self, rank: Tuple[int, str]) -> None:
        self.rank = rank
        self.scanned = 0      # bytes consumed (always ends on a newline)
        self.size = 0         # file size at the last refresh
        self.entries = 0      # lines among the consumed bytes that parsed
        self.corrupt = 0      # lines among the consumed bytes that did not


class _ShardState:
    """Per-shard index plus incremental-scan bookkeeping."""

    __slots__ = ("index", "source", "segments", "writer_path",
                 "writer_handle", "writer_rank", "writer_segment")

    def __init__(self) -> None:
        self.index: Dict[str, dict] = {}
        #: key -> (seq, writer) rank of the segment its indexed payload
        #: came from.  Incremental refreshes apply segment deltas in
        #: directory order, not strictly in rank order (two writers'
        #: active segments can both grow), so each entry is applied
        #: only if its segment outranks the current source -- keeping
        #: the live index's winner identical to a fresh full replay's.
        self.source: Dict[str, Tuple[int, str]] = {}
        #: segment path -> scan bookkeeping, for exactly the segments
        #: the last refresh listed.
        self.segments: Dict[str, _Segment] = {}
        self.writer_path: Optional[str] = None
        self.writer_handle = None
        self.writer_rank: Tuple[int, str] = (0, "")
        self.writer_segment: Optional[_Segment] = None


class ResultStore:
    """Sharded append-only key -> JSON-payload store.

    Keys are arbitrary strings (they are JSON-encoded inside each
    entry, so separators and newlines in keys cannot corrupt the
    framing) and naming is injective by construction: the only path
    from a key to a record is the full-string index.
    """

    def __init__(self, root: str, shards: int = DEFAULT_SHARDS,
                 segment_bytes: int = DEFAULT_SEGMENT_BYTES,
                 create: bool = True) -> None:
        """Open (and with ``create``, initialise) the store at ``root``.

        ``create=False`` opens read-only-safely: a directory without a
        ``STORE_FORMAT`` marker raises :class:`StoreError` instead of
        being silently turned into a store -- inspection commands
        (``store stats``/``verify``/``compact``) use this so they never
        mutate a directory that is not a store.
        """
        self.root = root
        self.segment_bytes = segment_bytes
        if create:
            os.makedirs(root, exist_ok=True)
        self.shards = self._init_format(shards, create)
        self._states: Dict[int, _ShardState] = {}
        # Unique per instance so two writers never share a segment
        # file: pid guards cross-process, the counter guards multiple
        # stores in one process (common in tests and tooling).
        self._writer_id = f"w{os.getpid()}-{next(_INSTANCE_COUNTER)}"
        self._archs_recorded = set()
        # Re-entrant: put() creates shard state, which scans under it.
        self._lock = threading.RLock()

    # -- format marker ------------------------------------------------------

    def _init_format(self, shards: int, create: bool = True) -> int:
        marker = os.path.join(self.root, FORMAT_FILE)
        try:
            with open(marker) as handle:
                payload = json.load(handle)
            if (payload.get("format") != FORMAT_NAME
                    or payload.get("version") != FORMAT_VERSION):
                raise StoreError(
                    f"{marker} declares "
                    f"{payload.get('format')!r} v{payload.get('version')!r}; "
                    f"this build reads {FORMAT_NAME} v{FORMAT_VERSION}"
                )
            return int(payload["shards"])
        except FileNotFoundError:
            if not create:
                raise StoreError(
                    f"{self.root} is not a result store "
                    f"(no {FORMAT_FILE} marker)"
                ) from None
        except (ValueError, TypeError, KeyError) as error:
            raise StoreError(f"unreadable store marker {marker}: {error}")
        atomic_write_text(marker, json.dumps({
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "shards": shards,
        }, sort_keys=True) + "\n")
        return shards

    # -- sharding -----------------------------------------------------------

    def shard_of(self, key: str) -> int:
        digest = hashlib.sha256(key.encode()).hexdigest()
        return int(digest[:8], 16) % self.shards

    def _shard_dir(self, shard: int) -> str:
        return os.path.join(self.root, f"{_SHARD_PREFIX}{shard:02x}")

    def _shard_segments(self, shard: int):
        try:
            names = os.listdir(self._shard_dir(shard))
        except FileNotFoundError:
            return []
        return sorted(
            (name for name in names if _is_segment_name(name)),
            key=_segment_sort_key,
        )

    def _state(self, shard: int) -> _ShardState:
        state = self._states.get(shard)
        if state is None:
            with self._lock:
                state = self._states.get(shard)
                if state is None:
                    state = _ShardState()
                    self._refresh(shard, state)
                    # Published only once scanned, so a lock-free get
                    # never sees a half-built index.
                    self._states[shard] = state
        return state

    def _current(self, shard: int) -> _ShardState:
        """The shard's state with every byte now on disk folded in.
        Callers hold ``self._lock``."""
        state = self._states.get(shard)
        if state is None:
            return self._state(shard)
        self._refresh(shard, state)
        return state

    # -- scanning -----------------------------------------------------------

    def _refresh(self, shard: int, state: _ShardState) -> None:
        """Fold bytes appended since the last scan into the index.

        Only complete lines (ending in ``\\n``) are consumed; a torn
        tail stays pending, so a concurrent writer's in-flight append
        becomes visible on a later refresh, once completed, and a
        crashed writer's partial tail is ignored forever.  Each
        consumed line is counted once, as an entry or as corrupt, in
        its segment's bookkeeping; segments no longer listed (compacted
        away) drop out of it.  Callers hold ``self._lock``.
        """
        directory = self._shard_dir(shard)
        listed: Dict[str, _Segment] = {}
        for name in self._shard_segments(shard):
            path = os.path.join(directory, name)
            try:
                size = os.path.getsize(path)
            except OSError:
                # Compacted away under us; its live entries are in a
                # later segment which this same loop replays.
                continue
            segment = listed[path] = (state.segments.get(path)
                                      or _Segment(_segment_sort_key(name)))
            consumed = segment.scanned
            if size > consumed:
                try:
                    with open(path, "rb") as handle:
                        handle.seek(consumed)
                        chunk = handle.read(size - consumed)
                except OSError:
                    continue
                complete = chunk.rfind(b"\n") + 1
                rank = segment.rank
                for line in chunk[:complete].splitlines():
                    if not line.strip():
                        continue
                    decoded = _decode_entry(line)
                    if decoded is None:
                        segment.corrupt += 1
                        continue
                    segment.entries += 1
                    key, payload = decoded
                    if rank >= state.source.get(key, (-1, "")):
                        state.index[key] = payload
                        state.source[key] = rank
                segment.scanned = consumed + complete
            segment.size = size
        state.segments = listed

    # -- public API ---------------------------------------------------------

    def get(self, key: str) -> Optional[dict]:
        """Return the payload stored under ``key``, or ``None``.

        A miss triggers an incremental re-scan of the key's shard so
        records published by concurrent writers are observed.  A hit
        takes no lock.
        """
        shard = self.shard_of(key)
        state = self._state(shard)
        payload = state.index.get(key)
        if payload is None:
            with self._lock:
                self._refresh(shard, state)
                payload = state.index.get(key)
        return payload

    def put(self, key: str, payload: dict) -> None:
        """Append ``key -> payload`` durably (flushed, atomic line)."""
        shard = self.shard_of(key)
        line = _encode_entry(key, payload)
        with self._lock:
            state = self._state(shard)
            handle = self._writer(shard, state)
            handle.write(line)
            handle.flush()
            # Our own appends go straight into the index; advance the
            # scan offset so refreshes never re-parse them.
            # (Read-your-writes: the local index always reflects this
            # put, even in the exotic case where a higher-ranked
            # foreign segment holds the key -- a later refresh of that
            # segment would win, exactly as a fresh replay would.)
            segment = state.writer_segment
            segment.scanned = handle.tell()
            segment.entries += 1
            state.index[key] = payload
            state.source[key] = state.writer_rank

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def items(self) -> Iterator[Tuple[str, dict]]:
        """Every live ``(key, payload)``, shard by shard.

        Each shard is refreshed (only bytes appended since this
        instance last read it) and copied under the lock, so puts from
        other threads while the caller iterates never break the
        iteration; a key put into an already-yielded shard simply is
        not seen by this pass.
        """
        for shard in range(self.shards):
            with self._lock:
                snapshot = list(self._current(shard).index.items())
            yield from snapshot

    def keys(self) -> Iterator[str]:
        """Every live key, with the snapshot contract of :meth:`items`."""
        return (key for key, _ in self.items())

    def close(self) -> None:
        """Close the writer handles.  The store stays usable: a later
        put starts a fresh segment."""
        with self._lock:
            for state in self._states.values():
                if state.writer_handle is not None:
                    state.writer_handle.close()
                    state.writer_handle = None
                    state.writer_path = None

    # -- writing ------------------------------------------------------------

    def _writer(self, shard: int, state: _ShardState):
        handle = state.writer_handle
        if handle is not None:
            try:
                if handle.tell() < self.segment_bytes:
                    return handle
            except ValueError:       # closed under us
                pass
            handle.close()           # rotate: start a fresh segment
            state.writer_handle = None
            state.writer_path = None
        directory = self._shard_dir(shard)
        os.makedirs(directory, exist_ok=True)
        segments = self._shard_segments(shard)
        top = _segment_sort_key(segments[-1])[0] if segments else 0
        seq = max(top, state.writer_rank[0]) + 1
        name = f"{_SEGMENT_PREFIX}{seq:06d}-{self._writer_id}{_SEGMENT_SUFFIX}"
        path = os.path.join(directory, name)
        # "x" so a (pathological) name collision fails loudly instead
        # of interleaving two writers in one file.
        handle = open(path, "x", encoding="utf-8")
        state.writer_path = path
        state.writer_handle = handle
        state.writer_rank = (seq, self._writer_id)
        state.writer_segment = state.segments[path] = _Segment(
            state.writer_rank)
        return handle

    # -- sidecars (arch manifest + run-telemetry logs) ----------------------

    def record_arch(self, fingerprint: str, payload: dict) -> None:
        """Persist the architecture description behind ``fingerprint``.

        Written once per fingerprint as ``archs/<fp>.json`` (a complete
        ``ltrf-arch`` payload, loadable with ``--arch-file``), so the
        query layer can resolve the ``a<fp>`` segment of a record key
        back to concrete hardware parameters.  Idempotent and cheap:
        memoised per instance, and an existing file is never rewritten
        (the fingerprint pins its content).
        """
        with self._lock:
            if fingerprint in self._archs_recorded:
                return
            self._archs_recorded.add(fingerprint)
            directory = os.path.join(self.root, _ARCH_DIR)
            path = os.path.join(directory, f"{fingerprint}.json")
            if os.path.exists(path):
                return
            os.makedirs(directory, exist_ok=True)
            atomic_write_text(
                path, json.dumps(payload, sort_keys=True, indent=1) + "\n"
            )

    def arch_payload(self, fingerprint: str) -> Optional[dict]:
        """The recorded architecture description for ``fingerprint``,
        or ``None`` if this store never saw it (pre-manifest entries)
        or the sidecar file is unreadable."""
        path = os.path.join(self.root, _ARCH_DIR, f"{fingerprint}.json")
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return None
        return payload if isinstance(payload, dict) else None

    def arch_fingerprints(self) -> List[str]:
        """All fingerprints with a recorded architecture description."""
        try:
            names = os.listdir(os.path.join(self.root, _ARCH_DIR))
        except OSError:
            return []
        return sorted(
            name[:-len(".json")] for name in names if name.endswith(".json")
        )

    def append_run_log(self, payload: dict) -> None:
        """Append one run-telemetry entry (a JSON-serialisable dict).

        Each writer appends to its own ``runs/run-<writer>.jsonl`` (the
        same no-interleaving discipline as record segments).  Called
        once per completed run, so the open/close per append is noise.
        """
        directory = os.path.join(self.root, _RUNS_DIR)
        path = os.path.join(directory, f"run-{self._writer_id}.jsonl")
        line = json.dumps(payload, sort_keys=True) + "\n"
        with self._lock:
            os.makedirs(directory, exist_ok=True)
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(line)
                handle.flush()

    def iter_run_logs(self) -> Iterator[dict]:
        """Every parseable run-telemetry entry, in (file, line) order.

        Corrupt lines are skipped: telemetry is advisory (it feeds
        reports, never results), so a torn tail must not fail a query.
        """
        directory = os.path.join(self.root, _RUNS_DIR)
        try:
            names = sorted(os.listdir(directory))
        except OSError:
            return
        for name in names:
            if not name.endswith(".jsonl"):
                continue
            try:
                with open(directory + os.sep + name, encoding="utf-8") \
                        as handle:
                    lines = handle.readlines()
            except OSError:
                continue
            for line in lines:
                try:
                    entry = json.loads(line)
                except ValueError:
                    continue
                if isinstance(entry, dict):
                    yield entry

    # -- maintenance --------------------------------------------------------

    def _scan_shard_full(self, shard: int):
        """Fresh full replay of one shard, independent of the index.

        Returns ``({key: payload}, {key: {encoded variants}},
        per-shard counters)``.  Used by verify/compact so they see the
        on-disk truth even if bytes this instance already read were
        rewritten in place.
        """
        directory = self._shard_dir(shard)
        live: Dict[str, dict] = {}
        payload_variants: Dict[str, set] = {}
        entries = corrupt = torn = size_total = 0
        segments = self._shard_segments(shard)
        for name in segments:
            path = os.path.join(directory, name)
            try:
                with open(path, "rb") as handle:
                    data = handle.read()
            except OSError:
                continue
            size_total += len(data)
            complete = data.rfind(b"\n") + 1
            if complete != len(data):
                torn += 1
            for line in data[:complete].splitlines():
                if not line.strip():
                    continue
                decoded = _decode_entry(line)
                if decoded is None:
                    corrupt += 1
                    continue
                key, payload = decoded
                entries += 1
                live[key] = payload
                payload_variants.setdefault(key, set()).add(
                    _encode_entry(key, payload)
                )
        return live, payload_variants, {
            "segments": len(segments), "entries": entries,
            "corrupt": corrupt, "torn": torn, "bytes": size_total,
        }

    def stats(self) -> StoreStats:
        """Aggregate on-disk shape, read off the live index.

        One incremental refresh per shard, then field for field equal
        to ``verify().stats``: the stats cover every byte the instance
        has read, once.  Rewriting already-read bytes in place breaks
        the append-only contract; catching that is :meth:`verify`'s job.
        """
        segments = entries = live_keys = corrupt = torn = size = 0
        for shard in range(self.shards):
            with self._lock:
                state = self._current(shard)
                live_keys += len(state.index)
                for segment in state.segments.values():
                    segments += 1
                    entries += segment.entries
                    corrupt += segment.corrupt
                    torn += segment.size > segment.scanned
                    size += segment.size
        return StoreStats(
            root=self.root, shards=self.shards, segments=segments,
            entries=entries, live_keys=live_keys,
            superseded=entries - live_keys, corrupt_lines=corrupt,
            torn_tails=torn, bytes=size,
        )

    def verify(self) -> VerifyReport:
        """Full-store consistency scan, independent of the live index.

        Replays every segment from scratch, since only a replay sees
        every payload variant of a key.  Fails (``.ok == False``) on
        corrupt interior lines or on any key with multiple *distinct*
        payloads -- the simulator is deterministic, so that means key
        aliasing or data corruption.  Torn tails and superseded
        duplicates are tolerated by design.
        """
        totals = {"segments": 0, "entries": 0, "corrupt": 0, "torn": 0,
                  "bytes": 0}
        live_keys = 0
        conflicts: Dict[str, int] = {}
        for shard in range(self.shards):
            live, variants, counts = self._scan_shard_full(shard)
            live_keys += len(live)
            for name in totals:
                totals[name] += counts[name]
            for key, payloads in variants.items():
                if len(payloads) > 1:
                    conflicts[key] = len(payloads)
        stats = StoreStats(
            root=self.root, shards=self.shards,
            segments=totals["segments"], entries=totals["entries"],
            live_keys=live_keys,
            superseded=totals["entries"] - live_keys,
            corrupt_lines=totals["corrupt"], torn_tails=totals["torn"],
            bytes=totals["bytes"],
        )
        return VerifyReport(stats=stats, conflicts=conflicts)

    def compact(self) -> CompactionReport:
        """GC pass: rewrite each shard to one duplicate-free segment.

        The compacted segment is published atomically under a sequence
        number above every segment it replaces, *then* the stale
        segments are unlinked -- replay order makes a crash between
        the two steps harmless (duplicates, not loss).  Run this
        offline: a writer appending to a segment while compaction
        replaces it would lose those appends.
        """
        self.close()
        shards_compacted = segments_before = segments_after = 0
        entries_dropped = bytes_before = bytes_after = 0
        for shard in range(self.shards):
            directory = self._shard_dir(shard)
            segments = self._shard_segments(shard)
            if not segments:
                continue
            live, _, counts = self._scan_shard_full(shard)
            segments_before += counts["segments"]
            bytes_before += counts["bytes"]
            dead = (counts["entries"] - len(live)) + counts["corrupt"]
            if len(segments) == 1 and dead == 0 and counts["torn"] == 0:
                # Already compact; leave the segment untouched.
                segments_after += 1
                bytes_after += counts["bytes"]
                continue
            shards_compacted += 1
            entries_dropped += dead
            top_seq = _segment_sort_key(segments[-1])[0]
            if live:
                name = (f"{_SEGMENT_PREFIX}{top_seq + 1:06d}-"
                        f"{self._writer_id}-compact{_SEGMENT_SUFFIX}")
                text = "".join(
                    _encode_entry(key, payload)
                    for key, payload in live.items()
                )
                atomic_write_text(os.path.join(directory, name), text)
                segments_after += 1
                bytes_after += len(text.encode())
            for name in segments:
                try:
                    os.remove(os.path.join(directory, name))
                except OSError:
                    pass
            # The shard's index and counters describe segments that are
            # gone; the next access rebuilds them from the new one.
            self._states.pop(shard, None)
        return CompactionReport(
            shards_compacted=shards_compacted,
            segments_before=segments_before,
            segments_after=segments_after,
            entries_dropped=entries_dropped,
            bytes_before=bytes_before,
            bytes_after=bytes_after,
        )


def _counter():
    value = 0
    while True:
        yield value
        value += 1


_INSTANCE_COUNTER = _counter()
