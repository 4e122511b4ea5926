"""Crash-consistent result store on one SQLite file.

The experiment runner used to keep one JSON file per cached result,
named by a *lossy* sanitisation of the cache key (``/`` -> ``_``,
``+`` -> ``plus``).  Two distinct keys could alias to the same
filename and silently serve each other's records -- the exact
silent-wrong-results hazard the fingerprinted keys were built to kill.
This store closes that hole by construction: records are addressed by
their **full key string**, the primary key of one table, never through
a key-derived filename.

Layout::

    <root>/
        STORE_FORMAT      # format marker (format name, version)
        store.db          # the SQLite database (plus -wal/-shm files
                          # while a connection is open)

Tables::

    records(key PRIMARY KEY, payload, workload, policy,
            arch_fingerprint, seed, kernel_fingerprint) WITHOUT ROWID
    archs(fingerprint PRIMARY KEY, payload) WITHOUT ROWID
    runs(id INTEGER PRIMARY KEY, payload)

A payload is sort-keyed JSON text.  :meth:`ResultStore.put` parses the
key once into the five key columns, named after the fields of
:class:`ParsedKey` (all NULL for a key that does not parse as a cache
key), so the query layer filters on them in SQL instead of parsing
keys.  ``seed`` holds a signed 64-bit integer (:data:`SEED_RANGE`); the
runner, the job spec and the service refuse any other seed where it
comes in, and a workload name that is not UTF-8 the same way
(:func:`check_workload_name`).  ``archs`` holds the architecture
description behind each fingerprint a key names, and ``runs`` one
run-telemetry entry per completed run.

Durability: WAL mode at ``synchronous=OFF``, one autocommit per
``put``.  A ``put`` that returned is in the write-ahead log, which the
operating system holds, so it survives a killed process -- not a power
loss.  A busy timeout lets processes share a store (a CLI sweep next to
``repro serve``): a writer waits for another's commit instead of
failing, and readers never wait.

Reads: each instance keeps a memo of the payloads it has decoded or
put.  :meth:`ResultStore.get` checks it first, so a key already read
costs one dict lookup, and a miss queries the database, so it sees
every other writer's commits.  One row per key keeps no superseded
payloads, so a re-put replaces the record.

One instance may be shared by many threads (the service keeps one for
all its jobs and queries): its one connection is used under one lock,
and a memo hit takes no lock.  SQLite forbids using a connection
across ``fork()``; pool workers never call the store (they return
records to the orchestrating process, which stores them).
"""

from __future__ import annotations

import json
import os
import re
import threading
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.util import atomic_write_text

#: Store format marker file, written once at store creation.
FORMAT_FILE = "STORE_FORMAT"
FORMAT_NAME = "ltrf-store"
FORMAT_VERSION = 2
#: The SQLite database file in the store root.
DATABASE_FILE = "store.db"

#: Seconds a statement waits for another connection's write lock.
_BUSY_TIMEOUT_S = 30.0
#: Builds a new database; the journal mode goes last, once the schema
#: is in the file itself.
_SCHEMA = (
    "CREATE TABLE records (key TEXT PRIMARY KEY, payload TEXT NOT NULL, "
    "workload TEXT, policy TEXT, arch_fingerprint TEXT, seed INTEGER, "
    "kernel_fingerprint TEXT) WITHOUT ROWID",
    "CREATE TABLE archs (fingerprint TEXT PRIMARY KEY, "
    "payload TEXT NOT NULL) WITHOUT ROWID",
    "CREATE TABLE runs (id INTEGER PRIMARY KEY, payload TEXT NOT NULL)",
    "PRAGMA journal_mode=WAL",
)
#: Runs on every connection; the query fails on a file that is not a
#: store database.
_OPEN = ("PRAGMA synchronous=OFF", "SELECT 1 FROM records LIMIT 0")
_PUT = "INSERT OR REPLACE INTO records VALUES (?, ?, ?, ?, ?, ?, ?)"
_GET = "SELECT payload FROM records WHERE key = ?"
#: The key columns of a key that does not parse.
_UNPARSED = (None,) * 5
#: Payload -> sort-keyed JSON text (one encoder, not one per call).
_encode = json.JSONEncoder(sort_keys=True).encode
#: Each table with the column that names its rows (for ``verify``).
_TABLES = (("records", "key"), ("archs", "fingerprint"), ("runs", "id"))
#: The seeds a key can carry: ``records.seed`` is a signed 64-bit
#: integer, which is all SQLite binds.
SEED_RANGE = range(-2 ** 63, 2 ** 63)


def check_workload_name(name: str) -> None:
    """Raise ValueError unless ``name`` can head a key.

    SQLite binds keys as UTF-8 text, and a path that is not valid
    UTF-8 reaches Python with lone surrogates in it, which do not
    encode.  The runner, the CLI and the job spec refuse such a name
    before anything is simulated, as they refuse a seed outside
    :data:`SEED_RANGE`.
    """
    try:
        name.encode("utf-8")
    except UnicodeEncodeError:
        raise ValueError(
            f"workload {name!r} is not valid UTF-8, which result store "
            "keys must be; rename the file"
        ) from None


class StoreError(Exception):
    """Unusable store directory (bad marker, unreadable database)."""


class ParsedKey(NamedTuple):
    """The structured form of one result-store cache key."""

    workload: str
    policy: str
    #: Content fingerprint of the architecture (``a<fp>`` segment).
    arch_fingerprint: str
    seed: int
    kernel_fingerprint: str


#: Whether a whole string is lowercase hex digits only (no uppercase,
#: no ``0x`` prefix); returns a match or ``None``.
_is_hex = re.compile(r"[0-9a-f]+").fullmatch


def _parse_key(key: str) -> Optional[ParsedKey]:
    """Decode a cache key, or ``None`` if it does not match the format
    ``<workload>__<policy>__a<arch-fp>__<seed>__k<kernel-fp>``.

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
    if not arch_token.startswith("a") or not _is_hex(arch_token[1:]):
        return None
    return ParsedKey(workload, policy, arch_token[1:], seed, kernel_fp)


def _decode(text: str) -> Optional[dict]:
    """A stored payload as a dict, or ``None`` if it is not one."""
    try:
        payload = json.loads(text)
    except (ValueError, TypeError):
        return None
    return payload if isinstance(payload, dict) else None


@dataclass
class StoreStats:
    """Aggregate shape of a store, as reported by ``store stats``."""

    root: str
    records: int
    archs: int            # architecture descriptions
    runs: int             # run-log entries
    bytes: int            # database pages x page size

    def summary_line(self) -> str:
        """One-line shape summary.

        The *single* formatting of "how big is this store": both
        ``store stats`` (via :meth:`render`) and
        ``run_all_experiments``'s ``[store]`` line print this exact
        string, so the two can never drift apart.
        """
        return f"{self.records} record(s) at {self.root}"

    def render(self) -> str:
        return (
            f"store {self.root}\n"
            f"  format      {FORMAT_NAME} v{FORMAT_VERSION}, "
            f"one SQLite file ({DATABASE_FILE})\n"
            f"  records     {self.records}\n"
            f"  archs       {self.archs} architecture description(s)\n"
            f"  runs        {self.runs} run-log entr(ies)\n"
            f"  size        {self.bytes} bytes\n"
            f"  summary     {self.summary_line()}"
        )


@dataclass
class VerifyReport:
    """Outcome of a full-store consistency scan."""

    stats: StoreStats
    #: ``<table> <row name>`` of every row whose payload does not decode
    #: to a JSON object.
    corrupt: List[str]
    #: What ``PRAGMA integrity_check`` found, when it is not ``ok``.
    integrity: List[str]

    @property
    def ok(self) -> bool:
        return not self.corrupt and not self.integrity

    def render(self) -> str:
        lines = [self.stats.render()]
        if self.corrupt:
            lines.append(f"  CORRUPT     {len(self.corrupt)} row(s) whose "
                         "payload does not decode:")
            lines.extend(f"    {row}" for row in self.corrupt)
        if self.integrity:
            lines.append("  INTEGRITY   " + "; ".join(self.integrity))
        lines.append(f"  verdict     {'OK' if self.ok else 'FAILED'}")
        return "\n".join(lines)


@dataclass
class CompactionReport:
    """Outcome of a ``VACUUM``: the database size before and after."""

    root: str
    bytes_before: int
    bytes_after: int

    def render(self) -> str:
        return (f"compacted {self.root}: {self.bytes_before} -> "
                f"{self.bytes_after} bytes")


def _create(path: str) -> None:
    """Create the database at ``path`` unless another process has.

    It is built under a name of this thread's own and linked into
    place, so no connection ever sees it half made and two processes
    creating one store never race on its schema or journal mode.
    """
    import sqlite3

    building = f"{path}.{os.getpid()}-{threading.get_ident()}.new"
    connection = sqlite3.connect(building, isolation_level=None)
    try:
        for statement in _SCHEMA:
            connection.execute(statement)
    finally:
        connection.close()
    try:
        os.link(building, path)
    except FileExistsError:
        pass
    finally:
        os.remove(building)


def _connect(path: str):
    """Open the database at ``path``, creating it first if need be.
    ``sqlite3`` is imported here, so importing the CLI does not load
    it."""
    import sqlite3

    try:
        if not os.path.exists(path):
            _create(path)
        connection = sqlite3.connect(
            path, timeout=_BUSY_TIMEOUT_S, isolation_level=None,
            check_same_thread=False,
        )
        try:
            for statement in _OPEN:
                connection.execute(statement)
        except BaseException:
            connection.close()
            raise
    except sqlite3.DatabaseError as error:
        raise StoreError(f"unreadable store database {path}: {error}") \
            from None
    return connection


def _size(connection) -> int:
    """The database's size: its pages times the page size."""
    pages = connection.execute("PRAGMA page_count").fetchone()[0]
    return pages * connection.execute("PRAGMA page_size").fetchone()[0]


class ResultStore:
    """Key -> JSON-payload store on one SQLite file.

    Keys are arbitrary strings (a primary key, never a file name), so
    naming is injective by construction: the only path from a key to a
    record is the full-string lookup.
    """

    def __init__(self, root: str, create: bool = True) -> None:
        """Open (and with ``create``, initialise) the store at ``root``.

        ``create=False`` opens read-only-safely: a directory without a
        ``STORE_FORMAT`` marker raises :class:`StoreError` instead of
        being silently turned into a store -- inspection commands
        (``store stats``/``verify``/``compact``) use this so they never
        mutate a directory that is not a store.
        """
        self.root = root
        if create:
            os.makedirs(root, exist_ok=True)
        self._check_format(create)
        self._path = os.path.join(root, DATABASE_FILE)
        self._lock = threading.Lock()
        self._db = _connect(self._path)
        #: key -> decoded payload, for every key read or put.
        self._memo: Dict[str, dict] = {}
        self._archs_recorded = set()

    def _check_format(self, create: bool) -> None:
        marker = os.path.join(self.root, FORMAT_FILE)
        try:
            with open(marker) as handle:
                payload = json.load(handle)
            if not isinstance(payload, dict):
                raise ValueError("not a JSON object")
        except FileNotFoundError:
            if not create:
                raise StoreError(
                    f"{self.root} is not a result store "
                    f"(no {FORMAT_FILE} marker)"
                ) from None
            atomic_write_text(marker, json.dumps({
                "format": FORMAT_NAME, "version": FORMAT_VERSION,
            }, sort_keys=True) + "\n")
            return
        except ValueError as error:
            raise StoreError(f"unreadable store marker {marker}: {error}")
        declared = (payload.get("format"), payload.get("version"))
        if declared == (FORMAT_NAME, 1):
            raise StoreError(
                f"{self.root} holds a JSONL result store ({FORMAT_NAME} "
                "v1), which this build does not read: delete it, or point "
                "LTRF_CACHE_DIR/--dir elsewhere, and re-run cold"
            )
        if declared != (FORMAT_NAME, FORMAT_VERSION):
            raise StoreError(
                f"{marker} declares {declared[0]!r} v{declared[1]!r}; "
                f"this build reads {FORMAT_NAME} v{FORMAT_VERSION}"
            )

    def _connection(self):
        """The open connection, reopened after :meth:`close`.  Callers
        hold ``self._lock``."""
        if self._db is None:
            self._db = _connect(self._path)
        return self._db

    # -- records ------------------------------------------------------------

    def get(self, key: str) -> Optional[dict]:
        """Return the payload stored under ``key``, or ``None``.

        A key this instance has read or put is served from the memo; a
        miss reads the database, so it sees other writers' commits.  A
        payload that does not decode reads as missing.
        """
        payload = self._memo.get(key)
        if payload is None:
            with self._lock:
                row = self._connection().execute(_GET, (key,)).fetchone()
                if row is None:
                    return None
                payload = _decode(row[0])
                if payload is not None:
                    self._memo[key] = payload
        return payload

    def put(self, key: str, payload: dict) -> None:
        """Store ``key -> payload``, replacing any earlier payload, in
        one committed transaction."""
        row = (key, _encode(payload), *(_parse_key(key) or _UNPARSED))
        with self._lock:
            self._connection().execute(_PUT, row)
            self._memo[key] = payload

    def keys(self) -> Iterator[str]:
        """Every stored key, as of one read."""
        return (key for key, in self._rows("SELECT key FROM records"))

    def items(self) -> Iterator[Tuple[str, dict]]:
        """Every stored ``(key, payload)`` whose payload decodes, as of
        one read.  Each payload is decoded from the row read, not served
        from the memo, so another writer's re-put shows."""
        for key, text in self._rows("SELECT key, payload FROM records"):
            payload = _decode(text)
            if payload is not None:
                yield key, payload

    def select(self, equal: Sequence[Tuple[str, Any]] = ()) -> List[tuple]:
        """``(key, ParsedKey or None)`` of every record whose key
        columns equal each ``(field, value)`` of ``equal``, and of
        every record whose key does not parse: a filter can hold for
        such a record only through its payload, which the caller
        checks.  ``field`` is a :class:`ParsedKey` field name, which is
        also its column's name."""
        sql = "SELECT key, " + ", ".join(ParsedKey._fields) + " FROM records"
        if equal:
            unknown = {field for field, _ in equal} - set(ParsedKey._fields)
            if unknown:
                raise ValueError(f"no key column {sorted(unknown)}")
            sql += " WHERE workload IS NULL OR (" + " AND ".join(
                f"{field} = ?" for field, _ in equal) + ")"
        rows = self._rows(sql, [value for _, value in equal])
        return [(row[0], None if row[1] is None else ParsedKey._make(row[1:]))
                for row in rows]

    def _rows(self, sql: str, parameters: Sequence = ()) -> List[tuple]:
        with self._lock:
            return self._connection().execute(sql, parameters).fetchall()

    def close(self) -> None:
        """Close the connection.  The store stays usable: the next call
        reopens it."""
        with self._lock:
            if self._db is not None:
                self._db.close()
                self._db = None

    # -- architecture manifest and run-telemetry log ------------------------

    def record_arch(self, fingerprint: str,
                    build: Callable[[], dict]) -> None:
        """Persist the architecture description behind ``fingerprint``.

        ``build`` returns the complete ``ltrf-arch`` payload; it is
        called, and the row written, only for a fingerprint this
        instance has not recorded, so a caller can pass it on every key
        it computes.  The query layer resolves the ``a<fp>`` segment of
        a record key through it.  An existing row is never rewritten
        (the fingerprint pins its content).
        """
        if fingerprint in self._archs_recorded:
            return
        text = _encode(build())
        with self._lock:
            self._connection().execute(
                "INSERT OR IGNORE INTO archs VALUES (?, ?)",
                (fingerprint, text))
            self._archs_recorded.add(fingerprint)

    def arch_payload(self, fingerprint: str) -> Optional[dict]:
        """The recorded architecture description for ``fingerprint``,
        or ``None`` if this store never saw it or it does not decode."""
        rows = self._rows("SELECT payload FROM archs WHERE fingerprint = ?",
                          (fingerprint,))
        return _decode(rows[0][0]) if rows else None

    def append_run_log(self, payload: dict) -> None:
        """Append one run-telemetry entry (a JSON-serialisable dict).

        Telemetry is host-specific by design and therefore kept out of
        the records, which must stay byte-identical across machines.
        """
        text = _encode(payload)
        with self._lock:
            self._connection().execute(
                "INSERT INTO runs (payload) VALUES (?)", (text,))

    def iter_run_logs(self) -> Iterator[dict]:
        """Every run-telemetry entry that decodes, oldest first.

        Entries that do not decode are skipped: telemetry is advisory
        (it feeds reports, never results).
        """
        for (text,) in self._rows("SELECT payload FROM runs ORDER BY id"):
            entry = _decode(text)
            if entry is not None:
                yield entry

    # -- maintenance --------------------------------------------------------

    def stats(self) -> StoreStats:
        """Aggregate shape, from SQL counts."""
        with self._lock:
            connection = self._connection()
            counts = [
                connection.execute(f"SELECT count(*) FROM {table}")
                .fetchone()[0]
                for table, _ in _TABLES
            ]
            return StoreStats(self.root, *counts, bytes=_size(connection))

    def verify(self) -> VerifyReport:
        """Full consistency scan, independent of the SQL counts.

        Reads and decodes every row of every table, counting the rows
        as it goes, and runs ``PRAGMA integrity_check``.  Fails
        (``.ok == False``) on a payload that does not decode to a JSON
        object or on anything the integrity check reports.  One row per
        key keeps no superseded payloads, so there are no two payloads
        of one key to compare.
        """
        counts, corrupt = [], []
        with self._lock:
            connection = self._connection()
            for table, name in _TABLES:
                count = 0
                for ident, text in connection.execute(
                        f"SELECT {name}, payload FROM {table}"):
                    count += 1
                    if _decode(text) is None:
                        corrupt.append(f"{table} {ident!r}")
                counts.append(count)
            integrity = [row[0] for row in
                         connection.execute("PRAGMA integrity_check")]
            stats = StoreStats(self.root, *counts, bytes=_size(connection))
        return VerifyReport(stats, corrupt,
                            [] if integrity == ["ok"] else integrity)

    def compact(self) -> CompactionReport:
        """``VACUUM`` the database and truncate its write-ahead log.

        Rebuilds the file without the free pages that replaced records
        leave.  Safe while other processes use the store: it holds the
        write lock for its duration, and their writes wait.
        """
        with self._lock:
            connection = self._connection()
            before = _size(connection)
            connection.execute("VACUUM")
            connection.execute("PRAGMA wal_checkpoint(TRUNCATE)")
            return CompactionReport(self.root, before, _size(connection))
