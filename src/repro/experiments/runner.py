"""Simulation runner: caching plus a parallel batch execution engine.

Every experiment reduces to "simulate workload X under policy P on
configuration C".  The runner centralises that, memoises results both
in memory and on disk (keyed by a fingerprint of the inputs), and
returns slim :class:`RunRecord` objects.  The latency sweeps of
Figures 11-14 revisit the same grid points, so caching cuts the full
reproduction from thousands of simulations to a few hundred.

Grid points share nothing but the cache, so they are embarrassingly
parallel: :meth:`Runner.simulate_many` accepts a whole experiment grid
of :class:`SimRequest` objects, deduplicates them against the cache
*before* dispatch, fans the remaining misses out over a
``ProcessPoolExecutor``, and merges results back keyed by request --
the returned list is aligned with the input order regardless of
completion order, so ``jobs=N`` is bit-for-bit equivalent to serial
execution.

On-disk persistence lives in :mod:`repro.store`: a sharded,
append-only, crash-consistent result store addressed by the *full*
cache key (naming is injective by construction -- the legacy
one-file-per-entry cache named files with a lossy key sanitisation
that could alias two distinct keys onto one file).  Completed records
are flushed to the store as they arrive, so a sweep killed mid-run
resumes without re-simulating anything already flushed.

Where the misses *run* is pluggable (:mod:`repro.launchers`): a local
process pool (default), one ``repro worker-chunk`` subprocess per
chunk, or remote hosts over ssh.  All backends sit under the shared
scheduler (:mod:`repro.launchers.scheduler`), which retries failed
chunks with capped backoff, kills and reassigns chunks that blow the
``LTRF_CHUNK_TIMEOUT`` wall-clock budget, quarantines chunks that
exhaust their retry budget (they re-run serially in this process,
where a real poison shows its real traceback), and degrades to serial
in-process execution when the backend itself is broken -- so a sweep
finishes late rather than never, and every recovery action is counted
in :class:`RunnerStats`.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
# Resolved as a *module attribute* by launchers.local (and monkeypatched
# by the scripted-pool tests) -- not referenced by name in this module.
from concurrent.futures import ProcessPoolExecutor  # noqa: F401
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from typing import Dict, Iterable, List, Optional

from repro.arch.config import GPUConfig
from repro.arch.registry import arch_config
from repro.arch.serialize import (
    arch_to_dict,
    fingerprint_of_arch,
    fingerprint_of_arch_sans_latency,
)
from repro.arch.sm import StreamingMultiprocessor
from repro.compiler.cache import STATS as COMPILE_STATS
from repro.policies import policy_by_name
from repro.store import Query, ResultStore
from repro.workloads import (
    resolve_workload,
    workload_fingerprint,
)
from repro.workloads.registry import BUILD_STATS


def default_cache_dir() -> str:
    """Resolve the default on-disk result-store location.

    This is the **single** place ``LTRF_CACHE_DIR`` is read, and it is
    consulted at :class:`Runner` construction time (the default of the
    ``cache_dir`` argument).  When the variable is set it wins;
    otherwise the store lives under the current working directory.
    (Deriving it from ``__file__``, as early versions did, writes next
    to site-packages for a pip-installed package.)

    An *empty* ``LTRF_CACHE_DIR`` is an error, not "unset": an empty
    value almost always means a misquoted shell export, and silently
    falling back to ``./.ltrf_cache`` would scatter caches across
    working directories.
    """
    configured = os.environ.get("LTRF_CACHE_DIR")
    if configured is not None:
        if not configured:
            raise ValueError(
                "LTRF_CACHE_DIR is set but empty.  Set it to the "
                "directory the result store should live in, unset it "
                "to use ./.ltrf_cache under the current working "
                "directory, or pass Runner(cache_dir=None) to disable "
                "on-disk persistence."
            )
        return configured
    return os.path.join(os.getcwd(), ".ltrf_cache")


#: Sentinel distinguishing "use the default" from "no disk cache" (None).
_DEFAULT_CACHE = object()


@dataclass(frozen=True)
class RunRecord:
    """Slim, JSON-serialisable summary of one simulation."""

    workload: str
    policy: str
    ipc: float
    cycles: int
    instructions: int
    prefetch_operations: int
    resident_warps: int
    activations: int
    deactivations: int
    mrf_reads: int
    mrf_writes: int
    rfc_reads: int
    rfc_writes: int
    rfc_read_hits: int
    rfc_read_misses: int
    rfc_fills: int
    rfc_writebacks: int
    l1_hit_rate: float

    @property
    def mrf_accesses(self) -> int:
        return self.mrf_reads + self.mrf_writes

    @property
    def rfc_accesses(self) -> int:
        return self.rfc_reads + self.rfc_writes

    @property
    def rfc_hit_rate(self) -> float:
        total = self.rfc_read_hits + self.rfc_read_misses
        return self.rfc_read_hits / total if total else 0.0


@dataclass(frozen=True)
class SimRequest:
    """One grid point: the unit of work of the batch engine."""

    workload: str
    policy: str
    config: GPUConfig
    seed: int = 0


@dataclass(frozen=True)
class SimTelemetry:
    """Host-side execution report for one simulation.

    Kept out of :class:`RunRecord` on purpose: records are cached on
    disk and must stay byte-identical across engines and machines,
    while telemetry (wall-clock, event counts) is inherently
    run-specific.  The runner aggregates it so figures can report
    simulated-vs-host-time statistics alongside their tables.
    """

    host_seconds: float
    cycles: int
    instructions: int
    cycles_skipped: int
    event_counts: Dict[str, int]
    #: Content fingerprint of the kernel this run actually simulated.
    #: For generated workloads it always equals the fingerprint in the
    #: request's cache key; for file-backed workloads the file may be
    #: rewritten between the caller's key computation and the (worker's)
    #: execution, and the runner uses this to store the record under
    #: the content that produced it (see Runner._content_key).
    kernel_fingerprint: str = ""
    # Static-work accounting for this run (deltas of the process-wide
    # kernel-build and compile-cache counters): how much host time went
    # into building/compiling rather than simulating, and whether the
    # compiled artifact came from the static-artifact cache.
    kernel_builds: int = 0
    kernel_build_seconds: float = 0.0
    compile_cache_hits: int = 0
    compile_cache_misses: int = 0
    compile_seconds: float = 0.0


def execute_request_with_telemetry(request: SimRequest):
    """Run one simulation, bypassing the runner's result caches.

    Returns ``(record, telemetry)``.  Module-level (rather than a
    ``Runner`` method) so pool workers can unpickle it; the simulator
    is deterministic in ``(request,)``, which is what makes parallel
    and serial execution interchangeable (the record, not the
    telemetry, is the deterministic part).

    Static work (kernel build, policy compile) flows through the
    process-wide static-artifact caches; the telemetry reports this
    run's share of it as counter deltas.
    """
    builds_before, build_seconds_before = BUILD_STATS.snapshot()
    hits_before, misses_before, compile_seconds_before = (
        COMPILE_STATS.snapshot()
    )
    kernel, fingerprint = resolve_workload(request.workload)
    sm = StreamingMultiprocessor(
        request.config, policy_by_name(request.policy)
    )
    result = sm.run(kernel, seed=request.seed)
    record = RunRecord(
        workload=request.workload,
        policy=request.policy,
        ipc=result.ipc,
        cycles=result.cycles,
        instructions=result.instructions,
        prefetch_operations=result.prefetch_operations,
        resident_warps=result.resident_warps,
        activations=result.activations,
        deactivations=result.deactivations,
        mrf_reads=result.mrf_reads,
        mrf_writes=result.mrf_writes,
        rfc_reads=result.rfc_reads,
        rfc_writes=result.rfc_writes,
        rfc_read_hits=result.rfc_read_hits,
        rfc_read_misses=result.rfc_read_misses,
        rfc_fills=result.rfc_fills,
        rfc_writebacks=result.rfc_writebacks,
        l1_hit_rate=result.l1_hit_rate,
    )
    builds_after, build_seconds_after = BUILD_STATS.snapshot()
    hits_after, misses_after, compile_seconds_after = (
        COMPILE_STATS.snapshot()
    )
    telemetry = SimTelemetry(
        host_seconds=result.host_seconds,
        cycles=result.cycles,
        instructions=result.instructions,
        cycles_skipped=result.cycles_skipped,
        event_counts=result.event_counts,
        kernel_fingerprint=fingerprint,
        kernel_builds=builds_after - builds_before,
        kernel_build_seconds=build_seconds_after - build_seconds_before,
        compile_cache_hits=hits_after - hits_before,
        compile_cache_misses=misses_after - misses_before,
        compile_seconds=compile_seconds_after - compile_seconds_before,
    )
    return record, telemetry


def execute_batch(requests: List[SimRequest]):
    """Run a batch of requests in-process; one pool task.

    The batch engine groups requests by workload before dispatch so
    that each worker process resolves and compiles each distinct
    kernel once (the static-artifact caches are per process); shipping
    a grouped batch per task also amortises the executor's per-task
    pickling round-trip.
    """
    return [execute_request_with_telemetry(request) for request in requests]


def _dispatch_chunks(items: List[tuple], workers: int) -> List[List[tuple]]:
    """Split pending ``(key, request)`` pairs into pool tasks.

    Items are grouped by *grid row* -- ``(workload, policy,
    sans-latency arch fingerprint)``, the dispatch row key -- so one
    worker handles a row's latency points back to back: it resolves
    and compiles the kernel once (zero-rebuild dispatch against the
    process-wide static caches, so splitting a row across workers
    would repeat that work per worker).  Groups are sliced into
    several chunks per worker so a slow workload cannot serialise the
    pool behind one long task.  The merge is keyed, so chunk shapes
    never affect results -- only how much static work is repeated.
    """
    by_row: Dict[tuple, List[tuple]] = {}
    for item in items:
        request = item[1]
        row = (request.workload, request.policy,
               fingerprint_of_arch_sans_latency(request.config))
        by_row.setdefault(row, []).append(item)
    chunk_size = max(1, -(-len(items) // (workers * 4)))
    chunks = []
    for group in by_row.values():
        for start in range(0, len(group), chunk_size):
            chunks.append(group[start:start + chunk_size])
    return chunks


def execute_request(request: SimRequest) -> RunRecord:
    """Run one simulation, bypassing the runner's result caches
    (record only).  Static work still flows through the process-wide
    static-artifact caches; set ``LTRF_COMPILE_CACHE=0`` to measure
    truly uncached runs."""
    return execute_request_with_telemetry(request)[0]


@dataclass
class RunnerStats:
    """Cache/engine counters, exposed for tests and tooling."""

    memory_hits: int = 0
    disk_hits: int = 0
    simulated: int = 0
    batch_requests: int = 0
    batch_deduplicated: int = 0
    batch_dispatched: int = 0
    #: Times a broken backend was torn down and rebuilt mid-grid
    #: (e.g. a broken process pool replaced; see Runner._run_parallel).
    pool_retries: int = 0
    # Fault-tolerance counters (see repro.launchers.scheduler): every
    # recovery decision the chunk scheduler takes is visible here, so
    # a sweep that survived trouble *says so* in telemetry_summary()
    # and `repro report` instead of silently absorbing it.
    chunk_retries: int = 0          # failed deliveries re-queued
    chunk_timeouts: int = 0         # chunks killed at LTRF_CHUNK_TIMEOUT
    chunks_quarantined: int = 0     # retry budget exhausted -> serial
    backend_degradations: int = 0   # backend abandoned for serial
    # Aggregated simulation telemetry (simulated-vs-host-time stats).
    host_seconds: float = 0.0
    simulated_cycles: int = 0
    simulated_instructions: int = 0
    cycles_skipped: int = 0
    event_counts: Dict[str, int] = field(default_factory=dict)
    # Aggregated static-work telemetry (kernel builds + policy
    # compiles), so sweeps can see how much of their wall-clock is
    # amortisable front-end work and whether the compile cache earns
    # its keep.
    kernel_builds: int = 0
    kernel_build_seconds: float = 0.0
    compile_cache_hits: int = 0
    compile_cache_misses: int = 0
    compile_seconds: float = 0.0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    @property
    def simulated_cycles_per_host_second(self) -> float:
        if self.host_seconds <= 0.0:
            return 0.0
        return self.simulated_cycles / self.host_seconds

    def copy(self) -> "RunnerStats":
        """An independent snapshot of every counter."""
        clone = RunnerStats(**{
            spec.name: getattr(self, spec.name)
            for spec in fields(self) if spec.name != "event_counts"
        })
        clone.event_counts = dict(self.event_counts)
        return clone

    def delta_since(self, baseline: "RunnerStats") -> "RunnerStats":
        """Counter-wise ``self - baseline``: what happened since the
        baseline snapshot was taken (used by :meth:`Runner.log_run` to
        write per-sweep run-log entries while the lifetime totals stay
        on the runner)."""
        delta = RunnerStats(**{
            spec.name: getattr(self, spec.name) - getattr(baseline,
                                                          spec.name)
            for spec in fields(self) if spec.name != "event_counts"
        })
        delta.event_counts = {
            kind: count - baseline.event_counts.get(kind, 0)
            for kind, count in self.event_counts.items()
            if count - baseline.event_counts.get(kind, 0)
        }
        return delta

    def note_telemetry(self, telemetry: "SimTelemetry") -> None:
        """Fold one simulation's execution report into the aggregate."""
        self.host_seconds += telemetry.host_seconds
        self.simulated_cycles += telemetry.cycles
        self.simulated_instructions += telemetry.instructions
        self.cycles_skipped += telemetry.cycles_skipped
        self.kernel_builds += telemetry.kernel_builds
        self.kernel_build_seconds += telemetry.kernel_build_seconds
        self.compile_cache_hits += telemetry.compile_cache_hits
        self.compile_cache_misses += telemetry.compile_cache_misses
        self.compile_seconds += telemetry.compile_seconds
        for kind, count in telemetry.event_counts.items():
            self.event_counts[kind] = self.event_counts.get(kind, 0) + count


#: Field types the cache-key fingerprint encodes natively.  GPUConfig
#: today uses exactly str, int, float and bool (plus the nested
#: MemoryConfig dataclass of ints); None is allowed for optional
#: fields.
_FINGERPRINT_SCALARS = (bool, int, float, str, type(None))


def _fingerprint_encode(name: str, value):
    """Losslessly encode one config field for the fingerprint blob.

    Strict on purpose: the seed serialised unknown field types with
    ``json.dumps(..., default=str)``, so two configs whose fields
    differed only in ways ``str()`` collapses (any two objects sharing
    a string form) produced the *same* fingerprint -- i.e. the same
    cache key for different design points.  Unknown types now raise at
    key-computation time instead of aliasing at lookup time.
    """
    if isinstance(value, _FINGERPRINT_SCALARS):
        return value
    if is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _fingerprint_encode(f"{name}.{f.name}",
                                        getattr(value, f.name))
            for f in fields(value)
        }
    if isinstance(value, (list, tuple)):
        return [
            _fingerprint_encode(f"{name}[{index}]", item)
            for index, item in enumerate(value)
        ]
    raise TypeError(
        f"cannot fingerprint GPUConfig field {name!r} of type "
        f"{type(value).__qualname__}: add an explicit lossless encoding "
        "to _fingerprint_encode (refusing to fall back to str(), which "
        "can collapse distinct configurations onto one cache key)"
    )


def _config_fingerprint(config: GPUConfig) -> str:
    # Encodes to the same blob as the historical asdict()+json path for
    # every type GPUConfig actually uses, so fingerprints -- and
    # therefore existing store entries -- stay valid (pinned by
    # tests/experiments/test_runner_batch.py).
    payload = {
        field.name: _fingerprint_encode(field.name,
                                        getattr(config, field.name))
        for field in fields(config)
    }
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha1(blob.encode()).hexdigest()[:16]


#: Store roots we have already warned about (one warning per process).
_LEGACY_WARNED = set()


def _warn_legacy_entries(cache_dir: str) -> None:
    if cache_dir in _LEGACY_WARNED:
        return
    _LEGACY_WARNED.add(cache_dir)
    print(
        f"note: {cache_dir} holds legacy flat-file cache entries the "
        "result store does not read; run `python -m repro.cli store "
        "migrate` to ingest them (or ignore this to re-simulate cold).",
        file=sys.stderr,
    )


class Runner:
    """Cached simulation front-end used by all experiments.

    ``cache_dir`` defaults to :func:`default_cache_dir` -- the one
    place ``LTRF_CACHE_DIR`` is honoured -- and names the root of the
    sharded :class:`~repro.store.ResultStore`; ``None`` disables
    on-disk persistence entirely.

    ``backend`` selects where :meth:`simulate_many` misses execute
    (one of :data:`repro.launchers.BACKENDS`); ``ssh_hosts`` is the
    host rota for ``backend="ssh"`` (falls back to ``LTRF_SSH_HOSTS``).

    ``store`` hands in an already open store to use instead of opening
    one; ``cache_dir`` then defaults to its root.  The job tracker
    shares one instance across all its jobs this way, so its index is
    read from disk once, not once per job.  The caller owns (and
    closes) a store it hands in.
    """

    def __init__(self, cache_dir: Optional[str] = _DEFAULT_CACHE,
                 backend: str = "local",
                 ssh_hosts: Optional[List[str]] = None,
                 store: Optional[ResultStore] = None) -> None:
        if store is None:
            if cache_dir is _DEFAULT_CACHE:
                cache_dir = default_cache_dir()
            if cache_dir is not None:
                store = ResultStore(cache_dir)
        elif cache_dir is _DEFAULT_CACHE or cache_dir == store.root:
            cache_dir = store.root
        else:
            raise ValueError(
                f"cache_dir {cache_dir!r} is not the root of the store "
                f"handed in ({store.root!r})"
            )
        self.cache_dir = cache_dir
        self.backend = backend
        self.ssh_hosts = list(ssh_hosts) if ssh_hosts else None
        self.result_store: Optional[ResultStore] = store
        self._memory_cache: Dict[str, RunRecord] = {}
        self.stats = RunnerStats()
        #: Counter snapshot at the last :meth:`log_run`, so run-log
        #: entries are per-sweep deltas (summable by reports) while
        #: ``self.stats`` keeps process-lifetime totals.
        self._logged_stats = RunnerStats()
        if self.result_store is not None \
                and self.result_store.has_legacy_entries():
            _warn_legacy_entries(cache_dir)

    # -- cache plumbing -----------------------------------------------------

    def _key(self, workload: str, policy: str, config: GPUConfig,
             seed: int) -> str:
        # Both content fingerprints are part of the key: a workload
        # name is just a lookup handle (a generator edit, a
        # re-parameterised scenario, or a replaced .kernel.json can
        # silently change what it denotes), and since PR 6 the
        # architecture is likewise addressed by *content* -- the
        # serialization-canonical arch fingerprint (``a`` segment) --
        # so a rewritten .arch.json or a renamed registry entry can
        # never serve a record simulated on different hardware.
        # Fingerprints are memoised per process, so this costs one
        # kernel build per workload name and one hash per distinct
        # configuration.
        arch_fp = fingerprint_of_arch(config)
        if self.result_store is not None:
            # Keep the store's arch manifest complete: every
            # fingerprint a key embeds has its full description
            # alongside the records, so the query layer can resolve
            # `a<fp>` back to concrete hardware (e.g. latency filters
            # in `repro report`).  record_arch memoises per
            # fingerprint, so this is a set lookup on the hot path.
            self.result_store.record_arch(arch_fp, arch_to_dict(config))
        return (
            f"{workload}__{policy}__a{arch_fp}__{seed}"
            f"__k{workload_fingerprint(workload)}"
        )

    def request_key(self, request: SimRequest) -> str:
        return self._key(
            request.workload, request.policy, request.config, request.seed
        )

    def _legacy_key(self, request: SimRequest) -> str:
        """The pre-arch-fingerprint key format (migration shim).

        Earlier stores keyed configurations with the sha1-based
        ``_config_fingerprint``; :meth:`_load_or_migrate` probes this
        key on a miss so entries written before the arch-fingerprint
        change stay warm, and re-homes hits under the current format.
        """
        return (
            f"{request.workload}__{request.policy}__"
            f"{_config_fingerprint(request.config)}__{request.seed}"
            f"__k{workload_fingerprint(request.workload)}"
        )

    @staticmethod
    def _content_key(key: str, telemetry: SimTelemetry) -> str:
        """The key a freshly simulated record must be *stored* under.

        Normally identical to ``key``.  A file-backed kernel, though,
        can be rewritten between the caller's key computation and the
        (possibly pool-worker) execution; the worker reports what it
        actually simulated, and storing under that fingerprint keeps
        the persistent cache content-correct through the race.
        """
        fingerprint = telemetry.kernel_fingerprint
        if not fingerprint or key.endswith(f"__k{fingerprint}"):
            return key
        return f"{key.rsplit('__k', 1)[0]}__k{fingerprint}"

    def lookup(self, key: str, planned: bool = False) -> Optional[RunRecord]:
        """The cached record under ``key``, or ``None`` on a miss.

        The public read path (memory cache, then the result store):
        figure renderers and scripts consume warm records through this
        -- and through :meth:`results` for whole-store queries --
        instead of poking the runner's cache internals.

        A hit is charged to :attr:`stats` only when ``planned``: the
        read serves a grid point the runner was asked for (at plan
        time, or a single-flight follower's read-back).  Reading back
        a point already served -- every render-time read in
        ``normalized_sweep`` -- is free, so a cold sweep reports no
        hits and a warm one one per point.
        """
        if key in self._memory_cache:
            if planned:
                self.stats.memory_hits += 1
            return self._memory_cache[key]
        if self.result_store is None:
            return None
        payload = self.result_store.get(key)
        if payload is None:
            return None
        try:
            record = RunRecord(**payload)
        except TypeError:
            # Stale-schema entry (fields added/renamed since it was
            # written): treat as a miss.  The re-simulated record is
            # appended under the same key and shadows it; compaction
            # reclaims the dead bytes.
            return None
        if planned:
            self.stats.disk_hits += 1
        self._memory_cache[key] = record
        return record

    def results(self) -> Query:
        """A :class:`~repro.store.Query` over this runner's store.

        The sanctioned way to read everything this (or any concurrent)
        runner has persisted -- filters, projections, group-by and
        aggregations live on the query object.
        """
        if self.result_store is None:
            raise ValueError(
                "this Runner has no result store (cache_dir=None); "
                "construct it with a cache directory to query results"
            )
        return Query(self.result_store)

    def _load_or_migrate(self, key: str,
                         request: SimRequest) -> Optional[RunRecord]:
        """:meth:`lookup` of a planned point, falling back to the legacy
        key format.

        A record found only under the legacy key is re-homed: stored
        again under the current arch-fingerprint key, so the probe cost
        is paid once per entry and future runs (and other readers) see
        it at the canonical address.  The legacy entry itself is left
        in place -- the store is append-only and old readers may still
        address it.
        """
        record = self.lookup(key, planned=True)
        if record is not None:
            return record
        if self.result_store is None:
            return None
        payload = self.result_store.get(self._legacy_key(request))
        if payload is None:
            return None
        try:
            record = RunRecord(**payload)
        except TypeError:
            # Stale-schema legacy entry: a miss, same as in _load.
            return None
        self.stats.disk_hits += 1
        self._store(key, record)
        return record

    def _store(self, key: str, record: RunRecord) -> None:
        # Flushed immediately (not at merge time): anything stored here
        # survives a mid-sweep crash, which is what makes sweeps
        # resumable.
        self._memory_cache[key] = record
        if self.result_store is not None:
            payload = asdict(record)
            # Skip the append when the store already holds this exact
            # payload -- the subprocess/ssh workers flush their own
            # records into the same store, and re-appending them here
            # would only grow dead bytes.  A *different* payload is
            # still appended (it shadows stale-schema entries by
            # (seq, writer) rank).
            if self.result_store.get(key) != payload:
                self.result_store.put(key, payload)

    # -- simulation ---------------------------------------------------------

    def _note_front_end_builds(self, before) -> None:
        """Attribute kernel builds done while computing cache keys.

        Key computation fingerprints (and therefore may build) each
        workload in *this* process before any simulation runs; the
        per-request telemetry only sees builds inside the executing
        process, so without this the serial path would report the
        static front-end as free.
        """
        builds, seconds = BUILD_STATS.snapshot()
        self.stats.kernel_builds += builds - before[0]
        self.stats.kernel_build_seconds += seconds - before[1]

    def simulate(self, workload: str, policy: str, config: GPUConfig,
                 seed: int = 0) -> RunRecord:
        """Run (or fetch from cache) one simulation."""
        request = SimRequest(workload, policy, config, seed)
        before = BUILD_STATS.snapshot()
        key = self.request_key(request)
        self._note_front_end_builds(before)
        cached = self._load_or_migrate(key, request)
        if cached is not None:
            return cached
        record, telemetry = execute_request_with_telemetry(request)
        self.stats.simulated += 1
        self.stats.note_telemetry(telemetry)
        self._store(self._content_key(key, telemetry), record)
        return record

    def simulate_many(self, requests: Iterable[SimRequest],
                      jobs: Optional[int] = None) -> List[RunRecord]:
        """Run a whole grid of simulations, optionally in parallel.

        Requests are deduplicated (against each other and against the
        memory/disk cache) before dispatch; only genuine misses are
        simulated.  With ``jobs`` > 1 the misses run on a process pool.
        The returned list is aligned with ``requests`` and independent
        of completion order, so results are identical for any ``jobs``.

        Since the jobs layer (:mod:`repro.jobs`) was extracted this is
        a thin wrapper over ``plan -> execute -> merge``; the
        concurrent serving path drives the same three stages with
        progress and cancellation hooks.
        """
        from repro.jobs.plan import execute_plan, plan_requests

        plan = plan_requests(self, requests)
        execute_plan(self, plan, jobs=jobs)
        return plan.merge()

    def _probe_flushed(self, key: str) -> Optional[RunRecord]:
        """A record some worker already flushed to the store, or None.

        Counter-free on purpose: at dispatch time this key was a
        verified miss, so anything here now was simulated *during this
        sweep* by a worker that died (or timed out) before delivering
        -- it is accounted as a simulation, not a cache hit, by the
        caller.
        """
        if self.result_store is None:
            return None
        payload = self.result_store.get(key)
        if payload is None:
            return None
        try:
            record = RunRecord(**payload)
        except TypeError:
            return None
        return record

    def _absorb(self, key: str, record: RunRecord,
                telemetry: Optional[SimTelemetry], cached: bool,
                results: Dict[str, RunRecord]) -> None:
        """Fold one delivered grid point into results and counters.

        The ``key in results`` guard is what keeps ``stats.simulated``
        honest under retries: a chunk that times out but completes
        anyway, then succeeds on its retry, delivers some keys twice --
        they count (and store) exactly once.
        """
        if key in results:
            return
        results[key] = record
        self.stats.simulated += 1
        if telemetry is not None:
            self.stats.note_telemetry(telemetry)
            self._store(self._content_key(key, telemetry), record)
        else:
            # Served from a dead predecessor's flushed store entry
            # (cached=True): the simulation ran in this sweep but its
            # telemetry died with the worker.
            self._store(key, record)

    def _run_parallel(self, items: List[tuple], jobs: int,
                      results: Dict[str, RunRecord],
                      on_point=None, should_abort=None) -> None:
        """Fan ``(key, request)`` misses out over the selected backend.

        Records are stored (and flushed to the result store) as each
        chunk completes, so no completed work is ever lost.  Failed or
        hung chunks are retried with backoff, quarantined after
        exhausting their budget, and -- when the backend itself is
        broken -- the remainder runs serially in this process (see
        :mod:`repro.launchers.scheduler`), so the grid always
        completes; recovery actions land in :class:`RunnerStats`.

        ``on_point(key)`` observes every newly completed grid point as
        its chunk delivers (the job tracker's progress feed);
        ``should_abort`` is polled by the scheduler and the serial
        escape hatch, raising
        :class:`~repro.launchers.scheduler.SweepAborted` after flushed
        records are safe.
        """
        from repro.launchers import Chunk, make_launcher
        from repro.launchers.scheduler import (
            RetryPolicy,
            SweepAborted,
            run_chunks,
        )

        workers = min(jobs, len(items))
        chunks = [
            Chunk(id=index, items=list(chunk))
            for index, chunk in enumerate(_dispatch_chunks(items, workers))
        ]
        launcher = make_launcher(
            self.backend, store_dir=self.cache_dir, hosts=self.ssh_hosts
        )
        policy = RetryPolicy.from_env()

        def absorb(key, record, telemetry, cached) -> None:
            if key in results:
                return
            self._absorb(key, record, telemetry, cached, results)
            if on_point is not None:
                on_point(key)

        def on_done(chunk: Chunk, outcomes: list) -> None:
            for (key, _request), (record, telemetry, cached) in zip(
                chunk.items, outcomes
            ):
                absorb(key, record, telemetry, cached)

        def on_event(kind: str, chunk: Chunk) -> None:
            if kind == "retry":
                self.stats.chunk_retries += 1
            elif kind == "timeout":
                self.stats.chunk_timeouts += 1
            elif kind == "quarantine":
                self.stats.chunks_quarantined += 1
            elif kind == "degrade":
                self.stats.backend_degradations += 1
            elif kind == "restart":
                self.stats.pool_retries += 1

        def run_serial(rest: List[Chunk]) -> None:
            # Quarantined chunks and broken-backend remainders execute
            # here, in the orchestrating process: no worker identity,
            # so the fault harness never fires, and a genuinely
            # poisoned grid point raises its real traceback.  Records
            # a dead worker already flushed are served, not re-run.
            for chunk in rest:
                for key, request in chunk.items:
                    if key in results:
                        continue
                    if should_abort is not None and should_abort():
                        raise SweepAborted(
                            "sweep aborted during serial re-run; "
                            "completed points are flushed"
                        )
                    flushed = self._probe_flushed(key)
                    if flushed is not None:
                        absorb(key, flushed, None, True)
                        continue
                    record, telemetry = execute_request_with_telemetry(
                        request
                    )
                    absorb(key, record, telemetry, False)

        run_chunks(
            launcher, chunks, workers, policy,
            on_done=on_done, run_serial=run_serial, on_event=on_event,
            should_abort=should_abort,
        )

    # -- telemetry ----------------------------------------------------------

    def telemetry_summary(
            self, stats: Optional[RunnerStats] = None) -> Dict[str, object]:
        """Simulated-vs-host-time statistics for everything this runner
        actually simulated (cache hits contribute nothing).

        ``stats`` defaults to the runner's lifetime counters; pass a
        :meth:`RunnerStats.delta_since` slice to summarise one sweep of
        a long-lived runner (what :meth:`log_run` records).
        """
        if stats is None:
            stats = self.stats
        return {
            "simulations": stats.simulated,
            "cache_hits": stats.hits,
            "host_seconds": stats.host_seconds,
            "simulated_cycles": stats.simulated_cycles,
            "simulated_instructions": stats.simulated_instructions,
            "cycles_skipped": stats.cycles_skipped,
            "simulated_cycles_per_host_second":
                stats.simulated_cycles_per_host_second,
            "event_counts": dict(stats.event_counts),
            "kernel_builds": stats.kernel_builds,
            "kernel_build_seconds": stats.kernel_build_seconds,
            "compile_cache_hits": stats.compile_cache_hits,
            "compile_cache_misses": stats.compile_cache_misses,
            "compile_seconds": stats.compile_seconds,
            "chunk_retries": stats.chunk_retries,
            "chunk_timeouts": stats.chunk_timeouts,
            "chunks_quarantined": stats.chunks_quarantined,
            "backend_degradations": stats.backend_degradations,
        }

    def log_run(self, label: str) -> Optional[Dict[str, object]]:
        """Persist this runner's telemetry summary into the store.

        One JSONL entry under the store's ``runs/`` sidecar (written
        through the store, never by path), labelled so reports can say
        *which* sweep produced the numbers.  Telemetry is host-specific
        and advisory, which is why it lives beside -- not inside -- the
        deterministic record segments.  Returns the logged entry, or
        ``None`` when the runner has no store or nothing happened since
        the previous :meth:`log_run` worth recording (no simulations,
        no cache traffic, no fault recovery).

        Each entry covers only the activity **since the previous
        log_run** of this runner: reports sum entries, so a long-lived
        runner logging after every sweep (the serving path, or two
        ``simulate_many`` calls in one process) must not re-report the
        first sweep's counters inside the second entry.
        :meth:`telemetry_summary` keeps returning lifetime totals.
        """
        if self.result_store is None:
            return None
        delta = self.stats.delta_since(self._logged_stats)
        summary = self.telemetry_summary(delta)
        recovered = (delta.chunk_retries + delta.chunk_timeouts
                     + delta.chunks_quarantined + delta.backend_degradations)
        if not summary["simulations"] and not summary["cache_hits"] \
                and not recovered:
            return None
        entry: Dict[str, object] = {
            "label": label,
            "time": time.time(),
            "pool_retries": delta.pool_retries,
            "batch_requests": delta.batch_requests,
            "memory_hits": delta.memory_hits,
            "disk_hits": delta.disk_hits,
        }
        entry.update(summary)
        self.result_store.append_run_log(entry)
        self._logged_stats = self.stats.copy()
        return entry

    def render_telemetry(self) -> str:
        """One-paragraph human-readable version of the summary."""
        summary = self.telemetry_summary()
        events = summary["event_counts"]
        event_text = ", ".join(
            f"{kind}={count}" for kind, count in sorted(events.items())
        ) or "none"
        rate = summary["simulated_cycles_per_host_second"]
        text = (
            f"simulated {summary['simulations']} run(s) "
            f"({summary['cache_hits']} cache hit(s)): "
            f"{summary['simulated_cycles']} cycles "
            f"({summary['cycles_skipped']} skipped) in "
            f"{summary['host_seconds']:.2f}s host time "
            f"= {rate:,.0f} cycles/s; events: {event_text}; "
            f"static work: {summary['kernel_builds']} kernel build(s) in "
            f"{summary['kernel_build_seconds']:.2f}s, compile cache "
            f"{summary['compile_cache_hits']} hit(s)/"
            f"{summary['compile_cache_misses']} miss(es) in "
            f"{summary['compile_seconds']:.2f}s"
        )
        faults_survived = (
            summary["chunk_retries"] + summary["chunk_timeouts"]
            + summary["chunks_quarantined"]
            + summary["backend_degradations"]
        )
        if faults_survived:
            # Only rendered when something actually went wrong, so a
            # clean run's paragraph is unchanged.
            text += (
                f"; fault tolerance: {summary['chunk_retries']} chunk "
                f"retry(ies), {summary['chunk_timeouts']} timeout(s), "
                f"{summary['chunks_quarantined']} quarantined, "
                f"{summary['backend_degradations']} backend "
                "degradation(s)"
            )
        return text


def simulate_vs_baseline(runner: "Runner", workloads: Iterable[str],
                         policies: Iterable[str], config: GPUConfig,
                         jobs: Optional[int] = None):
    """Batch-simulate each workload under ``policies`` on ``config``
    plus the BL normalisation baseline (the grid shape shared by
    Figures 3, 9, 10 and the overhead accounting).

    Returns ``[(workload, baseline_record, policy_records), ...]`` with
    ``policy_records`` aligned with ``policies``.
    """
    workloads = list(workloads)
    policies = list(policies)
    base_config = baseline_config()
    grid = []
    for name in workloads:
        grid.append(SimRequest(name, "BL", base_config))
        grid.extend(SimRequest(name, policy, config) for policy in policies)
    records = runner.simulate_many(grid, jobs=jobs)
    width = 1 + len(policies)
    return [
        (
            name,
            records[width * index],
            records[width * index + 1:width * (index + 1)],
        )
        for index, name in enumerate(workloads)
    ]


# -- standard configurations --------------------------------------------------
#
# Thin conveniences over the architecture registry
# (repro.arch.registry): each resolves a built-in name and applies
# override deltas, so experiment code and user .arch.json files go
# through one resolution path and build byte-identical configurations.

def baseline_config(**overrides) -> GPUConfig:
    """The normalisation baseline: configuration #1 plus the 16KB the
    cached designs spend on their RFC (Section 5, "Comparison Points")."""
    return arch_config("maxwell-like", **overrides)


def table2_config(config_id: int, **overrides) -> GPUConfig:
    """Simulator configuration for a Table 2 design point."""
    from repro.power.tech import design
    design(config_id)       # keep the historical error for bad ids
    return arch_config(f"table2-{config_id}", **overrides)


def sweep_config(latency_multiple: float, arch="maxwell-like",
                 **overrides) -> GPUConfig:
    """Latency-sweep point (Figures 11-14): ``arch`` at the given
    relative MRF latency.  ``arch`` may be a registry name, a
    ``.arch.json`` path, or a :class:`GPUConfig`."""
    return arch_config(
        arch, mrf_latency_multiple=latency_multiple, **overrides
    )
