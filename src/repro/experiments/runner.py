"""Simulation runner: cache keys plus a store facade.

Every experiment reduces to "simulate workload X under policy P on
configuration C".  The runner centralises that: it computes each grid
point's content-addressed cache key, memoises results both in memory
and on disk, and returns slim :class:`RunRecord` objects.  The latency
sweeps of Figures 11-14 revisit the same grid points, so caching cuts
the full reproduction from thousands of simulations to a few hundred.

:meth:`Runner.simulate_many` takes a whole experiment grid of
:class:`SimRequest` objects and hands it to the batch pipeline in
:mod:`repro.jobs.plan`, which deduplicates it against the cache,
executes the misses (serially or on a :mod:`repro.launchers` pool),
charges every batch counter in :class:`RunnerStats`, and returns
records aligned with the input order, so ``jobs=N`` is bit-for-bit
equivalent to serial execution.

On-disk persistence lives in :mod:`repro.store`: a sharded,
append-only, crash-consistent result store addressed by the *full*
cache key, so naming is injective by construction.  Completed records
are flushed to the store as they arrive, so a sweep killed mid-run
resumes without re-simulating anything already flushed.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, Iterable, List, Optional

from repro.arch.config import GPUConfig
from repro.arch.registry import arch_config
from repro.arch.serialize import arch_to_dict, fingerprint_of_arch
from repro.store import Query, ResultStore
from repro.workloads import workload_fingerprint


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
    #: execution, and the record is stored under the content that
    #: produced it (see :func:`content_key`).
    kernel_fingerprint: str = ""
    # Static-work accounting for this run (the kernel builds it claimed
    # and its compile-cache deltas): how much host time went
    # into building/compiling rather than simulating, and whether the
    # compiled artifact came from the static-artifact cache.
    kernel_builds: int = 0
    kernel_build_seconds: float = 0.0
    compile_cache_hits: int = 0
    compile_cache_misses: int = 0
    compile_seconds: float = 0.0


def content_key(key: str, kernel_fingerprint: str) -> str:
    """The key a freshly simulated record must be *stored* under.

    Normally identical to ``key``.  A file-backed kernel, though, can
    be rewritten between the caller's key computation and the
    (possibly worker-side) execution; the execution reports the
    fingerprint of what it actually simulated, and storing under that
    fingerprint keeps the persistent cache content-correct through the
    race.
    """
    if not kernel_fingerprint or key.endswith(f"__k{kernel_fingerprint}"):
        return key
    return f"{key.rsplit('__k', 1)[0]}__k{kernel_fingerprint}"


@dataclass
class RunnerStats:
    """Cache/engine counters, exposed for tests and tooling."""

    memory_hits: int = 0
    disk_hits: int = 0
    simulated: int = 0
    batch_requests: int = 0
    batch_deduplicated: int = 0
    batch_dispatched: int = 0
    #: Times the process pool was torn down and rebuilt mid-grid
    #: (a broken or killed pool replaced).
    pool_retries: int = 0
    # Fault-tolerance counters (see repro.launchers.pool): every
    # recovery decision the pool's scheduling loop takes is visible
    # here, so a sweep that survived trouble *says so* in
    # telemetry_summary() and `repro report` instead of silently
    # absorbing it.  A dead worker that cannot be attributed to one
    # chunk charges no retry until a chunk dies running alone.
    chunk_retries: int = 0          # charged failures re-queued
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


class Runner:
    """Cached simulation front-end used by all experiments.

    ``cache_dir`` defaults to :func:`default_cache_dir` -- the one
    place ``LTRF_CACHE_DIR`` is honoured -- and names the root of the
    sharded :class:`~repro.store.ResultStore`; ``None`` disables
    on-disk persistence entirely.

    ``store`` hands in an already open store to use instead of opening
    one; ``cache_dir`` then defaults to its root.  The job tracker
    shares one instance across all its jobs this way, so its index is
    read from disk once, not once per job.  The caller owns (and
    closes) a store it hands in.
    """

    def __init__(self, cache_dir: Optional[str] = _DEFAULT_CACHE,
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
        self.result_store: Optional[ResultStore] = store
        self._memory_cache: Dict[str, RunRecord] = {}
        self.stats = RunnerStats()
        #: Counter snapshot at the last :meth:`log_run`, so run-log
        #: entries are per-sweep deltas (summable by reports) while
        #: ``self.stats`` keeps process-lifetime totals.
        self._logged_stats = RunnerStats()

    # -- cache plumbing -----------------------------------------------------

    def request_key(self, request: SimRequest) -> str:
        """The cache key of one grid point."""
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
        arch_fp = fingerprint_of_arch(request.config)
        if self.result_store is not None:
            # Keep the store's arch manifest complete: every
            # fingerprint a key embeds has its full description
            # alongside the records, so the query layer can resolve
            # `a<fp>` back to concrete hardware (e.g. latency filters
            # in `repro report`).  record_arch memoises per
            # fingerprint, so this is a set lookup on the hot path.
            self.result_store.record_arch(arch_fp,
                                          arch_to_dict(request.config))
        return (
            f"{request.workload}__{request.policy}__a{arch_fp}"
            f"__{request.seed}__k{workload_fingerprint(request.workload)}"
        )

    def lookup(self, key: str, planned: bool = False) -> Optional[RunRecord]:
        """The cached record under ``key``, or ``None`` on a miss.

        The public read path (memory cache, then the result store):
        figure renderers and scripts consume warm records through this
        -- and through :meth:`results` for whole-store queries --
        instead of poking the runner's cache internals.

        A hit is charged to :attr:`stats` only when ``planned``: the
        read serves a grid point the runner was asked for (at plan
        time, at a single-flight claim, or a follower's read-back).  Reading back
        a point already served -- every render-time read in
        ``normalized_sweep`` -- is free, so a cold sweep reports no
        hits and a warm one one per point.
        """
        if key in self._memory_cache:
            if planned:
                self.stats.memory_hits += 1
            return self._memory_cache[key]
        record = self.stored(key)
        if record is None:
            return None
        if planned:
            self.stats.disk_hits += 1
        self._memory_cache[key] = record
        return record

    def stored(self, key: str) -> Optional[RunRecord]:
        """The record the result store holds under ``key``, or ``None``.

        Reads the store alone: no memory cache, no counters.  The
        pipeline probes a planned miss with it before simulating, so a
        point some other writer flushed in the meantime is served.
        """
        if self.result_store is None:
            return None
        payload = self.result_store.get(key)
        if payload is None:
            return None
        try:
            return RunRecord(**payload)
        except TypeError:
            # Stale-schema entry (fields added/renamed since it was
            # written): treat as a miss.  The re-simulated record is
            # appended under the same key and shadows it; compaction
            # reclaims the dead bytes.
            return None

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

    def save(self, key: str, record: RunRecord) -> None:
        """Cache ``record`` under ``key`` in memory and in the store.

        Flushed immediately (not at merge time): anything saved here
        survives a mid-sweep crash, which is what makes sweeps
        resumable.
        """
        self._memory_cache[key] = record
        if self.result_store is not None:
            payload = asdict(record)
            # Skip the append when the store already holds this exact
            # payload -- the serial path absorbs records its stored()
            # probe found (another writer flushed them), and
            # re-appending them here would only grow dead bytes.  A
            # *different* payload is still appended (it shadows
            # stale-schema entries by (seq, writer) rank).
            if self.result_store.get(key) != payload:
                self.result_store.put(key, payload)

    # -- simulation ---------------------------------------------------------

    def simulate(self, workload: str, policy: str, config: GPUConfig,
                 seed: int = 0) -> RunRecord:
        """Run (or fetch from cache) one simulation: a one-point
        :meth:`simulate_many`."""
        return self.simulate_many(
            [SimRequest(workload, policy, config, seed)]
        )[0]

    def simulate_many(self, requests: Iterable[SimRequest],
                      jobs: Optional[int] = None) -> List[RunRecord]:
        """Run a whole grid of simulations, optionally in parallel.

        Requests are deduplicated (against each other and against the
        memory/disk cache) before dispatch; only genuine misses are
        simulated.  With ``jobs`` > 1 the misses run on a process
        pool.  The returned list is aligned with ``requests`` and
        independent of completion order, so results are identical for
        any ``jobs``.  The stages, and every counter they charge, live
        in :mod:`repro.jobs.plan`; the job tracker drives the same
        stages with progress and cancellation hooks.
        """
        from repro.jobs.plan import execute_plan, plan_requests

        plan = plan_requests(self, requests)
        execute_plan(self, plan, jobs=jobs)
        return plan.merge()

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
