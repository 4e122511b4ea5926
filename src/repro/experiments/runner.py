"""Simulation runner: cache keys plus a store facade.

Every experiment reduces to "simulate workload X under policy P on
configuration C".  The runner centralises that: it computes each grid
point's content-addressed cache key, fronts one result store that
holds every record (its memo of decoded payloads is the only record
cache), and returns slim :class:`RunRecord` objects.  The latency
sweeps of Figures 11-14 revisit the same grid points, so caching cuts
the full reproduction from thousands of simulations to a few hundred.

:meth:`Runner.simulate_many` takes a whole experiment grid of
:class:`SimRequest` objects and hands it to the batch pipeline in
:mod:`repro.jobs.plan`, which deduplicates it against the cache,
executes the misses (serially or on a :mod:`repro.launchers` pool),
charges every batch counter in :class:`RunnerStats`, and returns
records aligned with the input order, so ``jobs=N`` is bit-for-bit
equivalent to serial execution.

On-disk persistence lives in :mod:`repro.store`: a crash-consistent
result store on one SQLite file, addressed by the *full* cache key, so
naming is injective by construction.  Completed records are committed
to the store as they arrive, so a sweep killed mid-run resumes without
re-simulating anything already committed.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, Iterable, List, Optional

from repro.arch.config import GPUConfig
from repro.arch.registry import arch_config
from repro.arch.serialize import arch_fingerprint, arch_to_dict
from repro.store import SEED_RANGE, Query, ResultStore, check_workload_name
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
                "directory."
            )
        return configured
    return os.path.join(os.getcwd(), ".ltrf_cache")


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
    """Every counter of the batch pipeline, from the simulation to the
    report.

    One simulation reports its own counters as a ``RunnerStats`` with
    ``simulated=1``
    (:func:`repro.launchers.worker.execute_request_with_telemetry`),
    which :func:`repro.jobs.plan.absorb` folds in with :meth:`add`; the
    pipeline charges the rest.  :meth:`Runner.telemetry_summary`, the
    run log and ``repro report`` carry every counter under its
    :data:`LOGGED_COUNTERS` name, so a counter added here reaches all
    three with no other edit.  Counters stay out of :class:`RunRecord`:
    records must be byte-identical across engines and machines, while
    host time and event counts are run-specific.
    """

    simulated: int = 0
    #: Planned grid points the store served, at plan time or when
    #: execution probed a pending point before simulating it (a
    #: concurrent writer's flush, a single-flight owner's flush).
    #: Charged in one place, ``repro.jobs.plan._serve_stored``.
    hits: int = 0
    # Simulated-vs-host-time statistics of the runs simulated.
    host_seconds: float = 0.0
    simulated_cycles: int = 0
    simulated_instructions: int = 0
    cycles_skipped: int = 0
    event_counts: Dict[str, int] = field(default_factory=dict)
    # Static work (kernel builds + policy compiles), so sweeps can see
    # how much of their wall-clock is amortisable front-end work and
    # whether the compile cache earns its keep.
    kernel_builds: int = 0
    kernel_build_seconds: float = 0.0
    compile_cache_hits: int = 0
    compile_cache_misses: int = 0
    compile_seconds: float = 0.0
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
    backend_degradations: int = 0   # process pool abandoned for serial

    @property
    def simulated_cycles_per_host_second(self) -> float:
        if self.host_seconds <= 0.0:
            return 0.0
        return self.simulated_cycles / self.host_seconds

    @property
    def faults_survived(self) -> int:
        """Recovery moves of the pool's scheduling loop (a rebuilt pool
        aside); zero on a clean run."""
        return (self.chunk_retries + self.chunk_timeouts
                + self.chunks_quarantined + self.backend_degradations)

    def add(self, other: "RunnerStats") -> "RunnerStats":
        """Fold ``other``'s counters into these; returns ``self``."""
        for spec in fields(self):
            if spec.name == "event_counts":
                for kind, count in other.event_counts.items():
                    self.event_counts[kind] = (
                        self.event_counts.get(kind, 0) + count)
            else:
                setattr(self, spec.name, getattr(self, spec.name)
                        + getattr(other, spec.name))
        return self

    def copy(self) -> "RunnerStats":
        """An independent snapshot of every counter."""
        return RunnerStats().add(self)

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


#: Every scalar :class:`RunnerStats` counter, field name -> the name it
#: is logged under in :meth:`Runner.telemetry_summary`, the run log and
#: ``repro report`` (``simulated`` and ``hits`` read ``simulations``
#: and ``cache_hits`` there), in field order.
LOGGED_COUNTERS: Dict[str, str] = {
    spec.name: {"simulated": "simulations",
                "hits": "cache_hits"}.get(spec.name, spec.name)
    for spec in fields(RunnerStats) if spec.name != "event_counts"
}


class Runner:
    """Cached simulation front-end used by all experiments.

    A runner fronts exactly one :class:`~repro.store.ResultStore`, and
    the store's memo of decoded payloads is its only record cache:
    what a runner serves is what its store holds.  ``cache_dir`` names
    the store's root and defaults to :func:`default_cache_dir` -- the
    one place ``LTRF_CACHE_DIR`` is honoured.  A throwaway run passes a
    temporary directory.

    ``store`` hands in an already open store to use instead of opening
    one; ``cache_dir`` then defaults to its root.  The job tracker
    shares one instance across all its jobs this way, so its memo of
    decoded records serves every job.  The caller owns (and closes) a
    store it hands in.
    """

    def __init__(self, cache_dir: Optional[str] = None,
                 store: Optional[ResultStore] = None) -> None:
        if store is None:
            store = ResultStore(cache_dir if cache_dir is not None
                                else default_cache_dir())
        elif cache_dir is not None and cache_dir != store.root:
            raise ValueError(
                f"cache_dir {cache_dir!r} is not the root of the store "
                f"handed in ({store.root!r})"
            )
        self.cache_dir = store.root
        self.result_store = store
        self.stats = RunnerStats()
        #: Counter snapshot at the last :meth:`log_run`, so run-log
        #: entries are per-sweep deltas (summable by reports) while
        #: ``self.stats`` keeps process-lifetime totals.
        self._logged_stats = RunnerStats()

    # -- store plumbing -----------------------------------------------------

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
        arch_fp = arch_fingerprint(request.config)
        # Refused before anything is simulated: the store's seed
        # column holds a signed 64-bit integer, and its keys are UTF-8.
        if request.seed not in SEED_RANGE:
            raise ValueError(f"seed {request.seed} is not a signed "
                             "64-bit integer")
        check_workload_name(request.workload)
        # Keep the store's arch manifest complete: every fingerprint a
        # key embeds has its full description alongside the records,
        # so the query layer can resolve `a<fp>` back to concrete
        # hardware (e.g. latency filters in `repro report`).
        # record_arch memoises per fingerprint and builds the
        # description only for one it has not recorded, so this is a
        # set lookup on the hot path.
        self.result_store.record_arch(
            arch_fp, lambda: arch_to_dict(request.config))
        return (
            f"{request.workload}__{request.policy}__a{arch_fp}"
            f"__{request.seed}__k{workload_fingerprint(request.workload)}"
        )

    def lookup(self, key: str) -> Optional[RunRecord]:
        """The record the store holds under ``key``, or ``None``.

        The one read path: planning, the pre-simulation probe, figure
        renderers and scripts read records through this (and
        whole-store queries through :meth:`results`).  The store's memo
        serves a key already read or put; a miss reads the database,
        so a point another writer flushed in the meantime is served.

        A read charges no counter.  The batch pipeline serves a planned
        or pending grid point from the store through one helper in
        :mod:`repro.jobs.plan`, which counts its hit, so reading back a
        point already served -- every render-time read in
        ``normalized_sweep`` -- is free: a cold sweep reports no hits
        and a warm one one per point.
        """
        payload = self.result_store.get(key)
        if payload is None:
            return None
        try:
            return RunRecord(**payload)
        except TypeError:
            # A payload that does not build a RunRecord is a miss, just
            # as get() reads an undecodable one: the re-simulated record
            # is put under the same key and replaces it.
            return None

    def results(self) -> Query:
        """A :class:`~repro.store.Query` over this runner's store.

        The sanctioned way to read everything this (or any concurrent)
        runner has persisted -- filters and projections live on the
        query object.
        """
        return Query(self.result_store)

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
        store) before dispatch; only genuine misses are
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
        """Every :class:`RunnerStats` counter under its
        :data:`LOGGED_COUNTERS` name, ``event_counts``, and the derived
        ``simulated_cycles_per_host_second``.

        ``stats`` defaults to the runner's lifetime counters; pass a
        :meth:`RunnerStats.delta_since` slice to summarise one sweep of
        a long-lived runner (what :meth:`log_run` records).
        """
        if stats is None:
            stats = self.stats
        summary: Dict[str, object] = {
            LOGGED_COUNTERS.get(name, name): value
            for name, value in asdict(stats).items()
        }
        summary["simulated_cycles_per_host_second"] = (
            stats.simulated_cycles_per_host_second)
        return summary

    def log_run(self, label: str) -> Optional[Dict[str, object]]:
        """Persist this runner's telemetry summary into the store.

        One entry in the store's ``runs`` table, labelled so reports
        can say *which* sweep produced the numbers.  Telemetry is
        host-specific and advisory, which is why it lives beside -- not
        inside -- the deterministic records.  Returns the logged entry, or
        ``None`` when nothing happened since the previous
        :meth:`log_run` worth recording (no simulations, no cache
        traffic, no fault recovery).

        Each entry covers only the activity **since the previous
        log_run** of this runner: reports sum entries, so a long-lived
        runner logging after every sweep (the serving path, or two
        ``simulate_many`` calls in one process) must not re-report the
        first sweep's counters inside the second entry.
        :meth:`telemetry_summary` keeps returning lifetime totals.
        """
        delta = self.stats.delta_since(self._logged_stats)
        if not (delta.simulated or delta.hits or delta.faults_survived):
            return None
        entry: Dict[str, object] = {"label": label, "time": time.time()}
        entry.update(self.telemetry_summary(delta))
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
        if self.stats.faults_survived:
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
