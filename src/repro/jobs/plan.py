"""Plan / execute / merge: the batch pipeline every grid runs through.

:meth:`Runner.simulate_many` (and with it :meth:`Runner.simulate`) is
a thin wrapper over these stages, and the job tracker -- and through
it the HTTP service -- drives the same stages with progress and
cancellation hooks, so the CLI batch path and the serving path are one
pipeline, byte for byte: same counters, same store writes, same
chunking.  The runner only computes keys and fronts the store; every
batch counter in :class:`~repro.experiments.runner.RunnerStats` is
charged here.

* :func:`plan_requests` computes every request's store key, charges
  the batch counters, dedupes the grid against itself and the store,
  and splits it into resolved ``results`` (store hits, served
  immediately) and ``pending`` misses.
* :func:`execute_plan` runs misses -- in-process serially, or fanned
  out over a process pool for ``jobs > 1`` -- flushing each record to
  the store as it completes.  ``on_point(key, simulated)`` observes
  every grid point it resolves, simulated or served from the store
  (the tracker's progress feed); ``should_abort`` cancels
  cooperatively, raising :class:`~repro.launchers.SweepAborted` only
  after flushed records are safe.  A subset of the plan's pending map
  may be passed explicitly, which is how single-flight ownership
  partitions one plan's misses across concurrent jobs.
* :meth:`JobPlan.merge` returns records aligned with the original
  request order, independent of completion order.

Parallel misses run on a local process pool
(:func:`repro.launchers.pool.run_chunks`), which retries failed
chunks, charges a dead worker only to the chunk that caused it, kills
and reassigns chunks that blow the ``LTRF_CHUNK_TIMEOUT`` wall-clock
budget, quarantines chunks that exhaust their retry budget (they
re-run serially in this process, where a real poison shows its real
traceback), and degrades to serial in-process execution when the pool
itself keeps breaking -- so a sweep finishes late rather than never,
and every recovery action is counted.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

from repro.arch.serialize import arch_fingerprint_sans_latency
from repro.experiments.runner import (
    RunnerStats,
    RunRecord,
    Runner,
    SimRequest,
    content_key,
)
from repro.launchers import SweepAborted
from repro.launchers.worker import execute_request_with_telemetry
from repro.workloads.registry import BUILD_STATS


@dataclass
class JobPlan:
    """One planned grid: keys, resolved hits, and pending misses.

    ``keys`` is aligned with ``requests`` (duplicates included), which
    is what lets :meth:`merge` reconstruct the caller's order.
    ``results`` maps every resolved key to its record; ``pending``
    holds the deduplicated misses still to execute.
    """

    requests: List[SimRequest]
    keys: List[str]
    results: Dict[str, RunRecord] = field(default_factory=dict)
    pending: Dict[str, SimRequest] = field(default_factory=dict)
    #: Requests dropped as duplicates of an earlier grid point.
    deduplicated: int = 0

    @property
    def unique_points(self) -> int:
        return len(self.results) + len(self.pending)

    @property
    def store_hits(self) -> int:
        """Points the store served at plan time."""
        return len(self.requests) - self.deduplicated - len(self.pending)

    @property
    def complete(self) -> bool:
        return all(key in self.results for key in self.keys)

    def merge(self) -> List[RunRecord]:
        """Records aligned with the planned request order."""
        missing = [key for key in self.keys if key not in self.results]
        if missing:
            raise ValueError(
                f"plan is incomplete: {len(missing)} of "
                f"{len(self.keys)} point(s) unresolved (first: "
                f"{missing[0]})"
            )
        return [self.results[key] for key in self.keys]


def plan_requests(runner: Runner,
                  requests: Iterable[SimRequest]) -> JobPlan:
    """Resolve a request grid against the runner's store.

    Charges ``batch_requests``/``batch_deduplicated``/
    ``batch_dispatched``, one hit per point the store served (through
    :func:`_serve_stored`), and the kernel builds of the grid's
    workloads that no run has reported yet: key computation may build
    a workload in this process, and the CLI builds it even earlier to
    validate it, while a run's own counters only see builds inside the
    executing process.
    """
    requests = list(requests)
    keys = [runner.request_key(request) for request in requests]
    stats = runner.stats
    builds, seconds = BUILD_STATS.claim(
        request.workload for request in requests
    )
    stats.kernel_builds += builds
    stats.kernel_build_seconds += seconds
    stats.batch_requests += len(requests)

    plan = JobPlan(requests=requests, keys=keys)
    for key, request in zip(keys, requests):
        if key in plan.results or key in plan.pending:
            stats.batch_deduplicated += 1
            plan.deduplicated += 1
            continue
        if not _serve_stored(runner, plan.results, key):
            plan.pending[key] = request
    stats.batch_dispatched += len(plan.pending)
    return plan


def _serve_stored(runner: Runner, results: Dict[str, RunRecord], key: str,
                  on_point: Optional[Callable[[str, bool], None]] = None
                  ) -> bool:
    """Serve ``key`` from the store if it holds it; ``False`` if not.

    The one place a planned or pending grid point is served from the
    store: the record goes into ``results``, the runner charges one
    hit, and ``on_point`` hears ``(key, False)``.  Planning probes every
    point, and execution probes each pending one again before it would
    simulate, so a point another writer flushed after the plan is a
    hit wherever it is found, never a second simulation.
    """
    record = runner.lookup(key)
    if record is None:
        return False
    results[key] = record
    runner.stats.hits += 1
    if on_point is not None:
        on_point(key, False)
    return True


def execute_plan(runner: Runner, plan: JobPlan,
                 jobs: Optional[int] = None,
                 pending: Optional[Dict[str, SimRequest]] = None,
                 on_point: Optional[Callable[[str, bool], None]] = None,
                 should_abort: Optional[Callable[[], bool]] = None,
                 ) -> JobPlan:
    """Execute a plan's misses, flushing records as they complete.

    ``pending`` defaults to the whole plan's miss map; a single-flight
    owner passes just the subset it claimed.  Every point is probed
    against the store before it is simulated (:func:`_serve_stored`),
    so a point some concurrent writer completed between plan and
    execute is served as a hit, not re-simulated -- the store is the
    dedup substrate across processes and jobs.  With ``jobs > 1``
    every point is probed up front and what is left fans out over a
    process pool; otherwise, or when one point or none is left, points
    run serially in-process, each probed just before it would
    simulate.  ``on_point(key, simulated)`` hears every point this call
    resolves, a hit with ``simulated`` false.
    """
    if pending is None:
        pending = plan.pending
    items = [(key, request) for key, request in pending.items()
             if key not in plan.results]
    if jobs is not None and jobs > 1 and len(items) > 1:
        # Pool workers never read the store: probe before dispatch.
        items = [(key, request) for key, request in items
                 if not _serve_stored(runner, plan.results, key, on_point)]
        if len(items) > 1:
            _run_parallel(runner, items, jobs, plan.results, on_point,
                          should_abort)
            return plan
    _run_serial(runner, items, plan.results, on_point, should_abort)
    return plan


def absorb(runner: Runner, results: Dict[str, RunRecord], key: str,
           record: RunRecord, kernel_fingerprint: str,
           stats: RunnerStats) -> bool:
    """Fold one simulated grid point -- what
    :func:`~repro.launchers.worker.execute_request_with_telemetry`
    returns for it -- into ``results``, the runner's counters and its
    store; ``False`` if ``key`` was already delivered.

    ``stats`` is the run's own :class:`RunnerStats` (``simulated=1``
    and its counters), added to the runner's.  The ``key in results``
    guard is what keeps ``stats.simulated`` honest under retries: a
    chunk that times out but completes anyway, then succeeds on its
    retry, delivers some keys twice -- they count (and store) exactly
    once.  The record is put at once, not at merge time, under the
    kernel content the run simulated (:func:`content_key`): anything
    delivered survives a mid-sweep crash, which is what makes sweeps
    resumable.
    """
    if key in results:
        return False
    results[key] = record
    runner.stats.add(stats)
    runner.result_store.put(content_key(key, kernel_fingerprint),
                            asdict(record))
    return True


def _run_serial(runner: Runner, items: List[tuple],
                results: Dict[str, RunRecord], on_point, should_abort
                ) -> None:
    """Run ``(key, request)`` misses one at a time in this process.

    Each key is probed against the store just before it would simulate
    (:func:`_serve_stored`), so a record a concurrent writer already
    flushed is served as a hit instead of simulated again.
    """
    for key, request in items:
        if key in results:
            continue
        if should_abort is not None and should_abort():
            done = sum(1 for k, _ in items if k in results)
            raise SweepAborted(
                f"sweep aborted after {done} of {len(items)} pending "
                "point(s); completed records are flushed"
            )
        if _serve_stored(runner, results, key, on_point):
            continue
        absorb(runner, results, key, *execute_request_with_telemetry(request))
        if on_point is not None:
            on_point(key, True)


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
               arch_fingerprint_sans_latency(request.config))
        by_row.setdefault(row, []).append(item)
    chunk_size = max(1, -(-len(items) // (workers * 4)))
    chunks = []
    for group in by_row.values():
        for start in range(0, len(group), chunk_size):
            chunks.append(group[start:start + chunk_size])
    return chunks


def _run_parallel(runner: Runner, items: List[tuple], jobs: int,
                  results: Dict[str, RunRecord], on_point, should_abort
                  ) -> None:
    """Fan ``(key, request)`` misses out over a local process pool.

    Records are stored (and flushed to the result store) as each
    chunk completes, so no delivered chunk is ever lost; a chunk
    whose worker dies re-runs whole.  Failed or hung chunks are
    retried, quarantined after exhausting their budget, and -- when
    the pool keeps breaking -- the remainder runs serially in this
    process, so the grid always completes; recovery actions land in
    the runner's stats.
    """
    # Imported here: the pool pulls in multiprocessing, which a CLI
    # start that simulates nothing in parallel should not pay for.
    from repro.launchers.pool import Chunk, RetryPolicy, run_chunks

    workers = min(jobs, len(items))
    chunks = [
        Chunk(id=index, items=list(chunk))
        for index, chunk in enumerate(_dispatch_chunks(items, workers))
    ]
    stats = runner.stats

    def on_done(chunk: Chunk, outcomes: list) -> None:
        for (key, _request), outcome in zip(chunk.items, outcomes):
            if absorb(runner, results, key, *outcome) \
                    and on_point is not None:
                on_point(key, True)

    def on_event(kind: str, chunk: Chunk) -> None:
        if kind == "retry":
            stats.chunk_retries += 1
        elif kind == "timeout":
            stats.chunk_timeouts += 1
        elif kind == "quarantine":
            stats.chunks_quarantined += 1
        elif kind == "degrade":
            stats.backend_degradations += 1
        elif kind == "restart":
            stats.pool_retries += 1

    def run_serial(rest: List[Chunk]) -> None:
        # Quarantined chunks and broken-pool remainders execute
        # here, in the orchestrating process: no worker identity, so
        # the fault harness never fires, and a genuinely poisoned grid
        # point raises its real traceback.
        _run_serial(runner, [item for chunk in rest for item in chunk.items],
                    results, on_point, should_abort)

    run_chunks(
        chunks, workers, RetryPolicy.from_env(),
        on_done=on_done, run_serial=run_serial, on_event=on_event,
        should_abort=should_abort,
    )
