"""Job lifecycle and single-flight orchestration for concurrent sweeps.

The :class:`JobTracker` is what turns the plan/execute/merge stages
into a serving substrate: every submitted :class:`JobSpec` becomes a
:class:`Job` with an observable lifecycle --

    queued -> running -> done
                      -> partial   (cancelled/aborted; flushed records
                                    survive, resume by re-submitting)
                      -> failed    (the sweep raised)

-- progress counters fed from the scheduler's per-point callbacks, and
cooperative cancellation.

**Single-flight** is the stampede guard the store alone cannot give:
the store dedupes *completed* work, but N identical submissions
arriving together would all see a miss and simulate N times.  The
tracker registers every in-flight cache key; the first job to claim a
key executes it, concurrent jobs needing the same key execute their
own claims first and then *wait* for the owner's release.  The tracker
only claims keys: each claimed key goes through
:func:`~repro.jobs.plan.execute_plan`, whose store probe serves a key
someone already flushed as a hit and simulates it otherwise.  So a
waiter that claims the key after the owner's flush reads it back as a
hit, and run-log telemetry shows exactly one simulation per unique
point no matter how many identical jobs were in flight.  If an owner
dies or is cancelled before flushing, the waiter's claim finds no
record and simulates the key itself, so single-flight never turns one
job's failure into everyone's.

Each job executes on its own :class:`Runner` (thread-confined), so
per-job telemetry is a natural delta; cross-job dedup flows entirely
through the store plus the flight registry.  All those runners share
one thread-safe :class:`~repro.store.ResultStore` instance, which the
tracker opens when it is built: one database connection and one memo
of decoded records serve every job for the tracker's life, and records
other processes write still show up on the next miss.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict
from typing import Callable, Dict, List, Optional, Sequence

from repro.experiments.runner import Runner
from repro.jobs.plan import JobPlan, execute_plan, plan_requests
from repro.jobs.spec import JobSpec
from repro.launchers import SweepAborted
from repro.store import ResultStore

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
PARTIAL = "partial"
FAILED = "failed"

#: Every observable job state, in lifecycle order.
JOB_STATES = (QUEUED, RUNNING, DONE, PARTIAL, FAILED)

#: How long a waiter sleeps between owner-flush checks (also the
#: cancellation poll cadence while waiting).
_WAIT_POLL_SECONDS = 0.05


class UnknownJobError(KeyError):
    """No job under that id (the HTTP 404 of the service)."""

    def __init__(self, job_id: str) -> None:
        super().__init__(job_id)
        self.job_id = job_id

    def __str__(self) -> str:
        return f"unknown job {self.job_id!r}"


class Job:
    """One tracked sweep: spec, lifecycle state, progress, results.

    Mutated only by the tracker (and the single thread executing it);
    readers take :meth:`snapshot` for a JSON-safe consistent view.
    """

    def __init__(self, job_id: str, spec: JobSpec) -> None:
        self.id = job_id
        self.spec = spec
        self.state = QUEUED
        self.created = time.time()
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        self.error = ""
        self.resume_hint = ""
        #: total: requests in the grid; unique: after dedup; hits:
        #: served from the store at plan or execute time; executed:
        #: misses this job simulated; waited: misses served by another
        #: in-flight job's flush.
        self.progress: Dict[str, int] = {
            "total": 0, "unique": 0, "hits": 0, "executed": 0,
            "waited": 0,
        }
        self.telemetry: Optional[Dict[str, object]] = None
        #: Rendered sweep table (CLI-identical for single-workload
        #: jobs); set when the job completes.
        self.table: Optional[str] = None
        #: RunRecord payload dicts aligned with ``spec.to_requests()``.
        self.records: Optional[List[dict]] = None
        #: Store keys of the job's grid (deduplicated, plan order);
        #: how ``GET /report/<id>`` scopes the store to this job.
        self.keys: Optional[List[str]] = None
        self._cancel = threading.Event()
        self._finished_event = threading.Event()

    def cancelled(self) -> bool:
        return self._cancel.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job reaches a terminal state."""
        return self._finished_event.wait(timeout)

    def snapshot(self) -> Dict[str, object]:
        """JSON-serialisable view of the job (what ``GET /jobs/<id>``
        returns)."""
        view: Dict[str, object] = {
            "id": self.id,
            "state": self.state,
            "spec": self.spec.to_dict(),
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "progress": dict(self.progress),
            "error": self.error,
            "resume_hint": self.resume_hint,
            "cancelled": self.cancelled(),
        }
        if self.telemetry is not None:
            view["telemetry"] = self.telemetry
        if self.table is not None:
            view["table"] = self.table
        if self.records is not None:
            view["records"] = self.records
        return view


class _FlightRegistry:
    """Per-cache-key single-flight bookkeeping (process-wide per
    tracker)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._flights: Dict[str, tuple] = {}    # key -> (Event, owner)

    def claim(self, keys: Sequence[str],
              owner: str) -> tuple:
        """Partition ``keys`` into (owned, followed) atomically."""
        owned: List[str] = []
        followed: List[str] = []
        with self._lock:
            for key in keys:
                if key in self._flights:
                    followed.append(key)
                else:
                    self._flights[key] = (threading.Event(), owner)
                    owned.append(key)
        return owned, followed

    def release(self, key: str, owner: str) -> None:
        """Drop ``owner``'s claim and wake every waiter.  Idempotent;
        a release by a non-owner is ignored."""
        with self._lock:
            flight = self._flights.get(key)
            if flight is not None and flight[1] == owner:
                del self._flights[key]
                flight[0].set()

    def watch(self, key: str) -> Optional[threading.Event]:
        """The in-flight event for ``key``, or None if nobody owns it."""
        with self._lock:
            flight = self._flights.get(key)
            return flight[0] if flight is not None else None

    def in_flight(self) -> int:
        with self._lock:
            return len(self._flights)


class JobTracker:
    """Submit, execute, observe and cancel sweep jobs over one store.

    Construction opens (and if need be creates) the store at
    ``store_dir`` as :attr:`store`.  ``runner_factory`` builds the
    per-job :class:`Runner`; the default hands every job that one
    store, which is what makes the store the cross-job dedup substrate.
    ``execute`` is thread-safe and blocking -- the HTTP service calls
    it on worker threads; synchronous callers use :meth:`run`.
    :meth:`close` closes the shared store once the jobs have finished.
    """

    def __init__(self, store_dir: str,
                 runner_factory: Optional[Callable[[JobSpec], Runner]]
                 = None) -> None:
        self.store_dir = store_dir
        #: The one store instance every job (and the service's queries)
        #: reads and writes.
        self.store = ResultStore(store_dir)
        self._runner_factory = runner_factory or (
            lambda spec: Runner(store=self.store)
        )
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._lock = threading.Lock()
        self._counter = 0
        self._flights = _FlightRegistry()

    def close(self) -> None:
        """Close the shared store's connection; call once the jobs have
        finished."""
        self.store.close()

    # -- lifecycle ----------------------------------------------------------

    def submit(self, spec: JobSpec) -> Job:
        """Validate and enqueue a job (state ``queued``).

        Raises :class:`~repro.jobs.spec.JobSpecError` on a spec that
        could never run; nothing is enqueued in that case.
        """
        spec.validate()
        with self._lock:
            self._counter += 1
            job = Job(f"job-{self._counter:04d}", spec)
            self._jobs[job.id] = job
            self._order.append(job.id)
        return job

    def get(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJobError(job_id)
        return job

    def jobs(self) -> List[Job]:
        """Every tracked job, in submission order."""
        with self._lock:
            return [self._jobs[job_id] for job_id in self._order]

    def state_counts(self) -> Dict[str, int]:
        counts = {state: 0 for state in JOB_STATES}
        for job in self.jobs():
            counts[job.state] += 1
        return counts

    def cancel(self, job_id: str) -> Job:
        """Request cooperative cancellation.

        A running job finishes its current grid point, flushes
        everything completed, and lands in ``partial`` with a resume
        hint; a queued job aborts as soon as its executor picks it up.
        """
        job = self.get(job_id)
        job._cancel.set()
        return job

    def cancel_all(self) -> List[Job]:
        """Cancel every job not yet in a terminal state (the graceful
        drain used on service shutdown)."""
        cancelled = []
        for job in self.jobs():
            if job.state in (QUEUED, RUNNING):
                job._cancel.set()
                cancelled.append(job)
        return cancelled

    def run(self, spec: JobSpec) -> Job:
        """Submit and execute synchronously (the in-process path)."""
        return self.execute(self.submit(spec).id)

    # -- execution ----------------------------------------------------------

    def execute(self, job_id: str) -> Job:
        """Run a queued job to a terminal state; returns the job.

        Blocking; meant for a worker thread.  Executing a job that
        already left ``queued`` is a no-op (idempotent under double
        dispatch).
        """
        job = self.get(job_id)
        with self._lock:
            if job.state != QUEUED:
                return job
            job.state = RUNNING
        job.started = time.time()
        runner: Optional[Runner] = None
        try:
            runner = self._runner_factory(job.spec)
            self._execute(job, runner)
            job.state = DONE
        except SweepAborted as abort:
            job.state = PARTIAL
            job.error = str(abort)
            flushed = job.progress["hits"] + job.progress["executed"] \
                + job.progress["waited"]
            job.resume_hint = (
                f"{flushed} of {job.progress['unique'] or '?'} unique "
                f"point(s) are flushed to {self.store_dir}; re-submit the "
                "same spec to resume from the store"
            )
        except Exception as error:     # noqa: BLE001 - job boundary
            job.state = FAILED
            job.error = f"{type(error).__name__}: {error}"
        finally:
            try:
                if runner is not None:
                    label = job.spec.label or job.spec.describe()
                    runner.log_run(f"{job.id}: {label}")
                    job.telemetry = runner.telemetry_summary()
            except Exception as error:  # noqa: BLE001 - never block waiters
                if not job.error:
                    job.error = (f"run-log write failed: "
                                 f"{type(error).__name__}: {error}")
            finally:
                job.finished = time.time()
                job._finished_event.set()
        return job

    def _execute(self, job: Job, runner: Runner) -> None:
        spec = job.spec
        if job.cancelled():
            raise SweepAborted("cancelled before execution started")
        requests = spec.to_requests()
        plan = plan_requests(runner, requests)
        job.keys = list(dict.fromkeys(plan.keys))
        job.progress.update(
            total=len(requests),
            unique=plan.unique_points,
            hits=plan.store_hits,
        )

        def should_abort() -> bool:
            return job.cancelled()

        owned, followed = self._flights.claim(list(plan.pending), job.id)
        try:
            # A key another job flushed and released between our plan
            # and our claim is served by execute_plan's probe: a hit.
            if owned:
                execute_plan(
                    runner, plan, jobs=spec.jobs,
                    pending={key: plan.pending[key] for key in owned},
                    on_point=self._progress(job, "hits"),
                    should_abort=should_abort,
                )
        finally:
            # Wake waiters for anything we claimed but never flushed
            # (abort/failure); they claim it and probe for themselves.
            for key in owned:
                self._flights.release(key, job.id)
        for key in followed:
            self._follow(job, runner, plan, key, should_abort)

        records = plan.merge()
        job.records = [asdict(record) for record in records]
        job.table = self._render_table(runner, spec)

    def _progress(self, job: Job,
                  served: str) -> Callable[[str, bool], None]:
        """The ``on_point`` feed of one :func:`execute_plan` call: a
        simulated key counts as ``executed``, a key the store served as
        ``served``; either way the job's claim on it is released."""
        def on_point(key: str, simulated: bool) -> None:
            job.progress["executed" if simulated else served] += 1
            self._flights.release(key, job.id)
        return on_point

    def _follow(self, job: Job, runner: Runner, plan: JobPlan,
                key: str, should_abort: Callable[[], bool]) -> None:
        """Resolve one key another in-flight job owns.

        Waits for the owner's release, claims the key and executes it
        here.  The execution's store probe serves the owner's flush as
        ``waited`` (a hit -- the single-flight accounting that keeps
        "one simulation per unique point" true in run logs); if the
        owner vanished without flushing, it simulates the key.
        """
        while True:
            if should_abort():
                raise SweepAborted(
                    f"cancelled while waiting for in-flight point {key}"
                )
            event = self._flights.watch(key)
            if event is not None and not event.wait(_WAIT_POLL_SECONDS):
                continue        # still in flight; re-check cancellation
            owned, _ = self._flights.claim([key], job.id)
            if owned:
                try:
                    execute_plan(
                        runner, plan, pending={key: plan.pending[key]},
                        on_point=self._progress(job, "waited"),
                        should_abort=should_abort,
                    )
                finally:
                    self._flights.release(key, job.id)
                return
            # Somebody else claimed it in the gap: wait again.

    def _render_table(self, runner: Runner, spec: JobSpec) -> str:
        """The job's sweep table, rendered from warm cache lookups.

        Single-workload jobs render byte-identically to the CLI
        ``sweep`` stdout (same helper); multi-workload jobs get one
        labelled section per workload.
        """
        from repro.experiments.latency_tolerance import render_sweep_table

        overrides = dict(spec.overrides)
        sections = []
        for workload in spec.workloads:
            table = render_sweep_table(
                runner, workload, spec.policies, spec.archs,
                grid=spec.grid, seed=spec.seed, **overrides
            )
            if len(spec.workloads) > 1:
                table = f"[{workload}]\n{table}"
            sections.append(table)
        return "\n\n".join(sections)

    # -- introspection ------------------------------------------------------

    def in_flight_keys(self) -> int:
        """Cache keys currently claimed by some executing job."""
        return self._flights.in_flight()
