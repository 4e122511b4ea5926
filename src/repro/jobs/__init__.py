"""Job-orchestration layer: the one owner of the batch pipeline.

The submit -> dedup -> chunk -> launch -> merge pipeline lives here, in
stages any caller can drive; :meth:`Runner.simulate_many` delegates to
it, and the runner itself keeps only key computation and a store
facade:

* :mod:`repro.jobs.spec` -- :class:`JobSpec`, a declarative sweep
  description (workloads x policies x architectures x latency grid
  plus seed and worker count) that serialises to/from JSON, which is
  what the HTTP service accepts.
* :mod:`repro.jobs.plan` -- ``plan_requests`` resolves a request list
  against the store (hits served immediately), ``execute_plan`` runs
  the misses serially or chunked over a process pool, with
  optional progress/cancellation hooks, and ``JobPlan.merge`` returns
  records aligned with the request order.  Every batch counter is
  charged here.
* :mod:`repro.jobs.tracker` -- :class:`JobTracker`, the concurrent
  serving substrate: job lifecycle (queued/running/partial/done/
  failed), per-cache-key single-flight so identical in-flight
  submissions trigger one simulation, progress counters fed from the
  scheduler callbacks, and cooperative cancellation that keeps every
  flushed record.
"""

from repro.jobs.plan import JobPlan, execute_plan, plan_requests
from repro.jobs.spec import JobSpec, JobSpecError
from repro.jobs.tracker import (
    JOB_STATES,
    Job,
    JobTracker,
    UnknownJobError,
)

__all__ = [
    "JOB_STATES",
    "Job",
    "JobPlan",
    "JobSpec",
    "JobSpecError",
    "JobTracker",
    "UnknownJobError",
    "execute_plan",
    "plan_requests",
]
