"""HTTP-agnostic request handling for the simulation service.

:class:`ServiceApp` is the whole service minus the sockets: a routing
table from ``(method, path, params, body)`` to a plain
:class:`Response`.  Keeping it synchronous and transport-free means

* the HTTP server (:mod:`repro.service.server`) stays a thin shell
  -- the stdlib parses each request on its connection's own thread,
  which runs :meth:`ServiceApp.handle` and writes the response back;
* tests drive every route as a direct function call, no sockets.

Routes::

    GET    /healthz            liveness + job-state counts
    POST   /sweeps             submit a JobSpec (``?wait=1`` blocks)
    GET    /jobs               every job, light snapshots
    GET    /jobs/<id>          full snapshot (records, table, telemetry)
    GET    /jobs/<id>/table    the rendered sweep table, text/plain
                               (byte-identical to CLI ``sweep`` stdout)
    DELETE /jobs/<id>          cooperative cancellation
    GET    /results            store rows through the query API filters
    GET    /report/<id>        the analysis HTML report, scoped to the
                               job's grid keys

Submissions execute on the app's own worker pool (not on request
threads), so the number of concurrent sweeps stays bounded however
many clients wait.  Jobs and the read routes share the store the
tracker opened at construction, so a query reads records other
requests already decoded from its memo, and every query derives from
one base :class:`Query`, so each recorded architecture is resolved
once for the app's lifetime.
"""

from __future__ import annotations

import json
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Mapping

from repro.jobs.spec import JobSpec, JobSpecError
from repro.jobs.tracker import (
    QUEUED,
    RUNNING,
    Job,
    JobTracker,
    UnknownJobError,
)
from repro.store.query import Query
from repro.store.result_store import SEED_RANGE


@dataclass(frozen=True)
class Response:
    """One transport-free HTTP response: status, media type, text."""

    status: int
    content_type: str
    body: str


def _json_response(status: int, payload) -> Response:
    return Response(status, "application/json",
                    json.dumps(payload, sort_keys=True) + "\n")


def _error(status: int, message: str) -> Response:
    return _json_response(status, {"error": message})


_DRAINING = _error(503, "service is draining; resubmit after restart "
                        "(completed points are in the store)")


def _truthy(params: Mapping[str, str], name: str) -> bool:
    return params.get(name, "").lower() in ("1", "true", "yes", "on")


def _light_snapshot(job: Job) -> Dict[str, object]:
    """A job snapshot without the bulky fields (records/table), for
    the ``GET /jobs`` listing."""
    view = job.snapshot()
    view.pop("records", None)
    view.pop("table", None)
    return view


class ServiceApp:
    """Route service requests over one :class:`JobTracker` and store.

    ``job_workers`` bounds how many submitted sweeps execute
    concurrently; further submissions queue in order.  All state is
    thread-safe -- the server calls :meth:`handle` from one thread per
    request.  Construction opens (and if need be creates) the store at
    ``store_dir``, raising :class:`~repro.store.StoreError` or
    :class:`OSError` on a directory that cannot be one.
    """

    def __init__(self, store_dir: str, job_workers: int = 2) -> None:
        self.store_dir = store_dir
        self.tracker = JobTracker(store_dir)
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, job_workers),
            thread_name_prefix="sweep-job",
        )
        self._closed = threading.Event()
        #: Held across the draining check and both submits, and by
        #: :meth:`drain` to close, so a job is admitted whole or not.
        self._admission = threading.Lock()
        #: Every read route derives its query from this one, so they
        #: share its latency memo.
        self._query = Query(self.tracker.store)

    # -- dispatch -----------------------------------------------------------

    def handle(self, method: str, path: str,
               params: Mapping[str, str], body: bytes) -> Response:
        """Route one request; never raises (unexpected errors -> 500)."""
        try:
            return self._route(method, path, params, body)
        except UnknownJobError as error:
            return _error(404, str(error))
        except JobSpecError as error:
            return _error(400, str(error))
        except Exception as error:      # noqa: BLE001 - service boundary
            return _error(500, f"{type(error).__name__}: {error}")

    def _route(self, method: str, path: str,
               params: Mapping[str, str], body: bytes) -> Response:
        if path != "/" and path.endswith("/"):
            path = path.rstrip("/")
        parts = [part for part in path.split("/") if part]
        if path == "/healthz":
            return self._get_only(method, lambda: self._healthz())
        if path == "/sweeps":
            if method != "POST":
                return _error(405, "use POST /sweeps to submit a job")
            return self._submit(params, body)
        if path == "/jobs":
            return self._get_only(method, lambda: _json_response(200, {
                "jobs": [_light_snapshot(job)
                         for job in self.tracker.jobs()],
            }))
        if len(parts) == 2 and parts[0] == "jobs":
            if method == "GET":
                return _json_response(
                    200, self.tracker.get(parts[1]).snapshot()
                )
            if method == "DELETE":
                job = self.tracker.cancel(parts[1])
                return _json_response(200, _light_snapshot(job))
            return _error(405, f"{method} not supported on {path}")
        if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "table":
            return self._get_only(
                method, lambda: self._job_table(parts[1])
            )
        if path == "/results":
            return self._get_only(method, lambda: self._results(params))
        if len(parts) == 2 and parts[0] == "report":
            return self._get_only(method, lambda: self._report(parts[1]))
        return _error(404, f"no route for {method} {path}")

    @staticmethod
    def _get_only(method: str, responder) -> Response:
        if method != "GET":
            return _error(405, f"{method} not supported here")
        return responder()

    # -- handlers -----------------------------------------------------------

    def _healthz(self) -> Response:
        return _json_response(200, {
            "status": "draining" if self._closed.is_set() else "ok",
            "store": self.store_dir,
            "jobs": self.tracker.state_counts(),
            "in_flight_keys": self.tracker.in_flight_keys(),
        })

    def _submit(self, params: Mapping[str, str], body: bytes) -> Response:
        if self._closed.is_set():
            return _DRAINING
        try:
            payload = json.loads(body.decode("utf-8") or "null")
        except (UnicodeDecodeError, ValueError) as error:
            return _error(400, f"body is not valid JSON: {error}")
        # Validation can build kernels, so it stays outside the lock.
        spec = JobSpec.from_dict(payload)
        with self._admission:
            if self._closed.is_set():
                return _DRAINING
            job = self.tracker.submit(spec)
            self._executor.submit(self.tracker.execute, job.id)
        if _truthy(params, "wait"):
            job.wait()
            return _json_response(200, job.snapshot())
        return _json_response(202, _light_snapshot(job))

    def _job_table(self, job_id: str) -> Response:
        job = self.tracker.get(job_id)
        if job.table is None:
            return _error(409, f"job {job_id} is {job.state}; the table "
                               "exists once the job is done")
        return Response(200, "text/plain; charset=utf-8", job.table)

    def _results(self, params: Mapping[str, str]) -> Response:
        unknown = sorted(
            set(params) - {"workload", "policy", "seed", "min_latency",
                           "max_latency", "limit", "full"}
        )
        if unknown:
            return _error(400, f"unknown filter(s): {', '.join(unknown)}")
        try:
            seed = int(params["seed"]) if "seed" in params else None
            min_latency = float(params["min_latency"]) \
                if "min_latency" in params else None
            max_latency = float(params["max_latency"]) \
                if "max_latency" in params else None
            limit = int(params["limit"]) if "limit" in params else None
        except ValueError as error:
            return _error(400, f"bad filter value: {error}")
        if limit is not None and limit < 0:
            return _error(400, f"limit must be >= 0, got {limit}")
        if seed is not None and seed not in SEED_RANGE:
            return _error(400, f"seed must be a signed 64-bit integer, "
                               f"got {seed}")
        records = self._query.where(
            workload=params.get("workload"),
            policy=params.get("policy"),
            seed=seed,
            min_latency=min_latency,
            max_latency=max_latency,
        ).records()
        rows = []
        for record in records[:limit] if limit is not None else records:
            row: Dict[str, object] = {
                "key": record.key,
                "workload": record.workload,
                "policy": record.policy,
                "arch_fingerprint": record.arch_fingerprint,
                "seed": record.seed,
                "latency": record.latency,
                "ipc": record.ipc,
            }
            if _truthy(params, "full"):
                row["payload"] = dict(record.payload)
            rows.append(row)
        return _json_response(200, {"count": len(records),
                                    "returned": len(rows),
                                    "records": rows})

    def _report(self, job_id: str) -> Response:
        from repro.analysis.report import build_report, render_html

        job = self.tracker.get(job_id)
        if job.state in (QUEUED, RUNNING) or job.keys is None:
            return _error(409, f"job {job_id} is {job.state}; the report "
                               "exists once the job has run")
        report = build_report(self._query.where(key_in=job.keys))
        if report.record_count == 0:
            return _error(404, f"no stored records for job {job_id}'s "
                               "grid (store compacted away?)")
        return Response(200, "text/html; charset=utf-8",
                        render_html(report))

    # -- shutdown -----------------------------------------------------------

    def drain(self) -> List[Job]:
        """Graceful shutdown: stop admitting, cancel, wait, report.

        Every queued/running job is cooperatively cancelled; running
        jobs finish their current grid point, flush what completed,
        and land in ``partial`` with a resume hint.  Returns the jobs
        that were still active when the drain started.
        """
        with self._admission:
            self._closed.set()
        active = self.tracker.cancel_all()
        self._executor.shutdown(wait=True)
        # Dispatched jobs are terminal now; a job no executor picked up
        # is queued, and executing it aborts at once (partial + hint).
        for job in active:
            self.tracker.execute(job.id)
        self.tracker.close()
        return active

    def close(self) -> None:
        """Immediate teardown for tests; :meth:`drain` is the graceful
        path."""
        with self._admission:
            self._closed.set()
        self._executor.shutdown(wait=False)
        self.tracker.close()
