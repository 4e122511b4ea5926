"""Tests for the transport-free service app: routing and responses."""

import json
import os
import threading
import time

import pytest

from repro.jobs import JobSpec
from repro.service import ServiceApp

SMALL = {"max_resident_warps": 8, "active_warps": 4}

SPEC = {
    "workloads": "btree",
    "policies": ["BL", "LTRF"],
    "grid": [1.0, 3.0],
    "overrides": SMALL,
}


@pytest.fixture
def app(tmp_path):
    app = ServiceApp(str(tmp_path), job_workers=1)
    yield app
    app.drain()
    app.close()


def body_of(response):
    return json.loads(response.body)


def submit_and_wait(app, spec=None):
    response = app.handle("POST", "/sweeps", {"wait": "1"},
                          json.dumps(spec or SPEC).encode())
    assert response.status == 200, response.body
    return body_of(response)


class TestRoutes:
    def test_healthz(self, app):
        response = app.handle("GET", "/healthz", {}, b"")
        assert response.status == 200
        payload = body_of(response)
        assert payload["status"] == "ok"
        assert set(payload["jobs"]) == {"queued", "running", "done",
                                        "partial", "failed"}

    def test_submit_wait_runs_to_done(self, app):
        snapshot = submit_and_wait(app)
        assert snapshot["state"] == "done"
        assert snapshot["progress"]["executed"] == 4
        assert len(snapshot["records"]) == 4
        assert "table" in snapshot

    def test_submit_async_returns_202(self, app):
        response = app.handle("POST", "/sweeps", {},
                              json.dumps(SPEC).encode())
        assert response.status == 202
        snapshot = body_of(response)
        assert snapshot["state"] in ("queued", "running")
        assert "records" not in snapshot
        app.tracker.get(snapshot["id"]).wait(timeout=120.0)

    def test_job_listing_and_detail(self, app):
        job_id = submit_and_wait(app)["id"]
        listing = body_of(app.handle("GET", "/jobs", {}, b""))
        assert [job["id"] for job in listing["jobs"]] == [job_id]
        assert "records" not in listing["jobs"][0]
        detail = body_of(app.handle("GET", f"/jobs/{job_id}", {}, b""))
        assert detail["state"] == "done"
        assert len(detail["records"]) == 4

    def test_table_is_text_plain(self, app):
        job_id = submit_and_wait(app)["id"]
        response = app.handle("GET", f"/jobs/{job_id}/table", {}, b"")
        assert response.status == 200
        assert response.content_type.startswith("text/plain")
        assert "tolerates" in response.body

    def test_table_before_done_is_conflict(self, app):
        job = app.tracker.submit(
            JobSpec.from_dict(SPEC)
        )
        response = app.handle("GET", f"/jobs/{job.id}/table", {}, b"")
        assert response.status == 409

    def test_cancel_via_delete(self, app):
        job = app.tracker.submit(
            JobSpec.from_dict(SPEC)
        )
        response = app.handle("DELETE", f"/jobs/{job.id}", {}, b"")
        assert response.status == 200
        assert body_of(response)["cancelled"] is True

    def test_results_filters(self, app):
        submit_and_wait(app)
        payload = body_of(app.handle("GET", "/results",
                                     {"policy": "BL"}, b""))
        assert payload["count"] == 2
        assert all(row["policy"] == "BL" for row in payload["records"])
        assert "payload" not in payload["records"][0]
        full = body_of(app.handle(
            "GET", "/results", {"policy": "BL", "limit": "1", "full": "1"},
            b"",
        ))
        assert full["count"] == 2 and full["returned"] == 1
        assert "ipc" in full["records"][0]["payload"]

    def test_report_is_html_scoped_to_the_job(self, app):
        job_id = submit_and_wait(app)["id"]
        submit_and_wait(app, dict(SPEC, seed=9))    # unrelated records
        response = app.handle("GET", f"/report/{job_id}", {}, b"")
        assert response.status == 200
        assert response.content_type.startswith("text/html")
        assert "<html" in response.body.lower()
        job = app.tracker.get(job_id)
        from repro.store.query import Query

        scoped = Query.open(app.store_dir).where(key_in=job.keys)
        assert scoped.count() == 4

    def test_report_needs_no_verify_pass(self, app, monkeypatch):
        """The report's store health comes from SQL counts; a request
        never reads every row of the store."""
        from repro.store import ResultStore

        job_id = submit_and_wait(app)["id"]

        def no_verify(store):
            raise AssertionError("GET /report ran a verify pass")

        monkeypatch.setattr(ResultStore, "verify", no_verify)
        assert app.handle("GET", f"/report/{job_id}", {}, b"").status == 200

    def test_wait_falsy_values_do_not_block(self, app):
        response = app.handle("POST", "/sweeps", {"wait": "0"},
                              json.dumps(SPEC).encode())
        assert response.status == 202
        app.tracker.get(body_of(response)["id"]).wait(timeout=120.0)


class TestErrors:
    def test_unknown_route_404(self, app):
        assert app.handle("GET", "/nope", {}, b"").status == 404

    def test_unknown_job_404(self, app):
        response = app.handle("GET", "/jobs/job-9999", {}, b"")
        assert response.status == 404
        assert "job-9999" in body_of(response)["error"]

    def test_wrong_method_405(self, app):
        assert app.handle("GET", "/sweeps", {}, b"").status == 405
        assert app.handle("PUT", "/jobs/job-0001", {}, b"").status == 405

    def test_bad_json_400(self, app):
        response = app.handle("POST", "/sweeps", {}, b"{nope")
        assert response.status == 400
        assert "JSON" in body_of(response)["error"]

    def test_bad_spec_400(self, app):
        response = app.handle(
            "POST", "/sweeps", {},
            json.dumps({"workloads": "btree", "polices": ["BL"]}).encode(),
        )
        assert response.status == 400
        assert "polices" in body_of(response)["error"]

    def test_workload_name_that_is_not_utf8_400(self, app):
        """JSON can carry a lone surrogate; no store key can."""
        response = app.handle(
            "POST", "/sweeps", {},
            json.dumps(dict(SPEC, workloads="bt\udcff.kernel.json")).encode(),
        )
        assert response.status == 400
        assert "not valid UTF-8" in body_of(response)["error"]
        assert app.tracker.jobs() == []

    def test_backend_key_400(self, app):
        """Sweeps always run on the process pool; a spec that still
        names a backend is a spec with an unknown key."""
        response = app.handle(
            "POST", "/sweeps", {},
            json.dumps(dict(SPEC, backend="local")).encode(),
        )
        assert response.status == 400
        assert body_of(response)["error"].startswith(
            "unknown job spec key(s): backend (expected a subset of ")
        assert app.tracker.jobs() == []

    @pytest.mark.parametrize("multiple", [0.5, float("inf"), float("nan")])
    def test_latency_below_one_or_not_finite_400(self, app, multiple):
        """A latency multiple the model refuses is refused at
        submission, even with ``wait=1``, not run as a failed job (JSON
        text carries infinity and NaN as ``Infinity`` and ``NaN``)."""
        body = json.dumps(dict(SPEC, grid=[multiple])).encode()
        response = app.handle("POST", "/sweeps", {"wait": "1"}, body)
        assert response.status == 400
        assert "grid must be" in body_of(response)["error"]
        assert app.tracker.jobs() == []

    @pytest.mark.parametrize("change, message", [
        ({"overrides": dict(SMALL, mrf_latency_multiple=2.0)},
         "overrides may not set mrf_latency_multiple: the grid sets the "
         "latency"),
        ({"jobs": (os.cpu_count() or 1) + 1},
         f"jobs must be at most {os.cpu_count() or 1}, the machine's CPU "
         f"count, got {(os.cpu_count() or 1) + 1}"),
    ], ids=["latency-override", "jobs-over-cpu-count"])
    def test_spec_the_grid_or_machine_cannot_run_400(self, app, change,
                                                     message):
        """A latency the grid already sets, or more worker processes
        than the machine has CPUs, is refused at submission, even with
        ``wait=1``: no job is listed and nothing runs."""
        body = json.dumps(dict(SPEC, **change)).encode()
        response = app.handle("POST", "/sweeps", {"wait": "1"}, body)
        assert response.status == 400
        assert message in body_of(response)["error"]
        assert app.tracker.jobs() == []

    def test_engine_field_400(self, app):
        """Jobs always run on the event engine; the field is gone."""
        response = app.handle(
            "POST", "/sweeps", {},
            json.dumps(dict(SPEC, engine="dense")).encode(),
        )
        assert response.status == 400
        assert "unknown job spec key(s): engine" in body_of(response)["error"]
        assert app.tracker.jobs() == []

    def test_unknown_results_filter_400(self, app):
        response = app.handle("GET", "/results", {"ipc": "2"}, b"")
        assert response.status == 400

    def test_bad_results_value_400(self, app):
        response = app.handle("GET", "/results", {"seed": "many"}, b"")
        assert response.status == 400

    def test_seed_outside_64_bits_400(self, app):
        """The store keeps a seed as a signed 64-bit integer, so a sweep
        or a results filter with a larger one is refused where it comes
        in, before anything is simulated or read."""
        response = app.handle(
            "POST", "/sweeps", {"wait": "1"},
            json.dumps(dict(SPEC, seed=2 ** 63)).encode(),
        )
        assert response.status == 400
        assert "seed must be a signed 64-bit integer" \
            in body_of(response)["error"]
        assert app.tracker.jobs() == []
        for seed in ("99999999999999999999", str(-2 ** 63 - 1)):
            response = app.handle("GET", "/results", {"seed": seed}, b"")
            assert response.status == 400
            assert "seed" in body_of(response)["error"]
        response = app.handle("GET", "/results", {"seed": str(2 ** 63 - 1)},
                              b"")
        assert response.status == 200
        assert body_of(response)["count"] == 0

    def test_negative_results_limit_400(self, app):
        response = app.handle("GET", "/results", {"limit": "-1"}, b"")
        assert response.status == 400
        assert "limit" in body_of(response)["error"]

    def test_report_before_run_is_conflict(self, app):
        job = app.tracker.submit(
            JobSpec.from_dict(SPEC)
        )
        assert app.handle("GET", f"/report/{job.id}", {}, b"").status == 409


class TestSingleFlight:
    def test_concurrent_identical_submissions_simulate_once(self, tmp_path):
        """Two identical POST /sweeps racing end as two done jobs with
        identical payloads, and the store's run logs account exactly
        one simulation per unique grid point."""
        from repro.store.query import Query

        app = ServiceApp(str(tmp_path), job_workers=2)
        try:
            results = [None, None]

            def post(slot):
                results[slot] = app.handle(
                    "POST", "/sweeps", {"wait": "1"},
                    json.dumps(SPEC).encode(),
                )

            threads = [threading.Thread(target=post, args=(slot,))
                       for slot in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)

            snapshots = [body_of(response) for response in results]
            assert [snap["state"] for snap in snapshots] == ["done", "done"]
            assert snapshots[0]["records"] == snapshots[1]["records"]
            assert snapshots[0]["table"] == snapshots[1]["table"]
            entries = Query.open(str(tmp_path)).run_history()
            assert sum(entry["simulations"] for entry in entries) == 4
        finally:
            app.drain()
            app.close()



class TestJobTelemetry:
    def test_hot_job_counts_one_hit_per_unique_point(self, app):
        """A job's telemetry charges the points its plan served; the
        table render reads them back for free."""
        cold = submit_and_wait(app)
        assert cold["telemetry"]["cache_hits"] == 0
        assert cold["telemetry"]["simulations"] == cold["progress"]["unique"]
        hot = submit_and_wait(app)
        assert hot["telemetry"]["simulations"] == 0
        assert hot["telemetry"]["cache_hits"] == hot["progress"]["unique"] \
            == 4

class TestSharedStore:
    def test_external_writer_visible_to_queries_and_jobs(self, app):
        """The app's one store index never serves a stale miss: records
        another writer stores after the index was loaded show up in
        GET /results, and a job over them is all hits."""
        from repro.experiments import Runner, sweep_requests

        submit_and_wait(app)
        # The query reads every record into the app's store memo.
        assert body_of(app.handle("GET", "/results", {}, b""))["count"] == 4
        external = Runner(cache_dir=app.store_dir)
        external.simulate_many(
            sweep_requests("RFC", "btree", grid=(1.0, 3.0), **SMALL)
        )
        snapshot = submit_and_wait(app, dict(SPEC, policies=["RFC"]))
        assert snapshot["progress"]["executed"] == 0
        assert snapshot["progress"]["hits"] == snapshot["progress"]["unique"]
        external.simulate_many(
            sweep_requests("RFC", "btree", grid=(5.0,), **SMALL)
        )
        external.result_store.close()
        assert body_of(app.handle("GET", "/results", {}, b""))["count"] == 7

    def test_read_routes_resolve_each_arch_once(self, app, monkeypatch):
        """Every query the read routes run derives from the app's one
        base query, so an architecture is resolved once however many
        requests filter on latency, and no route parses a key: the
        store parsed each one when it was put."""
        from repro.store import ResultStore, result_store

        job_id = submit_and_wait(app)["id"]
        parses, resolved = [], []
        parse = result_store._parse_key
        monkeypatch.setattr(result_store, "_parse_key", lambda key: (
            parses.append(key), parse(key))[1])
        arch_payload = ResultStore.arch_payload
        monkeypatch.setattr(ResultStore, "arch_payload", lambda store, fp: (
            resolved.append(fp), arch_payload(store, fp))[1])
        for params in ({}, {"policy": "BL"},
                       {"workload": "btree", "min_latency": "2"}):
            assert app.handle("GET", "/results", params, b"").status == 200
        assert app.handle("GET", f"/report/{job_id}", {}, b"").status \
            == 200
        assert parses == []
        assert len(resolved) == len(set(resolved)) == 2

    def test_jobs_and_queries_open_the_store_once(self, tmp_path,
                                                  monkeypatch):
        from repro.store import ResultStore

        opens = []
        original = ResultStore.__init__

        def counting_init(store, *args, **kwargs):
            opens.append(args)
            original(store, *args, **kwargs)

        monkeypatch.setattr(ResultStore, "__init__", counting_init)
        app = ServiceApp(str(tmp_path), job_workers=1)
        try:
            for seed in range(3):
                job_id = submit_and_wait(app, dict(SPEC, seed=seed))["id"]
                assert app.handle("GET", "/results", {}, b"").status == 200
            assert app.handle("GET", f"/report/{job_id}", {}, b"").status \
                == 200
        finally:
            app.drain()
        assert len(opens) == 1


class TestDrain:
    def test_drain_marks_queued_jobs_partial_and_rejects_submissions(
            self, tmp_path):
        app = ServiceApp(str(tmp_path), job_workers=1)
        submitted = body_of(app.handle(
            "POST", "/sweeps", {}, json.dumps(SPEC).encode()
        ))
        second = body_of(app.handle(
            "POST", "/sweeps", {}, json.dumps(dict(SPEC, seed=3)).encode()
        ))
        drained = app.drain()
        states = {job.id: job.state for job in app.tracker.jobs()}
        assert states[submitted["id"]] in ("done", "partial")
        assert states[second["id"]] in ("done", "partial")
        assert all(job.state in ("done", "partial") for job in drained) \
            or drained == []
        response = app.handle("POST", "/sweeps", {},
                              json.dumps(SPEC).encode())
        assert response.status == 503
        health = body_of(app.handle("GET", "/healthz", {}, b""))
        assert health["status"] == "draining"
        app.close()

    def test_submission_racing_the_drain_is_refused_whole(
            self, tmp_path, monkeypatch):
        """A POST that passed the draining check before the drain began,
        and validates its spec while the drain runs, answers 503 and
        registers no job: nothing is left queued past the drain."""
        app = ServiceApp(str(tmp_path), job_workers=1)
        validating, release = threading.Event(), threading.Event()
        from_dict = JobSpec.from_dict

        def blocked_from_dict(payload):
            validating.set()
            assert release.wait(timeout=30.0)
            return from_dict(payload)

        monkeypatch.setattr(JobSpec, "from_dict", blocked_from_dict)
        responses = []
        poster = threading.Thread(target=lambda: responses.append(
            app.handle("POST", "/sweeps", {}, json.dumps(SPEC).encode())
        ))
        poster.start()
        assert validating.wait(timeout=30.0)
        assert app.drain() == []
        release.set()
        poster.join(timeout=30.0)
        assert [response.status for response in responses] == [503]
        assert app.tracker.jobs() == []
        app.close()

    def test_drain_finishes_a_job_no_executor_picked_up(self, tmp_path):
        """A job that reached the tracker but never the executor ends
        partial with its resume hint, without a wait on it."""
        app = ServiceApp(str(tmp_path), job_workers=1)
        job = app.tracker.submit(JobSpec.from_dict(SPEC))
        started = time.monotonic()
        assert app.drain() == [job]
        assert time.monotonic() - started < 1.0
        assert job.state == "partial"
        assert "cancelled before execution started" in job.error
        assert "re-submit the same spec" in job.resume_hint
        app.close()
