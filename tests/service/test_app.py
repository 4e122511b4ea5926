"""Tests for the transport-free service app: routing and responses."""

import json
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

    def test_report_needs_no_full_replay(self, app, monkeypatch):
        """The report's store health comes off the shared live index;
        a request never replays every segment."""
        from repro.store import ResultStore

        job_id = submit_and_wait(app)["id"]

        def no_replay(store, shard):
            raise AssertionError("GET /report replayed the store")

        monkeypatch.setattr(ResultStore, "_scan_shard_full", no_replay)
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

    def test_negative_results_limit_400(self, app):
        response = app.handle("GET", "/results", {"limit": "-1"}, b"")
        assert response.status == 400
        assert "limit" in body_of(response)["error"]

    def test_results_without_store_404(self, tmp_path):
        app = ServiceApp(str(tmp_path / "missing"), job_workers=1)
        try:
            response = app.handle("GET", "/results", {}, b"")
            assert response.status == 404
            assert "no result store" in body_of(response)["error"]
            assert not (tmp_path / "missing").exists()
        finally:
            app.close()

    def test_results_on_unmarked_dir_404_and_untouched(self, tmp_path):
        (tmp_path / "plain").mkdir()
        app = ServiceApp(str(tmp_path / "plain"), job_workers=1)
        try:
            response = app.handle("GET", "/results", {}, b"")
            assert response.status == 404
            assert "not a result store" in body_of(response)["error"]
            assert list((tmp_path / "plain").iterdir()) == []
        finally:
            app.close()

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
        # The query loads every shard into the app's index.
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

    def test_read_routes_parse_each_key_once(self, app, monkeypatch):
        """Every query the read routes run derives from the app's one
        base query, so a key is parsed once however many requests
        filter it."""
        from repro.store import query as query_module

        job_id = submit_and_wait(app)["id"]
        parses = []
        parse = query_module._parse_key
        monkeypatch.setattr(query_module, "_parse_key", lambda key, share: (
            parses.append(key), parse(key, share))[1])
        for params in ({}, {"policy": "BL"},
                       {"workload": "btree", "min_latency": "2"}):
            assert app.handle("GET", "/results", params, b"").status == 200
        assert app.handle("GET", f"/report/{job_id}", {}, b"").status \
            == 200
        assert len(parses) == len(set(parses)) == 4

    def test_jobs_and_queries_open_the_store_once(self, app, monkeypatch):
        from repro.store import ResultStore

        opens = []
        original = ResultStore.__init__

        def counting_init(store, *args, **kwargs):
            opens.append(args)
            original(store, *args, **kwargs)

        monkeypatch.setattr(ResultStore, "__init__", counting_init)
        for seed in range(3):
            job_id = submit_and_wait(app, dict(SPEC, seed=seed))["id"]
            assert app.handle("GET", "/results", {}, b"").status == 200
        assert app.handle("GET", f"/report/{job_id}", {}, b"").status == 200
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
