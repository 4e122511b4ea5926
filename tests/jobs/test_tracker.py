"""Tests for the job tracker: lifecycle, single-flight, cancellation."""

import os
import threading

import pytest

from repro.experiments import Runner
from repro.jobs import JobSpec, JobSpecError, JobTracker, UnknownJobError
from repro.store import ResultStore
from repro.store.query import Query

SMALL = {"max_resident_warps": 8, "active_warps": 4}


def fast_spec(**changes):
    base = dict(workloads=("btree",), policies=("BL", "LTRF"),
                grid=(1.0, 3.0), overrides=SMALL)
    base.update(changes)
    return JobSpec(**base)


def run_log(store_dir):
    return Query.open(store_dir).run_history()


class TestLifecycle:
    def test_cold_job_runs_to_done(self, tmp_path):
        tracker = JobTracker(str(tmp_path))
        job = tracker.run(fast_spec(label="cold"))
        assert job.state == "done"
        assert job.progress == {"total": 4, "unique": 4, "hits": 0,
                                "executed": 4, "waited": 0}
        assert len(job.records) == 4
        assert len(job.keys) == 4
        assert job.table.count("\n") == 1         # one line per policy
        assert job.telemetry["simulations"] == 4
        (entry,) = run_log(str(tmp_path))
        assert entry["label"] == f"{job.id}: cold"
        assert entry["simulations"] == 4

    def test_warm_job_is_pure_hits_and_identical(self, tmp_path):
        tracker = JobTracker(str(tmp_path))
        first = tracker.run(fast_spec())
        second = tracker.run(fast_spec())
        assert second.state == "done"
        assert second.progress["hits"] == 4
        assert second.progress["executed"] == 0
        assert second.records == first.records
        assert second.table == first.table

    def test_table_matches_cli_sweep_rendering(self, tmp_path):
        from repro.experiments import render_sweep_table

        tracker = JobTracker(str(tmp_path))
        job = tracker.run(fast_spec())
        runner = Runner(cache_dir=str(tmp_path))
        assert job.table == render_sweep_table(
            runner, "btree", ("BL", "LTRF"), grid=(1.0, 3.0), **SMALL
        )

    def test_seeded_job_table_renders_without_resimulation(self, tmp_path):
        """The completed-job table must render the job's own seed as
        pure store lookups -- a seed-0 re-render would double the
        simulation count in telemetry and the run log."""
        from repro.experiments import render_sweep_table

        tracker = JobTracker(str(tmp_path))
        job = tracker.run(fast_spec(seed=7))
        assert job.state == "done"
        assert job.telemetry["simulations"] == 4
        (entry,) = run_log(str(tmp_path))
        assert entry["simulations"] == 4
        runner = Runner(cache_dir=str(tmp_path))
        assert job.table == render_sweep_table(
            runner, "btree", ("BL", "LTRF"), grid=(1.0, 3.0), seed=7,
            **SMALL
        )

    def test_finished_event_set_when_log_run_fails(self, tmp_path):
        """A run-log write failure must not leave waiters blocked on
        an unfinished-looking job."""
        def factory(spec):
            runner = Runner(cache_dir=str(tmp_path))
            def broken_log_run(label):
                raise OSError("disk full")
            runner.log_run = broken_log_run
            return runner

        tracker = JobTracker(str(tmp_path), runner_factory=factory)
        job = tracker.submit(fast_spec())
        tracker.execute(job.id)
        assert job.wait(timeout=0)
        assert job.state == "done"
        assert job.finished is not None
        assert "run-log write failed" in job.error
        assert "disk full" in job.error

    def test_snapshot_is_json_safe(self, tmp_path):
        import json

        tracker = JobTracker(str(tmp_path))
        job = tracker.run(fast_spec())
        snapshot = json.loads(json.dumps(job.snapshot()))
        assert snapshot["state"] == "done"
        assert snapshot["spec"]["workloads"] == ["btree"]

    def test_execute_is_idempotent(self, tmp_path):
        calls = []

        def factory(spec):
            calls.append(spec)
            return Runner(cache_dir=str(tmp_path))

        tracker = JobTracker(str(tmp_path), runner_factory=factory)
        job = tracker.submit(fast_spec())
        tracker.execute(job.id)
        tracker.execute(job.id)
        assert len(calls) == 1
        assert job.state == "done"

    def test_invalid_spec_rejected_at_submit(self, tmp_path):
        tracker = JobTracker(str(tmp_path))
        with pytest.raises(JobSpecError, match="unknown policy"):
            tracker.submit(fast_spec(policies=("NOPE",)))
        assert tracker.jobs() == []

    def test_unknown_job_raises(self, tmp_path):
        with pytest.raises(UnknownJobError, match="job-0042"):
            JobTracker(str(tmp_path)).get("job-0042")

    def test_crashing_sweep_lands_in_failed(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            "repro.jobs.tracker.plan_requests",
            lambda runner, requests: (_ for _ in ()).throw(
                RuntimeError("store on fire")
            ),
        )
        tracker = JobTracker(str(tmp_path))
        job = tracker.run(fast_spec())
        assert job.state == "failed"
        assert "RuntimeError: store on fire" in job.error

    def test_jobs_leave_the_environment_untouched(self, tmp_path):
        """Jobs share the service process; none pins process-global
        state for its run."""
        before = dict(os.environ)
        job = JobTracker(str(tmp_path)).run(fast_spec())
        assert job.state == "done"
        assert dict(os.environ) == before


class TestSharedStore:
    def test_jobs_append_to_one_segment_per_shard_and_one_run_log(
            self, tmp_path):
        """Every job runs on the tracker's one store instance: K cold
        jobs leave one segment per shard they touched (more jobs than
        shards, so per-job writers could not manage that) and one
        run-log file, which still holds one per-job entry each."""
        tracker = JobTracker(str(tmp_path))
        jobs = [
            tracker.run(fast_spec(policies=("BL",), grid=(2.0,), seed=seed,
                                  label=f"cold {seed}"))
            for seed in range(1, 21)
        ]
        tracker.close()
        assert [job.state for job in jobs] == ["done"] * len(jobs)
        store = Query.open(str(tmp_path)).store
        touched = {store.shard_of(key) for job in jobs for key in job.keys}
        assert len(touched) < len(jobs)
        for shard in range(store.shards):
            directory = tmp_path / f"shard-{shard:02x}"
            segments = list(directory.glob("seg-*.jsonl")) \
                if directory.is_dir() else []
            assert len(segments) == (1 if shard in touched else 0)
        assert len(list((tmp_path / "runs").iterdir())) == 1
        history = run_log(str(tmp_path))
        assert [entry["label"] for entry in history] == [
            f"{job.id}: cold {seed}" for seed, job in enumerate(jobs, 1)
        ]
        assert [entry["simulations"] for entry in history] == [1] * len(jobs)
        assert Query(store).count() == len(jobs)

    def test_runner_uses_the_store_handed_in(self, tmp_path):
        store = ResultStore(str(tmp_path))
        runner = Runner(store=store)
        assert runner.result_store is store
        assert runner.cache_dir == str(tmp_path)
        with pytest.raises(ValueError, match="not the root"):
            Runner(cache_dir=str(tmp_path / "other"), store=store)


class TestCancellation:
    def test_cancel_before_execute_is_partial_with_hint(self, tmp_path):
        tracker = JobTracker(str(tmp_path))
        job = tracker.submit(fast_spec())
        tracker.cancel(job.id)
        tracker.execute(job.id)
        assert job.state == "partial"
        assert "re-submit the same spec" in job.resume_hint

    def test_cancel_mid_run_flushes_completed_points(self, tmp_path,
                                                     monkeypatch):
        """Cancelling after the first grid point: that point's record
        is flushed, the rest aborts, and re-submitting resumes from
        the store."""
        from repro.launchers.worker import execute_request_with_telemetry

        tracker = JobTracker(str(tmp_path))
        job = tracker.submit(fast_spec())

        def cancel_after_first(request):
            tracker.cancel(job.id)
            return execute_request_with_telemetry(request)

        monkeypatch.setattr(
            "repro.jobs.plan.execute_request_with_telemetry",
            cancel_after_first,
        )
        tracker.execute(job.id)
        assert job.state == "partial"
        assert job.progress["executed"] == 1
        assert "1 of 4 unique point(s)" in job.resume_hint
        assert tracker.in_flight_keys() == 0

        monkeypatch.setattr(
            "repro.jobs.plan.execute_request_with_telemetry",
            execute_request_with_telemetry,
        )
        resumed = tracker.run(fast_spec())
        assert resumed.state == "done"
        assert resumed.progress["hits"] == 1

    def test_cancel_all_sweeps_active_jobs(self, tmp_path):
        tracker = JobTracker(str(tmp_path))
        done = tracker.run(fast_spec())
        queued = tracker.submit(fast_spec(seed=1))
        cancelled = tracker.cancel_all()
        assert [job.id for job in cancelled] == [queued.id]
        assert done.state == "done"


class TestSingleFlight:
    def test_concurrent_identical_jobs_simulate_once(self, tmp_path):
        """Two identical jobs racing: both end done with identical
        payloads, and the run logs show each unique point simulated
        exactly once across the pair."""
        tracker = JobTracker(str(tmp_path))
        jobs = [tracker.submit(fast_spec(label=f"racer-{i}"))
                for i in range(2)]
        threads = [
            threading.Thread(target=tracker.execute, args=(job.id,))
            for job in jobs
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)

        assert [job.state for job in jobs] == ["done", "done"]
        assert jobs[0].records == jobs[1].records
        assert jobs[0].table == jobs[1].table
        entries = run_log(str(tmp_path))
        assert sum(entry["simulations"] for entry in entries) == 4
        executed = sum(job.progress["executed"] for job in jobs)
        waited = sum(job.progress["waited"] for job in jobs)
        hits = sum(job.progress["hits"] for job in jobs)
        assert executed + waited + hits == 8
        assert tracker.in_flight_keys() == 0

    def test_key_flushed_between_plan_and_claim_is_a_hit(
            self, tmp_path, monkeypatch):
        """Job B plans a key as a miss; job A then simulates, flushes
        and releases it; only then does B claim it.  B must serve the
        key as a hit: the run logs show one simulation in all."""
        from repro.jobs import tracker as tracker_module

        tracker = JobTracker(str(tmp_path))
        spec = fast_spec(grid=(2.0,), policies=("BL",))
        late = tracker.submit(spec)
        early = tracker.submit(spec)
        real_plan = tracker_module.plan_requests
        plans = []

        def plan_then_let_early_finish(runner, requests):
            plan = real_plan(runner, requests)
            plans.append(plan)
            if len(plans) == 1:
                assert len(plan.pending) == 1
                tracker.execute(early.id)
            return plan

        monkeypatch.setattr(tracker_module, "plan_requests",
                            plan_then_let_early_finish)
        tracker.execute(late.id)
        assert [early.state, late.state] == ["done", "done"]
        assert late.records == early.records
        assert late.progress == {"total": 1, "unique": 1, "hits": 1,
                                 "executed": 0, "waited": 0}
        entries = run_log(str(tmp_path))
        assert sum(entry["simulations"] for entry in entries) == 1
        assert sum(entry["cache_hits"] for entry in entries) == 1
        assert tracker.in_flight_keys() == 0

    def test_follower_recovers_when_owner_aborts(self, tmp_path):
        """A follower waiting on an owner that aborts before flushing
        must claim the key itself instead of waiting forever."""
        tracker = JobTracker(str(tmp_path))
        spec = fast_spec(grid=(2.0,), policies=("BL",))
        owner = tracker.submit(spec)
        follower = tracker.submit(spec)

        # Simulate the owner claiming the grid and dying pre-flush:
        # claim its keys manually, run the follower in a thread, then
        # release without ever writing the record.
        runner = Runner(cache_dir=str(tmp_path))
        keys = [runner.request_key(r) for r in spec.to_requests()]
        owned, _ = tracker._flights.claim(keys, owner.id)
        assert owned == keys

        thread = threading.Thread(target=tracker.execute,
                                  args=(follower.id,))
        thread.start()
        thread.join(timeout=0.5)
        assert thread.is_alive()          # parked behind the owner
        for key in keys:
            tracker._flights.release(key, owner.id)
        thread.join(timeout=120.0)
        assert not thread.is_alive()
        assert follower.state == "done"
        assert follower.progress["executed"] == 1
