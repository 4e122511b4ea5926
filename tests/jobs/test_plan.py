"""Tests for the plan/execute/merge pipeline behind simulate_many."""

import json
from dataclasses import asdict

import pytest

from repro.arch import GPUConfig
from repro.experiments import Runner, SimRequest
from repro.experiments.runner import content_key
from repro.ir import save_kernel
from repro.jobs import JobSpec, JobTracker
from repro.jobs import plan as plan_module
from repro.jobs import tracker as tracker_module
from repro.jobs.plan import absorb, execute_plan, plan_requests
from repro.launchers import SweepAborted, pool
from repro.launchers.worker import execute_request_with_telemetry
from repro.workloads import default_registry, get_kernel

SMALL = GPUConfig(max_resident_warps=8, active_warps=4)


def grid():
    return [
        SimRequest(workload, policy, SMALL)
        for workload in ("btree", "kmeans")
        for policy in ("BL", "LTRF")
    ]


class TestPlanExecuteMerge:
    def test_matches_simulate_many_byte_for_byte(self, tmp_path):
        reference = Runner(cache_dir=str(tmp_path / "a"))
        expected = reference.simulate_many(grid())

        runner = Runner(cache_dir=str(tmp_path / "b"))
        plan = plan_requests(runner, grid())
        execute_plan(runner, plan)
        records = plan.merge()

        assert [json.dumps(asdict(r), sort_keys=True) for r in records] \
            == [json.dumps(asdict(r), sort_keys=True) for r in expected]
        for name in ("batch_requests", "batch_deduplicated",
                     "batch_dispatched", "simulated", "hits"):
            assert getattr(runner.stats, name) \
                == getattr(reference.stats, name), name

    def test_warm_store_resolves_at_plan_time(self, tmp_path):
        Runner(cache_dir=str(tmp_path)).simulate_many(grid())
        runner = Runner(cache_dir=str(tmp_path))
        plan = plan_requests(runner, grid())
        assert plan.pending == {}
        assert plan.store_hits == 4
        assert plan.complete
        assert len(plan.merge()) == 4
        assert runner.stats.simulated == 0

    def test_duplicates_counted_not_pending(self, tmp_path):
        runner = Runner(cache_dir=str(tmp_path))
        request = SimRequest("btree", "BL", SMALL)
        plan = plan_requests(runner, [request, request, request])
        assert plan.deduplicated == 2
        assert len(plan.pending) == 1
        assert plan.unique_points == 1
        execute_plan(runner, plan)
        assert [r.policy for r in plan.merge()] == ["BL", "BL", "BL"]

    def test_merge_incomplete_raises(self, tmp_path):
        runner = Runner(cache_dir=str(tmp_path))
        plan = plan_requests(runner, grid())
        with pytest.raises(ValueError, match="unresolved"):
            plan.merge()


class TestStoreRace:
    #: btree, BL and LTRF at 1x and 3x, on the small SM.
    SPEC = JobSpec(workloads=("btree",), policies=("BL", "LTRF"),
                   grid=(1.0, 3.0),
                   overrides={"max_resident_warps": 8, "active_warps": 4})

    def test_point_flushed_between_plan_and_execute_not_resimulated(
            self, tmp_path, monkeypatch):
        """A concurrent writer completing a point after we planned it
        must turn our execution into a store read, not a second
        simulation -- the store is the cross-process dedup substrate."""
        store = str(tmp_path)
        runner = Runner(cache_dir=store)
        request = SimRequest("btree", "BL", SMALL)
        plan = plan_requests(runner, [request])
        assert len(plan.pending) == 1

        # The "concurrent writer": a second runner over the same store
        # completes the point between our plan and our execute.
        other = Runner(cache_dir=store)
        (expected,) = other.simulate_many([request])

        def boom(_request):
            raise AssertionError(
                "the point was already in the store; execute_plan must "
                "serve it instead of simulating again"
            )

        monkeypatch.setattr(
            "repro.jobs.plan.execute_request_with_telemetry", boom
        )
        seen = []
        execute_plan(runner, plan,
                     on_point=lambda key, simulated: seen.append(simulated))
        assert plan.merge() == [expected]
        # The store read is a hit wherever it is found: nothing was
        # simulated here, so nothing is charged as a simulation.
        assert (runner.stats.simulated, runner.stats.hits) == (0, 1)
        assert runner.stats.host_seconds == 0.0
        assert seen == [False]

    @pytest.mark.parametrize("path", ["serial", "pool", "tracker"])
    def test_point_flushed_after_the_plan_is_one_hit_on_every_path(
            self, tmp_path, monkeypatch, path):
        """A second runner flushes one point of a planned 4-point
        grid.  However the plan executes -- serially, on the pool, or
        as a tracker job that claims its keys after the flush -- that
        point is one hit and exactly the other three are simulated."""
        requests = self.SPEC.to_requests()
        assert len(requests) == 4

        def flush():
            Runner(cache_dir=str(tmp_path)).simulate_many(requests[:1])

        if path == "tracker":
            runners = []
            real_plan = tracker_module.plan_requests

            def make_runner(_spec):
                runners.append(Runner(store=tracker.store))
                return runners[-1]

            def plan_then_flush(runner, grid):
                plan = real_plan(runner, grid)
                flush()
                return plan

            monkeypatch.setattr(tracker_module, "plan_requests",
                                plan_then_flush)
            tracker = JobTracker(str(tmp_path), runner_factory=make_runner)
            job = tracker.run(self.SPEC)
            assert job.state == "done"
            assert job.progress == {"total": 4, "unique": 4, "hits": 1,
                                    "executed": 3, "waited": 0}
            (runner,) = runners
        else:
            runner = Runner(cache_dir=str(tmp_path))
            plan = plan_requests(runner, requests)
            flush()
            seen = {}
            execute_plan(runner, plan, jobs=2 if path == "pool" else None,
                         on_point=seen.__setitem__)
            assert seen == {key: key != plan.keys[0] for key in plan.keys}
        assert (runner.stats.simulated, runner.stats.hits) == (3, 1)

    def test_pool_path_dispatches_nothing_when_every_point_was_flushed(
            self, tmp_path, monkeypatch):
        """Every pending point flushed after the plan: ``jobs=2``
        serves them all from the store, simulates nothing and never
        starts the pool."""
        requests = self.SPEC.to_requests()
        runner = Runner(cache_dir=str(tmp_path))
        plan = plan_requests(runner, requests)
        expected = Runner(cache_dir=str(tmp_path)).simulate_many(requests)

        def boom(*args, **kwargs):
            raise AssertionError("every point is stored; nothing may run")

        monkeypatch.setattr(pool, "run_chunks", boom)
        monkeypatch.setattr(plan_module, "execute_request_with_telemetry",
                            boom)
        execute_plan(runner, plan, jobs=2)
        assert plan.merge() == expected
        assert (runner.stats.simulated, runner.stats.hits) == (0, 4)


class TestCancellation:
    def test_serial_abort_keeps_flushed_records(self, tmp_path):
        runner = Runner(cache_dir=str(tmp_path))
        plan = plan_requests(runner, grid())
        seen = []

        def should_abort():
            return len(seen) >= 2

        with pytest.raises(SweepAborted, match="flushed"):
            execute_plan(runner, plan,
                         on_point=lambda key, simulated: seen.append(key),
                         should_abort=should_abort)
        assert len(seen) == 2
        assert len(plan.results) == 2
        assert not plan.complete

        # Resume: a fresh runner over the same store pays only for the
        # un-flushed remainder.
        resumed = Runner(cache_dir=str(tmp_path))
        resumed_plan = plan_requests(resumed, grid())
        assert resumed_plan.store_hits == 2
        execute_plan(resumed, resumed_plan)
        assert len(resumed_plan.merge()) == 4
        assert resumed.stats.simulated == 2

    def test_on_point_observes_every_miss(self, tmp_path):
        runner = Runner(cache_dir=str(tmp_path))
        plan = plan_requests(runner, grid())
        seen = []
        execute_plan(runner, plan,
                     on_point=lambda key, simulated: seen.append(key))
        assert sorted(seen) == sorted(plan.keys)


def quarantine_every_chunk(chunks, workers, policy, *, run_serial,
                           **hooks):
    """A stand-in for the scheduler whose every chunk exhausts its
    retries: all of them re-run serially in this process."""
    run_serial(chunks)


def count_puts(monkeypatch):
    """The keys of every ResultStore.put from now on, in call order."""
    from repro.store import ResultStore

    keys = []
    original = ResultStore.put
    monkeypatch.setattr(ResultStore, "put", lambda store, key, payload: (
        keys.append(key), original(store, key, payload))[1])
    return keys


class TestAbsorb:
    """absorb() is where a delivered grid point is counted and stored."""

    def delivery(self, tmp_path):
        runner = Runner(cache_dir=str(tmp_path))
        request = SimRequest("btree", "BL", SMALL)
        return (runner, runner.request_key(request),
                *execute_request_with_telemetry(request))

    def test_duplicate_delivery_counts_and_stores_once(self, tmp_path,
                                                        monkeypatch):
        runner, key, record, fingerprint, stats = self.delivery(tmp_path)
        puts = count_puts(monkeypatch)
        results = {}
        assert absorb(runner, results, key, record, fingerprint, stats)
        assert not absorb(runner, results, key, record, fingerprint, stats)
        assert results == {key: record}
        assert runner.stats == stats
        assert runner.stats.simulated == 1
        assert puts == [key]
        assert runner.result_store.stats().records == 1

    def test_record_is_stored_under_the_content_simulated(self, tmp_path):
        runner, key, record, _, stats = self.delivery(tmp_path)
        results = {}
        absorb(runner, results, key, record, "feedface", stats)
        assert results == {key: record}
        assert runner.lookup(key) is None
        assert runner.lookup(content_key(key, "feedface")) == record


class TestParallelDelivery:
    def test_chunk_delivered_twice_counts_once(self, tmp_path,
                                               monkeypatch):
        """A chunk that times out but completes anyway, then succeeds
        on its retry, delivers its points twice: each is counted,
        stored and reported to on_point exactly once."""
        real_run_chunks = pool.run_chunks

        def deliver_twice(chunks, workers, policy, *, on_done, **hooks):
            def twice(chunk, outcomes):
                on_done(chunk, outcomes)
                on_done(chunk, outcomes)
            return real_run_chunks(chunks, workers, policy,
                                   on_done=twice, **hooks)

        monkeypatch.setattr(pool, "run_chunks", deliver_twice)
        runner = Runner(cache_dir=str(tmp_path))
        plan = plan_requests(runner, grid())
        puts = count_puts(monkeypatch)
        seen = []
        execute_plan(runner, plan, jobs=2,
                     on_point=lambda key, simulated: seen.append(key))
        assert sorted(seen) == sorted(plan.keys)
        assert runner.stats.simulated == len(grid())
        assert sorted(puts) == sorted(plan.keys)
        assert runner.result_store.stats().records == len(grid())

    def test_serial_rerun_serves_points_flushed_before_quarantine(
            self, tmp_path, monkeypatch):
        """A point another writer flushed after dispatch, before its
        chunk was quarantined, is served from the store on the serial
        re-run: a hit, not simulated again."""
        requests = grid()
        runner = Runner(cache_dir=str(tmp_path))
        plan = plan_requests(runner, requests)
        flushed, simulated = [], []

        def execute(request):
            simulated.append(request)
            return execute_request_with_telemetry(request)

        def flush_then_quarantine(chunks, workers, policy, *, run_serial,
                                  **hooks):
            # The other writer's flush, after the pre-dispatch probe.
            flushed.extend(Runner(cache_dir=str(tmp_path)).simulate_many(
                requests[:1]))
            monkeypatch.setattr(plan_module,
                                "execute_request_with_telemetry", execute)
            run_serial(chunks)

        monkeypatch.setattr(pool, "run_chunks", flush_then_quarantine)
        execute_plan(runner, plan, jobs=2)
        assert sorted(simulated, key=repr) == sorted(requests[1:], key=repr)
        assert plan.merge()[0] == flushed[0]
        assert runner.stats.simulated == len(requests) - 1
        assert runner.stats.hits == 1

    def test_abort_during_serial_rerun_keeps_flushed_points(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(pool, "run_chunks", quarantine_every_chunk)
        runner = Runner(cache_dir=str(tmp_path))
        plan = plan_requests(runner, grid())
        seen = []
        with pytest.raises(SweepAborted, match="flushed"):
            execute_plan(runner, plan, jobs=2,
                         on_point=lambda key, simulated: seen.append(key),
                         should_abort=lambda: len(seen) >= 1)
        (key,) = seen
        assert Runner(cache_dir=str(tmp_path)).lookup(key) \
            == plan.results[key]


class TestPendingSubset:
    def test_executes_only_the_claimed_subset(self, tmp_path):
        """A single-flight owner passes just the keys it claimed; the
        rest of the plan stays pending for their owners."""
        runner = Runner(cache_dir=str(tmp_path))
        plan = plan_requests(runner, grid())
        claimed = dict(list(plan.pending.items())[:2])
        execute_plan(runner, plan, pending=claimed)
        assert sorted(plan.results) == sorted(claimed)
        assert not plan.complete
        assert runner.stats.simulated == 2


class TestFrontEndBuilds:
    def test_build_before_any_runner_is_charged_once(self, tmp_path):
        """A kernel built before any runner existed -- the CLI builds
        it to validate the workload -- is charged to the first plan
        that needs it, and to no later one."""
        path = str(tmp_path / "fresh.kernel.json")
        save_kernel(get_kernel("btree"), path)
        default_registry().get_kernel(path)
        request = SimRequest(path, "BL", SMALL)
        first = Runner(cache_dir=str(tmp_path / "first"))
        plan_requests(first, [request, request])
        assert first.stats.kernel_builds == 1
        second = Runner(cache_dir=str(tmp_path / "second"))
        plan_requests(second, [request])
        assert second.stats.kernel_builds == 0
