"""Tests for the parallel batch engine and cache hardening."""

import json
import os
from dataclasses import asdict, replace

import pytest

from repro.arch import GPUConfig, StreamingMultiprocessor
from repro.arch.serialize import fingerprint_of_arch_sans_latency
from repro.experiments import Runner, SimRequest
from repro.experiments.latency_tolerance import LATENCY_GRID
from repro.experiments.runner import content_key, default_cache_dir
from repro.policies import POLICIES
from repro.workloads import get_kernel

#: Small config so each simulation finishes quickly.
SMALL = GPUConfig(max_resident_warps=8, active_warps=4)


def _die_on_kmeans(request):
    """Module-level (picklable) pool-worker execution that hard-kills
    the worker when it draws a kmeans request."""
    from repro.launchers.worker import execute_request_with_telemetry
    if request.workload == "kmeans":
        os._exit(3)
    return execute_request_with_telemetry(request)


def _raise_unknown_workload(request):
    """Module-level (picklable) stand-in for a worker-side resolution
    failure, as a spawn-start worker without runtime registrations
    would produce."""
    from repro.workloads import UnknownWorkloadError
    raise UnknownWorkloadError(request.workload, [], [])


def small_grid():
    return [
        SimRequest(workload, policy, SMALL)
        for workload in ("btree", "kmeans")
        for policy in ("BL", "RFC")
    ]


class TestSimulateMany:
    def test_matches_simulate_in_request_order(self, tmp_path):
        runner = Runner(cache_dir=str(tmp_path))
        requests = small_grid()
        records = runner.simulate_many(requests)
        for request, record in zip(requests, records):
            assert record == runner.simulate(
                request.workload, request.policy, request.config
            )
            assert (record.workload, record.policy) == (
                request.workload, request.policy
            )

    def test_parallel_matches_serial_byte_identical(self, tmp_path):
        requests = small_grid()
        serial = Runner(cache_dir=None).simulate_many(requests)
        parallel = Runner(cache_dir=str(tmp_path)).simulate_many(
            requests, jobs=4
        )
        assert serial == parallel
        serial_bytes = [json.dumps(asdict(r), sort_keys=True) for r in serial]
        parallel_bytes = [
            json.dumps(asdict(r), sort_keys=True) for r in parallel
        ]
        assert serial_bytes == parallel_bytes

    def test_dedups_before_dispatch(self, tmp_path):
        runner = Runner(cache_dir=str(tmp_path))
        request = SimRequest("btree", "BL", SMALL)
        records = runner.simulate_many([request, request, request])
        assert runner.stats.simulated == 1
        assert runner.stats.batch_deduplicated == 2
        assert runner.stats.batch_dispatched == 1
        assert records[0] == records[1] == records[2]

    def test_warm_cache_dispatches_nothing(self, tmp_path):
        request = SimRequest("btree", "BL", SMALL)
        Runner(cache_dir=str(tmp_path)).simulate_many([request])
        warm = Runner(cache_dir=str(tmp_path))
        warm.simulate_many([request], jobs=4)
        assert warm.stats.simulated == 0
        assert warm.stats.batch_dispatched == 0
        assert warm.stats.disk_hits == 1


def _segment_paths(root):
    paths = []
    for name in sorted(os.listdir(root)):
        shard_dir = os.path.join(root, name)
        if name.startswith("shard-") and os.path.isdir(shard_dir):
            paths.extend(
                os.path.join(shard_dir, segment)
                for segment in sorted(os.listdir(shard_dir))
                if segment.endswith(".jsonl")
            )
    return paths


class TestCacheHardening:
    def test_truncated_store_tail_regenerated(self, tmp_path):
        """A record torn by a mid-append crash is invisible; the next
        run re-simulates and the regenerated record matches."""
        request = SimRequest("btree", "BL", SMALL)
        first = Runner(cache_dir=str(tmp_path))
        record = first.simulate(request.workload, request.policy, SMALL)
        for path in _segment_paths(str(tmp_path)):
            with open(path, "rb+") as handle:
                handle.seek(0, os.SEEK_END)
                handle.truncate(handle.tell() - 10)    # tear the tail
        fresh = Runner(cache_dir=str(tmp_path))
        assert fresh.lookup(fresh.request_key(request)) is None
        regenerated = fresh.simulate(request.workload, request.policy, SMALL)
        assert regenerated == record
        assert fresh.stats.simulated == 1

    def test_stale_schema_entry_treated_as_miss_and_superseded(
            self, tmp_path):
        request = SimRequest("btree", "BL", SMALL)
        runner = Runner(cache_dir=str(tmp_path))
        key = runner.request_key(request)
        runner.result_store.put(
            key, {"workload": "btree", "unknown_field": 1}
        )
        assert runner.lookup(key) is None
        record = runner.simulate(request.workload, request.policy, SMALL)
        # The re-simulated record shadows the stale entry for readers.
        fresh = Runner(cache_dir=str(tmp_path))
        assert fresh.lookup(key) == record

    def test_flat_json_cache_dir_simulates_cold_without_a_note(
            self, tmp_path, capsys):
        """A directory of flat ``*.json`` entries from before the result
        store is just a directory: the runner re-simulates every point
        cold and prints nothing about the old files."""
        (tmp_path / "btree__BL__0123abcd__0__kfeedface.json").write_text(
            json.dumps({"workload": "btree", "policy": "BL", "ipc": 1.0})
        )
        runner = Runner(cache_dir=str(tmp_path))
        runner.simulate_many(small_grid())
        assert runner.stats.simulated == len(small_grid())
        assert runner.stats.hits == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "")

    def test_store_leaves_no_temp_files(self, tmp_path):
        runner = Runner(cache_dir=str(tmp_path))
        runner.simulate_many(small_grid(), jobs=2)
        leftovers = [
            name
            for _, _, names in os.walk(tmp_path)
            for name in names
            if name.startswith(".write-")
        ]
        assert leftovers == []


class TestStoreFacade:
    """What the runner keeps: keys, and reads and writes of its store."""

    def test_simulate_is_a_one_point_simulate_many(self, tmp_path):
        single = Runner(cache_dir=str(tmp_path / "single"))
        batch = Runner(cache_dir=str(tmp_path / "batch"))
        request = SimRequest("btree", "BL", SMALL)
        assert single.simulate("btree", "BL", SMALL) \
            == batch.simulate_many([request])[0]
        for name in ("simulated", "memory_hits", "disk_hits",
                     "batch_requests", "batch_deduplicated",
                     "batch_dispatched"):
            assert getattr(single.stats, name) \
                == getattr(batch.stats, name), name
        assert (single.stats.batch_requests,
                single.stats.batch_dispatched) == (1, 1)

    def test_stored_reads_the_store_alone(self, tmp_path):
        runner = Runner(cache_dir=str(tmp_path))
        key = runner.request_key(SimRequest("btree", "BL", SMALL))
        assert runner.stored(key) is None
        record = Runner(cache_dir=str(tmp_path)).simulate("btree", "BL",
                                                          SMALL)
        assert runner.stored(key) == record
        assert runner.stats.hits == 0
        # Nothing was cached in memory: a planned read is a disk hit.
        assert runner.lookup(key, planned=True) == record
        assert (runner.stats.memory_hits, runner.stats.disk_hits) == (0, 1)
        runner.result_store.put(key, {"workload": "btree"})   # stale
        assert runner.stored(key) is None

    def test_save_appends_only_a_changed_payload(self, tmp_path):
        runner = Runner(cache_dir=str(tmp_path))
        record = runner.simulate("btree", "BL", SMALL)
        key = runner.request_key(SimRequest("btree", "BL", SMALL))
        runner.save(key, record)
        assert runner.result_store.stats().entries == 1
        changed = replace(record, ipc=record.ipc + 1.0)
        runner.save(key, changed)
        assert runner.result_store.stats().entries == 2
        assert Runner(cache_dir=str(tmp_path)).lookup(key) == changed

    def test_content_key_swaps_only_a_differing_kernel_fingerprint(self):
        key = "btree__BL__a0123__0__kfeedface"
        assert content_key(key, "") == key
        assert content_key(key, "feedface") == key
        assert content_key(key, "beef") == "btree__BL__a0123__0__kbeef"
        path_key = "runs__kit/x.json__BL__a0123__0__kfeedface"
        assert content_key(path_key, "beef") \
            == "runs__kit/x.json__BL__a0123__0__kbeef"


class TestCacheKeyFingerprint:
    """The cache key must pin the kernel *content*, not just its name."""

    def test_key_embeds_kernel_fingerprint(self):
        from repro.workloads import workload_fingerprint
        runner = Runner(cache_dir=None)
        key = runner.request_key(SimRequest("btree", "BL", SMALL))
        assert key.endswith(f"__k{workload_fingerprint('btree')}")

    def test_changed_kernel_content_changes_key(self, monkeypatch):
        """A generator/spec edit must invalidate old entries (the seed
        key was name+policy+config+seed only: silently wrong results)."""
        import repro.experiments.runner as runner_module
        runner = Runner(cache_dir=None)
        request = SimRequest("btree", "BL", SMALL)
        before = runner.request_key(request)
        monkeypatch.setattr(
            runner_module, "workload_fingerprint",
            lambda name: "deadbeefdeadbeef",
        )
        after = runner.request_key(request)
        assert before != after
        assert after.endswith("__kdeadbeefdeadbeef")

    def test_file_workload_key_served_from_store(self, tmp_path):
        """Path-named workloads (keys holding a whole filesystem path)
        round-trip through the store under their full key."""
        from repro.ir import save_kernel
        from repro.workloads import get_kernel
        path = str(tmp_path / "nested" / "dir")
        os.makedirs(path)
        kernel_path = os.path.join(path, "bt.kernel.json")
        save_kernel(get_kernel("btree"), kernel_path)
        runner = Runner(cache_dir=str(tmp_path / "cache"))
        record = runner.simulate(kernel_path, "BL", SMALL)
        assert record.workload == kernel_path
        key = runner.request_key(SimRequest(kernel_path, "BL", SMALL))
        assert runner.result_store.get(key) == asdict(record)
        warm = Runner(cache_dir=str(tmp_path / "cache"))
        assert warm.simulate(kernel_path, "BL", SMALL) == record
        assert warm.stats.simulated == 0

    def test_legacy_aliasing_keys_get_distinct_records(self, tmp_path,
                                                       monkeypatch):
        """Regression for the lossy-sanitiser collision: a file-backed
        workload whose path contains '/' and a workload whose *name* is
        that path with '_' produce different keys AND different store
        records (the flat pre-store cache, which sanitised '/' to '_'
        in file names, folded both onto one file)."""
        runner = Runner(cache_dir=str(tmp_path))
        slashed = SimRequest("a/b", "BL", SMALL)
        underscored = SimRequest("a_b", "BL", SMALL)
        monkeypatch.setattr(
            "repro.experiments.runner.workload_fingerprint",
            lambda name: "deadbeef",
        )
        key_slashed = runner.request_key(slashed)
        key_underscored = runner.request_key(underscored)
        assert key_slashed != key_underscored
        assert key_slashed.replace("/", "_") == key_underscored
        runner.result_store.put(key_slashed, {"ipc": 1.0})
        runner.result_store.put(key_underscored, {"ipc": 2.0})
        assert runner.result_store.get(key_slashed) == {"ipc": 1.0}
        assert runner.result_store.get(key_underscored) == {"ipc": 2.0}


class TestContentKeyedStore:
    """Records are stored under the fingerprint actually simulated."""

    def test_store_rekeys_when_simulated_content_differs(self, tmp_path,
                                                         monkeypatch):
        from repro.experiments.runner import SimTelemetry
        from repro.launchers.worker import execute_request_with_telemetry
        runner = Runner(cache_dir=str(tmp_path))
        request = SimRequest("btree", "BL", SMALL)
        key = runner.request_key(request)
        record, telemetry = execute_request_with_telemetry(request)
        shifted = SimTelemetry(
            host_seconds=telemetry.host_seconds,
            cycles=telemetry.cycles, instructions=telemetry.instructions,
            cycles_skipped=telemetry.cycles_skipped,
            event_counts=telemetry.event_counts,
            kernel_fingerprint="feedfacefeedface",
        )
        monkeypatch.setattr(
            "repro.jobs.plan.execute_request_with_telemetry",
            lambda req: (record, shifted),
        )
        runner.simulate("btree", "BL", SMALL)
        expected = f"{key.rsplit('__k', 1)[0]}__kfeedfacefeedface"
        assert runner.result_store.get(expected) == asdict(record)
        assert runner.result_store.get(key) is None

    def test_normal_runs_store_under_request_key(self, tmp_path):
        runner = Runner(cache_dir=str(tmp_path))
        request = SimRequest("btree", "BL", SMALL)
        record = runner.simulate("btree", "BL", SMALL)
        assert runner.result_store.get(
            runner.request_key(request)
        ) == asdict(record)

    def test_worker_resolution_failure_surfaces_real_error(
            self, tmp_path, monkeypatch):
        """A grid point that cannot execute anywhere -- here the
        workload fails to resolve even in the orchestrator -- is
        retried, quarantined, and re-run serially in the parent, where
        the *real* exception (with its own actionable message) raises
        instead of an opaque worker death."""
        import pytest
        from repro.workloads import UnknownWorkloadError
        for where in ("repro.launchers.pool", "repro.jobs.plan"):
            monkeypatch.setattr(
                f"{where}.execute_request_with_telemetry",
                _raise_unknown_workload,
            )
        runner = Runner(cache_dir=str(tmp_path))
        with pytest.raises(UnknownWorkloadError, match="btree"):
            runner.simulate_many(
                [SimRequest("btree", "BL", SMALL),
                 SimRequest("btree", "RFC", SMALL)],
                jobs=2,
            )
        # The failure was classified, not silently absorbed.
        assert runner.stats.chunk_retries > 0
        assert (runner.stats.chunks_quarantined
                + runner.stats.backend_degradations) > 0


class TestDefaultCacheDir:
    def test_env_var_wins(self, monkeypatch, tmp_path):
        target = str(tmp_path / "env-cache")
        monkeypatch.setenv("LTRF_CACHE_DIR", target)
        assert default_cache_dir() == target
        runner = Runner()
        assert runner.cache_dir == target
        assert os.path.isdir(target)

    def test_falls_back_to_cwd(self, monkeypatch, tmp_path):
        monkeypatch.delenv("LTRF_CACHE_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        assert default_cache_dir() == str(tmp_path / ".ltrf_cache")

    def test_empty_env_var_is_a_loud_error(self, monkeypatch):
        """Empty-string is distinguished from absent: it almost always
        means a misquoted export, and must not silently fall back."""
        import pytest
        monkeypatch.setenv("LTRF_CACHE_DIR", "")
        with pytest.raises(ValueError, match="set but empty"):
            default_cache_dir()
        with pytest.raises(ValueError, match="set but empty"):
            Runner()                # honoured at construction time
        # Explicit cache_dir arguments bypass the env entirely.
        assert Runner(cache_dir=None).cache_dir is None


class TestTelemetry:
    """Simulated-vs-host-time aggregation (the event-core counters)."""

    def test_simulate_records_telemetry(self, tmp_path):
        runner = Runner(cache_dir=str(tmp_path))
        runner.simulate("btree", "BL", SMALL)
        stats = runner.stats
        assert stats.simulated == 1
        assert stats.host_seconds > 0.0
        assert stats.simulated_cycles > 0
        assert stats.simulated_instructions > 0
        assert stats.event_counts.get("memory_response", 0) > 0
        assert stats.simulated_cycles_per_host_second > 0.0

    def test_cache_hits_add_no_telemetry(self, tmp_path):
        runner = Runner(cache_dir=str(tmp_path))
        runner.simulate("btree", "BL", SMALL)
        snapshot = (
            runner.stats.host_seconds, runner.stats.simulated_cycles,
            dict(runner.stats.event_counts),
        )
        runner.simulate("btree", "BL", SMALL)     # memory-cache hit
        assert (
            runner.stats.host_seconds, runner.stats.simulated_cycles,
            dict(runner.stats.event_counts),
        ) == snapshot

    def test_batch_telemetry_covers_all_dispatched(self, tmp_path):
        runner = Runner(cache_dir=str(tmp_path))
        runner.simulate_many(small_grid())
        assert runner.stats.simulated == len(small_grid())
        assert runner.stats.simulated_cycles > 0
        summary = runner.telemetry_summary()
        assert summary["simulations"] == len(small_grid())
        assert summary["simulated_cycles"] == runner.stats.simulated_cycles
        assert "memory_response" in summary["event_counts"]
        assert runner.render_telemetry().startswith("simulated 4 run(s)")

    def test_parallel_workers_report_telemetry(self, tmp_path):
        runner = Runner(cache_dir=str(tmp_path))
        runner.simulate_many(small_grid(), jobs=2)
        assert runner.stats.simulated == len(small_grid())
        assert runner.stats.host_seconds > 0.0
        assert runner.stats.event_counts.get("scoreboard_release", 0) > 0

    def test_cache_entry_schema_unchanged_by_telemetry(self, tmp_path):
        """Telemetry must never leak into the on-disk record: entries
        stay byte-compatible with the pre-event-engine cache format."""
        runner = Runner(cache_dir=str(tmp_path))
        request = SimRequest("btree", "BL", SMALL)
        runner.simulate("btree", "BL", SMALL)
        payload = runner.result_store.get(runner.request_key(request))
        assert set(payload) == {
            "workload", "policy", "ipc", "cycles", "instructions",
            "prefetch_operations", "resident_warps", "activations",
            "deactivations", "mrf_reads", "mrf_writes", "rfc_reads",
            "rfc_writes", "rfc_read_hits", "rfc_read_misses", "rfc_fills",
            "rfc_writebacks", "l1_hit_rate",
        }



class TestHitAccounting:
    """A cache hit is a read that serves a planned grid point; reading
    back points a sweep already served, as every rendered table does,
    is free."""

    GRID = (1.0, 3.0)
    OVERRIDES = {"max_resident_warps": 8, "active_warps": 4}

    def sweep(self, root):
        from repro.experiments import render_sweep_table, sweep_requests

        runner = Runner(cache_dir=root)
        runner.simulate_many(
            sweep_requests("BL", "btree", grid=self.GRID, **self.OVERRIDES)
        )
        render_sweep_table(runner, "btree", ["BL"], grid=self.GRID,
                           **self.OVERRIDES)
        summary = runner.telemetry_summary()
        return summary["simulations"], summary["cache_hits"]

    def test_cold_sweep_and_render_report_no_hits(self, tmp_path):
        assert self.sweep(str(tmp_path)) == (2, 0)

    def test_warm_sweep_and_render_report_one_hit_per_point(self,
                                                             tmp_path):
        self.sweep(str(tmp_path))
        assert self.sweep(str(tmp_path)) == (0, 2)

class TestStaticWorkTelemetry:
    """Compile/build counters and per-process compile amortization."""

    def test_serial_batch_compiles_each_distinct_kernel_once(self, tmp_path):
        from repro.compiler.cache import clear_static_cache
        clear_static_cache()
        runner = Runner(cache_dir=str(tmp_path))
        grid = [
            SimRequest(workload, "LTRF",
                       SMALL.scaled(mrf_latency_multiple=multiple))
            for workload in ("btree", "kmeans")
            for multiple in (1.0, 2.0, 3.0)
        ]
        runner.simulate_many(grid)
        stats = runner.stats
        # Two distinct kernels, one compile each; the other four grid
        # points hit the static-artifact cache.
        assert stats.compile_cache_misses == 2
        assert stats.compile_cache_hits == 4
        assert stats.compile_seconds > 0.0

    def test_parallel_workers_compile_at_most_once_per_process(
            self, tmp_path):
        from repro.compiler.cache import clear_static_cache
        clear_static_cache()
        runner = Runner(cache_dir=str(tmp_path))
        workloads = ("btree", "kmeans")
        jobs = 2
        grid = [
            SimRequest(workload, "LTRF",
                       SMALL.scaled(mrf_latency_multiple=multiple))
            for workload in workloads
            for multiple in (1.0, 2.0, 3.0)
        ]
        runner.simulate_many(grid, jobs=jobs)
        stats = runner.stats
        # Every simulation consults the compile cache exactly once...
        assert stats.compile_cache_hits + stats.compile_cache_misses == (
            len(grid)
        )
        # ...and each distinct kernel is compiled at most once per
        # worker process (fork-started workers inheriting a warm parent
        # cache compile even less).
        assert stats.compile_cache_misses <= len(workloads) * jobs

    def test_front_end_builds_are_attributed(self, tmp_path):
        """A never-before-resolved workload's build is charged to the
        batch that triggered it, even though key computation (not the
        simulation) performs it."""
        runner = Runner(cache_dir=str(tmp_path))
        runner.simulate_many(
            [SimRequest("depchain-29", "BL", SMALL)]
        )
        assert runner.stats.kernel_builds >= 1
        assert runner.stats.kernel_build_seconds > 0.0

    def test_summary_and_render_expose_static_work(self, tmp_path):
        runner = Runner(cache_dir=str(tmp_path))
        runner.simulate("btree", "LTRF", SMALL)
        summary = runner.telemetry_summary()
        for key in ("kernel_builds", "kernel_build_seconds",
                    "compile_cache_hits", "compile_cache_misses",
                    "compile_seconds"):
            assert key in summary
        assert "compile cache" in runner.render_telemetry()


class TestDispatchChunks:
    def test_chunks_are_workload_pure_and_cover_all_items(self):
        from repro.jobs.plan import _dispatch_chunks
        items = [
            (f"key-{workload}-{index}", SimRequest(workload, "BL", SMALL))
            for workload in ("a", "b", "c")
            for index in range(5)
        ]
        chunks = _dispatch_chunks(items, workers=2)
        flattened = [item for chunk in chunks for item in chunk]
        assert sorted(key for key, _ in flattened) == sorted(
            key for key, _ in items
        )
        for chunk in chunks:
            assert len({request.workload for _, request in chunk}) == 1

    def test_large_groups_split_for_load_balance(self):
        from repro.jobs.plan import _dispatch_chunks
        items = [
            (f"key-{index}", SimRequest("only", "BL", SMALL))
            for index in range(32)
        ]
        chunks = _dispatch_chunks(items, workers=4)
        assert len(chunks) >= 4
        assert max(len(chunk) for chunk in chunks) <= 8

    def test_one_worker_gets_each_latency_row_whole(self):
        """Rows are (workload, policy, sans-latency arch): a row's
        latency points travel together, and architectures that differ
        beyond latency form rows of their own."""
        from repro.jobs.plan import _dispatch_chunks
        items = [
            (f"key-{policy}-{warps}-{multiple}", SimRequest(
                "btree", policy,
                SMALL.scaled(active_warps=warps,
                             mrf_latency_multiple=multiple),
            ))
            for multiple in LATENCY_GRID
            for policy in ("BL", "LTRF")
            for warps in (2, 4)
        ]
        chunks = _dispatch_chunks(items, workers=1)
        assert len(chunks) == 4
        for chunk in chunks:
            assert len(chunk) == len(LATENCY_GRID)
            assert len({
                (request.workload, request.policy,
                 fingerprint_of_arch_sans_latency(request.config))
                for _, request in chunk
            }) == 1


class TestDenseOracle:
    """What a sweep persists is what the dense reference engine
    computes: the runner always simulates on the event engine, and its
    stored records must agree with the oracle field for field."""

    @pytest.mark.parametrize(
        "workload", ["btree", "kmeans", "backprop", "srad", "lavamd"]
    )
    def test_stored_record_matches_dense_engine(self, tmp_path, workload):
        config = SMALL.scaled(mrf_latency_multiple=3.0)
        Runner(cache_dir=str(tmp_path)).simulate(workload, "LTRF", config)
        reopened = Runner(cache_dir=str(tmp_path))
        stored = reopened.simulate(workload, "LTRF", config)
        assert reopened.stats.simulated == 0       # served from the store
        dense = StreamingMultiprocessor(
            config, POLICIES["LTRF"], engine="dense"
        ).run(get_kernel(workload))
        for name, value in asdict(stored).items():
            if name not in ("workload", "policy"):
                assert value == getattr(dense, name), name


class _ScriptedPool:
    """Drop-in ProcessPoolExecutor whose behaviour is scripted per
    instantiation: each entry of ``plan`` governs one pool and says how
    many submitted chunks complete before the pool "breaks" (None =
    never breaks).  Chunks run inline, so results are real."""

    plan = []
    instances = 0
    #: ``(wait, cancel_futures)`` of every shutdown, across instances.
    shutdowns = []

    def __init__(self, max_workers):
        type(self).instances += 1
        index = type(self).instances - 1
        self._complete_before_break = (
            type(self).plan[index] if index < len(type(self).plan)
            else None
        )
        self._submitted = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, *args):
        from concurrent.futures import Future
        from concurrent.futures.process import BrokenProcessPool
        future = Future()
        limit = self._complete_before_break
        if limit is not None and self._submitted >= limit:
            future.set_exception(
                BrokenProcessPool("a child process terminated abruptly")
            )
        else:
            try:
                future.set_result(fn(*args))
            except BaseException as error:   # delivered via the future
                future.set_exception(error)
        self._submitted += 1
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        type(self).shutdowns.append((wait, cancel_futures))


class TestResumableSweeps:
    """Mid-sweep failures must never lose flushed records."""

    def grid(self):
        return [
            SimRequest(workload, policy, SMALL)
            for workload in ("btree", "kmeans")
            for policy in ("BL", "RFC", "LTRF")
        ]

    def test_killed_sweep_resumes_with_zero_repeat_simulations(
            self, tmp_path):
        grid = self.grid()
        killed = Runner(cache_dir=str(tmp_path))
        killed.simulate_many(grid[:4])      # "killed" after 4 flushed
        resumed = Runner(cache_dir=str(tmp_path))
        records = resumed.simulate_many(grid)
        assert resumed.stats.simulated == len(grid) - 4
        assert resumed.stats.disk_hits == 4
        direct = Runner(cache_dir=None).simulate_many(grid)
        assert records == direct

    def test_broken_pool_retries_chunks_on_fresh_pool(self, tmp_path,
                                                      monkeypatch):
        _ScriptedPool.plan = [1]    # pool 1: one chunk, then break
        _ScriptedPool.instances = 0
        _ScriptedPool.shutdowns = []
        monkeypatch.setattr(
            "repro.launchers.pool.ProcessPoolExecutor", _ScriptedPool
        )
        grid = self.grid()
        runner = Runner(cache_dir=str(tmp_path))
        records = runner.simulate_many(grid, jobs=2)
        assert _ScriptedPool.instances >= 2     # fresh pool for retries
        # The broken pool is dropped without waiting (its queued work
        # cancelled); the healthy last one is drained.
        assert _ScriptedPool.shutdowns[0] == (False, True)
        assert _ScriptedPool.shutdowns[-1] == (True, False)
        assert runner.stats.pool_retries >= 1
        assert runner.stats.chunk_retries >= 1
        assert runner.stats.simulated == len(grid)
        assert records == Runner(cache_dir=None).simulate_many(grid)

    def test_persistently_broken_pool_degrades_to_serial(
            self, tmp_path, monkeypatch):
        """A backend that keeps breaking no longer loses the sweep:
        after enough consecutive failed deliveries the runner abandons
        the pool and finishes the grid serially in-process."""
        _ScriptedPool.plan = [1] + [0] * 50   # every rebuilt pool breaks
        _ScriptedPool.instances = 0
        grid = self.grid()
        monkeypatch.setattr(
            "repro.launchers.pool.ProcessPoolExecutor", _ScriptedPool
        )
        runner = Runner(cache_dir=str(tmp_path))
        records = runner.simulate_many(grid, jobs=2)
        assert runner.stats.simulated == len(grid)      # grid completed
        assert (runner.stats.backend_degradations
                + runner.stats.chunks_quarantined) >= 1
        assert records == Runner(cache_dir=None).simulate_many(grid)
        # Everything was flushed along the way: a rerun repeats nothing.
        resumed = Runner(cache_dir=str(tmp_path))
        resumed.simulate_many(grid)
        assert resumed.stats.simulated == 0

    def test_poisoned_chunks_quarantine_and_finish_serially(
            self, tmp_path, monkeypatch):
        """A chunk that fails every delivery attempt (here: a workload
        resolvable only in the orchestrator, as with spawn-start
        runtime registrations) exhausts its retry budget and re-runs
        serially in the parent -- completing the sweep instead of
        discarding it."""
        from repro.launchers.worker import execute_request_with_telemetry
        from repro.workloads import UnknownWorkloadError

        def fail_kmeans(request):
            if request.workload == "kmeans":
                raise UnknownWorkloadError("kmeans", [], [])
            return execute_request_with_telemetry(request)

        _ScriptedPool.plan = [None]          # never breaks; fn may raise
        _ScriptedPool.instances = 0
        monkeypatch.setattr(
            "repro.launchers.pool.ProcessPoolExecutor", _ScriptedPool
        )
        monkeypatch.setattr(
            "repro.launchers.pool.execute_request_with_telemetry",
            fail_kmeans,
        )
        grid = self.grid()
        runner = Runner(cache_dir=str(tmp_path))
        records = runner.simulate_many(grid, jobs=2)
        # The kmeans chunks failed in "workers" but ran serially in
        # the parent (the serial path is not the poisoned pool task).
        assert runner.stats.simulated == len(grid)
        assert runner.stats.chunk_retries >= 1
        assert (runner.stats.chunks_quarantined
                + runner.stats.backend_degradations) >= 1
        assert records == Runner(cache_dir=None).simulate_many(grid)

    def test_real_worker_death_completes_sweep(self, tmp_path):
        """Fork-start integration check -- the kill-a-worker
        acceptance path on the local backend: a worker hard-killed by
        os._exit takes down the pool, yet the sweep completes (healthy
        chunks retry on fresh pools; the poisoned chunk ends up
        executing serially in the parent, whose execution path is not
        the monkeypatched killer), results are byte-identical to a clean
        serial run, and nothing is re-simulated on resume."""
        import multiprocessing

        import pytest
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("needs fork start (monkeypatched worker fn)")
        grid = self.grid()
        with pytest.MonkeyPatch.context() as patcher:
            patcher.setattr(
                "repro.launchers.pool.execute_request_with_telemetry",
                _die_on_kmeans,
            )
            runner = Runner(cache_dir=str(tmp_path))
            records = runner.simulate_many(grid, jobs=2)
        assert runner.stats.pool_retries >= 1
        assert runner.stats.chunk_retries >= 1
        assert runner.stats.simulated == len(grid)      # zero lost
        # Byte-identical to an unfaulted serial run.
        serial = Runner(cache_dir=None).simulate_many(grid)
        assert [json.dumps(asdict(r), sort_keys=True) for r in records] \
            == [json.dumps(asdict(r), sort_keys=True) for r in serial]
        # Zero repeated after resume.
        resumed = Runner(cache_dir=str(tmp_path))
        resumed.simulate_many(grid)
        assert resumed.stats.simulated == 0
        # The survival story is visible in telemetry, not silent.
        summary = runner.telemetry_summary()
        assert summary["chunk_retries"] >= 1
        assert "fault tolerance" in runner.render_telemetry()


class TestRunLogDeltas:
    """A long-lived runner logging after each sweep reports per-sweep
    deltas; `telemetry_summary()` keeps lifetime totals.  Pins the
    serving-path contract: successive `simulate_many` calls must not
    re-report earlier sweeps' counters in later run-log entries."""

    def test_successive_sweeps_log_disjoint_deltas(self, tmp_path):
        runner = Runner(cache_dir=str(tmp_path))
        first_grid = [SimRequest("btree", policy, SMALL)
                      for policy in ("BL", "RFC")]
        runner.simulate_many(first_grid)
        first = runner.log_run("first sweep")
        assert first["simulations"] == 2
        assert first["cache_hits"] == 0
        assert first["batch_requests"] == 2

        second_grid = first_grid + [
            SimRequest("kmeans", policy, SMALL)
            for policy in ("BL", "RFC")
        ]
        runner.simulate_many(second_grid)
        second = runner.log_run("second sweep")
        assert second["simulations"] == 2      # only the new points
        assert second["cache_hits"] == 2       # the repeated points
        assert second["batch_requests"] == 4

        # Lifetime totals are untouched by the per-sweep slicing.
        lifetime = runner.telemetry_summary()
        assert lifetime["simulations"] == 4
        assert lifetime["cache_hits"] == 2

        history = runner.results().run_history()
        assert [entry["label"] for entry in history] \
            == ["first sweep", "second sweep"]
        assert sum(entry["simulations"] for entry in history) == 4

    def test_idle_interval_logs_nothing(self, tmp_path):
        runner = Runner(cache_dir=str(tmp_path))
        runner.simulate_many([SimRequest("btree", "BL", SMALL)])
        assert runner.log_run("active") is not None
        assert runner.log_run("idle since") is None
        assert len(runner.results().run_history()) == 1

    def test_fault_recovery_alone_still_logs(self, tmp_path):
        """An interval with no simulations but with recovery actions
        (retries, timeouts) must be recorded -- that telemetry is how
        chaos tests and operators see the survival story."""
        runner = Runner(cache_dir=str(tmp_path))
        runner.simulate_many([SimRequest("btree", "BL", SMALL)])
        runner.log_run("warm")
        runner.stats.chunk_retries += 1
        entry = runner.log_run("recovered")
        assert entry is not None
        assert entry["chunk_retries"] == 1
        assert entry["simulations"] == 0
