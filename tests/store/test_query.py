"""Tests for the store query API (repro.store.query)."""

from dataclasses import fields as dataclass_fields

import pytest

from repro.arch import GPUConfig
from repro.arch.serialize import arch_to_dict, fingerprint_of_arch
from repro.experiments import Runner
from repro.experiments.latency_tolerance import sweep_requests
from repro.experiments.runner import RunRecord
from repro.store import Query, ResultStore, parse_key

#: Small enough to keep every simulation in this module instantaneous.
SMALL = dict(max_resident_warps=8, active_warps=4)

ARCH_FP = "0123456789abcdef"
KERNEL_FP = "feedfacefeedface"


def record_payload(**overrides):
    """A payload with exactly the current RunRecord field set."""
    payload = {spec.name: 0 for spec in dataclass_fields(RunRecord)}
    payload.update(workload="btree", policy="BL", ipc=1.0)
    payload.update(overrides)
    return payload


class TestParseKey:
    def test_current_format(self):
        parsed = parse_key(f"btree__LTRF__a{ARCH_FP}__7__k{KERNEL_FP}")
        assert parsed.workload == "btree"
        assert parsed.policy == "LTRF"
        assert parsed.arch_fingerprint == ARCH_FP
        assert parsed.config_fingerprint == ""
        assert parsed.seed == 7
        assert parsed.kernel_fingerprint == KERNEL_FP

    def test_legacy_format(self):
        parsed = parse_key(f"btree__BL__{ARCH_FP}__0__k{KERNEL_FP}")
        assert parsed.arch_fingerprint == ""
        assert parsed.config_fingerprint == ARCH_FP
        assert parsed.policy == "BL"

    def test_workload_may_contain_separators(self):
        """File-backed workloads are addressed by path; only the
        right-hand segments are structural."""
        parsed = parse_key(
            f"runs__dir/my__kernel.json__BL__a{ARCH_FP}__0__k{KERNEL_FP}"
        )
        assert parsed.workload == "runs__dir/my__kernel.json"
        assert parsed.policy == "BL"

    @pytest.mark.parametrize("bad", [
        "",
        "btree",
        "btree__BL",
        f"btree__BL__zzzz__0__k{KERNEL_FP}",          # non-hex arch
        f"btree__BL__a{ARCH_FP}__x__k{KERNEL_FP}",    # non-int seed
        f"btree__BL__a{ARCH_FP}__0",                  # no kernel fp
        f"btree__BL__a{ARCH_FP}__0__knothex",         # non-hex kernel
        f"__BL__a{ARCH_FP}__0__k{KERNEL_FP}",         # empty workload
        f"btree__BL__a{ARCH_FP.upper()}__0__k{KERNEL_FP}",  # uppercase arch
        f"btree__BL__{ARCH_FP.upper()}__0__k{KERNEL_FP}",   # uppercase cfg
        f"btree__BL__a{ARCH_FP}__0__k{KERNEL_FP.upper()}",  # uppercase kernel
        f"btree__BL__a0x{ARCH_FP}__0__k{KERNEL_FP}",        # 0x arch
        f"btree__BL__0x{ARCH_FP}__0__k{KERNEL_FP}",         # 0x cfg
        f"btree__BL__a{ARCH_FP}__0__k0x{KERNEL_FP}",        # 0x kernel
        f"btree__BL__a{ARCH_FP}__0__k{KERNEL_FP}\n",  # trailing newline
    ])
    def test_malformed_keys_rejected(self, bad):
        assert parse_key(bad) is None

    def test_real_runner_key_round_trips(self, tmp_path):
        runner = Runner(cache_dir=str(tmp_path))
        config = GPUConfig(**SMALL)
        from repro.experiments.runner import SimRequest
        key = runner.request_key(SimRequest("btree", "BL", config))
        parsed = parse_key(key)
        assert parsed is not None
        assert parsed.workload == "btree"
        assert parsed.arch_fingerprint == fingerprint_of_arch(config)


class TestQuery:
    def _sweep_store(self, tmp_path):
        """A real two-policy, two-latency, single-workload sweep."""
        runner = Runner(cache_dir=str(tmp_path))
        runner.simulate_many([
            request
            for policy in ("BL", "LTRF")
            for request in sweep_requests(
                policy, "btree", grid=(1.0, 3.0), **SMALL
            )
        ])
        runner.log_run("test sweep")
        return runner

    def test_empty_store(self, tmp_path):
        query = Query.open(str(tmp_path), create=True)
        assert query.records() == []
        assert query.count() == 0
        assert query.group_by("policy") == {}
        assert query.aggregate(["policy"], n=("count", "key")) == []
        assert query.stats().live_keys == 0
        assert query.run_history() == []

    def test_records_are_typed_and_sorted(self, tmp_path):
        runner = self._sweep_store(tmp_path)
        records = runner.results().records()
        assert len(records) == 4
        assert [r.key for r in records] == sorted(r.key for r in records)
        assert all(r.schema_ok and r.key_ok for r in records)
        assert {r.policy for r in records} == {"BL", "LTRF"}
        assert all(isinstance(r.ipc, float) for r in records)

    def test_latency_resolved_through_arch_manifest(self, tmp_path):
        runner = self._sweep_store(tmp_path)
        latencies = {r.latency for r in runner.results().records()}
        assert latencies == {1.0, 3.0}

    def test_where_filters(self, tmp_path):
        runner = self._sweep_store(tmp_path)
        query = runner.results()
        assert query.where(policy="BL").count() == 2
        assert query.where(policy="BL", min_latency=2.0).count() == 1
        assert query.where(max_latency=1.5).count() == 2
        assert query.where(workload="nope").count() == 0

    def test_where_key_in_scopes_to_an_explicit_grid(self, tmp_path):
        """`key_in` restricts to a literal key set -- how the service
        scopes GET /report/<job> to exactly one job's points."""
        runner = self._sweep_store(tmp_path)
        query = runner.results()
        keys = [record.key for record in query.records()]
        assert query.where(key_in=keys[:2]).count() == 2
        assert [r.key for r in query.where(key_in=keys[:2]).records()] \
            == sorted(keys[:2])
        assert query.where(key_in=[]).count() == 0
        assert query.where(key_in=["no-such-key"]).count() == 0
        # Composes with the other filters.
        assert query.where(policy="BL", key_in=keys).count() == 2

    def test_group_by_multi_arch_sweep(self, tmp_path):
        """Each latency point is a distinct architecture fingerprint;
        group-by splits the grid accordingly."""
        runner = self._sweep_store(tmp_path)
        groups = runner.results().group_by("arch_fingerprint")
        assert len(groups) == 2
        assert all(len(records) == 2 for records in groups.values())
        by_latency = runner.results().group_by("latency", "policy")
        assert set(by_latency) == {
            (1.0, "BL"), (1.0, "LTRF"), (3.0, "BL"), (3.0, "LTRF"),
        }

    def test_aggregate(self, tmp_path):
        runner = self._sweep_store(tmp_path)
        rows = runner.results().aggregate(
            ["policy"], mean_ipc=("mean", "ipc"), n=("count", "key"),
            worst=("min", "ipc"),
        )
        assert [row["policy"] for row in rows] == ["BL", "LTRF"]
        for row in rows:
            assert row["n"] == 2
            assert 0 < row["worst"] <= row["mean_ipc"] * 2

    def test_aggregate_rejects_unknown_aggregator(self, tmp_path):
        query = Query.open(str(tmp_path), create=True)
        with pytest.raises(ValueError, match="median"):
            query.aggregate(["policy"], x=("median", "ipc"))

    def test_project(self, tmp_path):
        runner = self._sweep_store(tmp_path)
        rows = runner.results().where(policy="BL").project(
            "workload", "latency", "ipc"
        )
        assert len(rows) == 2
        assert all(row[0] == "btree" for row in rows)

    def test_stale_schema_flagged_but_visible(self, tmp_path):
        store = ResultStore(str(tmp_path), create=True)
        store.put(f"btree__BL__a{ARCH_FP}__0__k{KERNEL_FP}",
                  {"workload": "btree", "policy": "BL", "ipc": 2.0})
        store.close()
        records = Query.open(str(tmp_path)).records()
        assert len(records) == 1
        assert not records[0].schema_ok
        assert records[0].ipc == 2.0
        assert Query.open(str(tmp_path)).where(schema_ok=True).count() == 0

    def test_unparseable_key_still_yields_row(self, tmp_path):
        store = ResultStore(str(tmp_path), create=True)
        store.put("not-a-cache-key", record_payload(workload="mystery"))
        store.close()
        (record,) = Query.open(str(tmp_path)).records()
        assert not record.key_ok
        assert record.workload == "mystery"     # recovered from payload
        assert record.schema_ok                 # payload shape is current

    def test_run_history_sorted_by_time(self, tmp_path):
        store = ResultStore(str(tmp_path), create=True)
        store.append_run_log({"label": "second", "time": 200.0})
        store.append_run_log({"label": "first", "time": 100.0})
        history = Query(store).run_history()
        assert [entry["label"] for entry in history] == ["first", "second"]

    def test_arch_descriptions(self, tmp_path):
        store = ResultStore(str(tmp_path), create=True)
        config = GPUConfig(**SMALL)
        fingerprint = fingerprint_of_arch(config)
        store.record_arch(fingerprint, arch_to_dict(config))
        descriptions = Query(store).arch_descriptions()
        assert set(descriptions) == {fingerprint}
        assert descriptions[fingerprint]["active_warps"] == 4


class TestRunnerSurface:
    def test_results_requires_a_store(self):
        runner = Runner(cache_dir=None)
        with pytest.raises(ValueError, match="no result store"):
            runner.results()

    def test_lookup_round_trip(self, tmp_path):
        from repro.experiments.runner import SimRequest
        runner = Runner(cache_dir=str(tmp_path))
        request = SimRequest("btree", "BL", GPUConfig(**SMALL))
        key = runner.request_key(request)
        assert runner.lookup(key) is None
        record = runner.simulate("btree", "BL", GPUConfig(**SMALL))
        assert runner.lookup(key) == record
        # A fresh runner reads it back from disk through the same path.
        fresh = Runner(cache_dir=str(tmp_path))
        assert fresh.lookup(key) == record

    def test_log_run_skips_idle_runners(self, tmp_path):
        runner = Runner(cache_dir=str(tmp_path))
        assert runner.log_run("nothing happened") is None
        runner.simulate("btree", "BL", GPUConfig(**SMALL))
        entry = runner.log_run("one sim")
        assert entry["label"] == "one sim"
        assert entry["simulations"] == 1
        (logged,) = runner.results().run_history()
        assert logged["label"] == "one sim"
