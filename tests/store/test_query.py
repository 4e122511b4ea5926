"""Tests for the store query API (repro.store.query)."""

import shutil
import tempfile
from dataclasses import fields as dataclass_fields

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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
        assert parsed.seed == 7
        assert parsed.kernel_fingerprint == KERNEL_FP

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
        f"btree__BL__{ARCH_FP}__0__k{KERNEL_FP}",     # pre-arch-fp key
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

    def test_rows_and_parsed_keys_are_read_only(self, tmp_path):
        key = f"btree__BL__a{ARCH_FP}__3__k{KERNEL_FP}"
        store = ResultStore(str(tmp_path), create=True)
        store.put(key, record_payload())
        store.close()
        (record,) = Query(store).records()
        assert (record.key, record.workload, record.policy, record.seed,
                record.arch_fingerprint, record.kernel_fingerprint,
                record.schema_ok, record.key_ok, record.latency) == (
            key, "btree", "BL", 3, ARCH_FP, KERNEL_FP, True, True, None)
        with pytest.raises(AttributeError):
            record.policy = "LTRF"
        with pytest.raises(AttributeError):
            parse_key(key).seed = 4

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


# -- filter pushdown and the shared parse memo --------------------------------

KNOWN_ARCHS = {
    fingerprint_of_arch(config): arch_to_dict(config)
    for config in (GPUConfig(mrf_latency_multiple=latency, **SMALL)
                   for latency in (1.0, 3.0))
}
#: Fingerprints a key may name: two with a manifest entry, one without.
ARCH_FPS = sorted(KNOWN_ARCHS) + [ARCH_FP]
WORKLOADS = ["btree", "kmeans", "runs__dir/my__kernel.json"]
POLICIES = ["BL", "LTRF"]
SEEDS = [0, 1, 7]
KERNEL_FPS = [KERNEL_FP, "00c0ffee"]
WHERE_FIELDS = ("workload", "policy", "arch_fingerprint",
                "kernel_fingerprint", "seed", "schema_ok")


def _entries():
    identity = st.tuples(st.sampled_from(WORKLOADS), st.sampled_from(POLICIES),
                         st.sampled_from(ARCH_FPS), st.sampled_from(SEEDS),
                         st.sampled_from(KERNEL_FPS))
    current = identity.map(
        lambda i: f"{i[0]}__{i[1]}__a{i[2]}__{i[3]}__k{i[4]}")
    # Look like cache keys but do not parse (the first is the format
    # from before the ``a<fp>`` segment); their text names a workload
    # the payload may contradict.
    malformed = identity.flatmap(lambda i: st.sampled_from([
        f"{i[0]}__{i[1]}__{i[2]}__{i[3]}__k{i[4]}",
        f"{i[0]}__{i[1]}__zz{i[2]}__{i[3]}__k{i[4]}",
        f"{i[0]}__{i[1]}__a{i[2]}__s{i[3]}__k{i[4]}",
        f"{i[0]}__{i[1]}__a{i[2]}__{i[3]}__k{i[4].upper()}",
        f"{i[0]}-{i[1]}",
    ]))
    payload = st.builds(
        lambda workload, policy, ipc, stale: (
            {"workload": workload, "policy": policy, "ipc": ipc} if stale
            else record_payload(workload=workload, policy=policy, ipc=ipc)
        ),
        st.sampled_from(WORKLOADS + ["mystery"]), st.sampled_from(POLICIES),
        st.sampled_from([0.5, 1.0, 2.0]), st.booleans(),
    )
    return st.lists(st.tuples(st.one_of(current, malformed),
                              payload), min_size=1, max_size=24)


def _wheres(keys):
    def maybe(values):
        return st.one_of(st.none(), st.sampled_from(values))

    return st.fixed_dictionaries({
        "workload": maybe(WORKLOADS + ["mystery", ""]),
        "policy": maybe(POLICIES),
        "arch_fingerprint": maybe(ARCH_FPS + [""]),
        "kernel_fingerprint": maybe(KERNEL_FPS + [""]),
        "seed": maybe(SEEDS),
        "schema_ok": maybe([True, False]),
        "min_latency": maybe([0.5, 2.0, 5.0]),
        "max_latency": maybe([1.0, 2.5]),
        "key_in": st.one_of(st.none(), st.lists(
            st.sampled_from(keys + ["no-such-key"]), max_size=6)),
    })


#: Row predicates chained after the where() calls, by name.
FILTERS = {
    "all": lambda r: True,
    "ipc>=1": lambda r: r.ipc is not None and r.ipc >= 1.0,
    "key_ok": lambda r: r.key_ok,
    "no-latency": lambda r: r.latency is None,
}


def _brute_force(rows, wheres, predicate):
    """Every where() constraint, evaluated on the finished rows."""
    def passes(record, where):
        if where["key_in"] is not None and record.key not in where["key_in"]:
            return False
        if any(where[name] is not None and getattr(record, name) != where[name]
               for name in WHERE_FIELDS):
            return False
        low, high = where["min_latency"], where["max_latency"]
        if (low is not None or high is not None) and record.latency is None:
            return False
        return (low is None or record.latency >= low) \
            and (high is None or record.latency <= high)

    return [record for record in rows
            if all(passes(record, where) for where in wheres)
            and predicate(record)]


def _chain(query, wheres, predicate):
    for where in wheres:
        query = query.where(**where)
    return query.filter(predicate)


class TestFilterPushdown:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(entries=_entries(), data=st.data())
    def test_filtered_queries_equal_brute_force(self, entries, data):
        """A pushed-down where() chain returns exactly what filtering
        every row of an unfiltered query returns, on a fresh query and
        on one derived from a base that has already parsed the keys;
        the unfiltered query itself sees every stored key."""
        root = tempfile.mkdtemp(prefix="query-pushdown-")
        try:
            store = ResultStore(root)
            for fingerprint, payload in KNOWN_ARCHS.items():
                store.record_arch(fingerprint, payload)
            for key, payload in entries:
                store.put(key, payload)
            base = Query(store)
            everything = base.records()
            assert {r.key for r in everything} == {k for k, _ in entries}
            keys = sorted({key for key, _ in entries})
            for _ in range(3):
                wheres = data.draw(st.lists(_wheres(keys), min_size=1,
                                            max_size=2))
                name = data.draw(st.sampled_from(sorted(FILTERS)))
                expected = _brute_force(Query(store).records(), wheres,
                                        FILTERS[name])
                assert _chain(Query(store), wheres, FILTERS[name]) \
                    .records() == expected
                assert _chain(base, wheres, FILTERS[name]).records() \
                    == expected
            store.close()
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def test_rejected_keys_are_not_read(self, tmp_path, monkeypatch):
        """Keys the filters rule out never reach get(); keys that do
        not parse are read, since their identity is in the payload.
        A key_in set is checked before any parse."""
        from repro.store import query as query_module

        store = ResultStore(str(tmp_path))
        matching = f"btree__BL__a{ARCH_FP}__0__k{KERNEL_FP}"
        store.put(matching, record_payload())
        store.put(f"kmeans__BL__a{ARCH_FP}__0__k{KERNEL_FP}",
                  record_payload(workload="kmeans"))
        store.put("not-a-cache-key", record_payload(workload="btree"))
        reads = []
        original = ResultStore.get
        monkeypatch.setattr(ResultStore, "get", lambda self, key: (
            reads.append(key), original(self, key))[1])
        rows = Query(store).where(workload="btree").records()
        assert [r.key for r in rows] == [matching, "not-a-cache-key"]
        assert sorted(reads) == [matching, "not-a-cache-key"]
        reads.clear()
        parses = []
        parse = query_module._parse_key
        monkeypatch.setattr(query_module, "_parse_key", lambda key, share: (
            parses.append(key), parse(key, share))[1])
        assert Query(store).where(key_in=[matching]).count() == 1
        assert reads == parses == [matching]

    def test_derived_queries_share_one_parse_per_key(self, tmp_path,
                                                     monkeypatch):
        """Queries derived from one base parse each key once, new keys
        included, and share one copy of each key field; a fresh query
        parses afresh."""
        from repro.store import query as query_module

        store = ResultStore(str(tmp_path))
        for seed in range(3):
            store.put(f"btree__BL__a{ARCH_FP}__{seed}__k{KERNEL_FP}",
                      record_payload())
        parses = []
        original = query_module._parse_key
        monkeypatch.setattr(query_module, "_parse_key", lambda key, share: (
            parses.append(key), original(key, share))[1])
        base = Query(store)
        assert base.where(seed=1).count() == 1
        assert base.where(policy="BL").filter(lambda r: r.seed).count() == 2
        assert len(parses) == 3
        store.put(f"btree__LTRF__a{ARCH_FP}__0__k{KERNEL_FP}",
                  record_payload(policy="LTRF"))
        assert base.where(policy="LTRF").count() == 1    # a new key shows
        assert len(parses) == 4
        Query(store).records()                           # a fresh lineage
        assert len(parses) == 8
        (first, second) = (base.where(seed=0).records()[0],
                           base.where(seed=1).records()[0])
        assert first.arch_fingerprint is second.arch_fingerprint
