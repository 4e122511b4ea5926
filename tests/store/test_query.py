"""Tests for the store query API (repro.store.query)."""

import os
import shutil
import sys
import tempfile
import threading
import time
from dataclasses import fields as dataclass_fields

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.arch import GPUConfig
from repro.arch.serialize import arch_fingerprint, arch_to_dict
from repro.experiments import Runner
from repro.experiments.latency_tolerance import sweep_requests
from repro.experiments.runner import RunRecord
from repro.store import Query, ResultStore
from repro.store.result_store import _parse_key

#: Small enough to keep every simulation in this module instantaneous.
SMALL = dict(max_resident_warps=8, active_warps=4)

ARCH_FP = "0123456789abcdef"
KERNEL_FP = "feedfacefeedface"


def parse_key(key):
    """Parse ``key`` as the store parses it into its key columns."""
    return _parse_key(key)


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
        assert parsed.arch_fingerprint == arch_fingerprint(config)


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
        query = Query(ResultStore(str(tmp_path)))
        assert query.records() == []
        assert query.count() == 0
        assert query.stats().records == 0
        assert query.run_history() == []

    def test_records_are_typed_and_sorted(self, tmp_path):
        runner = self._sweep_store(tmp_path)
        records = runner.results().records()
        assert len(records) == 4
        assert [r.key for r in records] == sorted(r.key for r in records)
        assert all(r.key_ok for r in records)
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

    def test_multi_arch_sweep_has_one_fingerprint_per_latency(self,
                                                              tmp_path):
        """Each latency point is a distinct architecture fingerprint,
        and a projection names each (latency, policy) pair once."""
        runner = self._sweep_store(tmp_path)
        rows = runner.results().project("arch_fingerprint", "latency",
                                        "policy")
        assert len({fingerprint for fingerprint, _, _ in rows}) == 2
        assert len({(fingerprint, latency)
                    for fingerprint, latency, _ in rows}) == 2
        assert sorted((latency, policy) for _, latency, policy in rows) \
            == [(1.0, "BL"), (1.0, "LTRF"), (3.0, "BL"), (3.0, "LTRF")]

    def test_project(self, tmp_path):
        runner = self._sweep_store(tmp_path)
        rows = runner.results().where(policy="BL").project(
            "workload", "latency", "ipc"
        )
        assert len(rows) == 2
        assert all(row[0] == "btree" for row in rows)

    def test_rows_and_parsed_keys_are_read_only(self, tmp_path):
        key = f"btree__BL__a{ARCH_FP}__3__k{KERNEL_FP}"
        store = ResultStore(str(tmp_path), create=True)
        store.put(key, record_payload())
        store.close()
        (record,) = Query(store).records()
        assert (record.key, record.workload, record.policy, record.seed,
                record.arch_fingerprint, record.kernel_fingerprint,
                record.key_ok, record.latency) == (
            key, "btree", "BL", 3, ARCH_FP, KERNEL_FP, True, None)
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

    def test_undecodable_records_are_left_out_and_named(self, tmp_path):
        """A record whose payload does not decode is no row; the caller
        that asks gets its key whenever the filters do not rule it out
        (an unparsed key's filters need its payload, so only key_in
        can)."""
        import sqlite3

        from repro.store.result_store import DATABASE_FILE

        store = ResultStore(str(tmp_path))
        good, bad_btree, bad_kmeans = (
            f"{workload}__{policy}__a{ARCH_FP}__0__k{KERNEL_FP}"
            for workload, policy in (("btree", "BL"), ("btree", "LTRF"),
                                     ("kmeans", "BL")))
        for key in (good, bad_btree, bad_kmeans, "odd-key"):
            store.put(key, record_payload())
        with sqlite3.connect(os.path.join(str(tmp_path), DATABASE_FILE),
                             isolation_level=None) as connection:
            connection.execute("UPDATE records SET payload = '{' "
                               "WHERE key != ?", (good,))
        fresh = ResultStore(str(tmp_path))

        def read(query):
            undecodable = []
            keys = [record.key for record in
                    query.records(undecodable=undecodable)]
            return keys, sorted(undecodable)

        assert read(Query(fresh)) == (
            [good], sorted([bad_btree, bad_kmeans, "odd-key"]))
        assert read(Query(fresh).where(workload="btree")) == (
            [good], [bad_btree, "odd-key"])
        assert read(Query(fresh).where(key_in=[good, bad_kmeans])) == (
            [good], [bad_kmeans])
        assert [record.key for record in Query(fresh).records()] == [good]

    def test_run_history_sorted_by_time(self, tmp_path):
        store = ResultStore(str(tmp_path), create=True)
        store.append_run_log({"label": "second", "time": 200.0})
        store.append_run_log({"label": "first", "time": 100.0})
        history = Query(store).run_history()
        assert [entry["label"] for entry in history] == ["first", "second"]

    def test_where_takes_no_schema_filter(self, tmp_path):
        """Every filter is decided by the key; no filter reads the
        payload's shape."""
        query = Query(ResultStore(str(tmp_path)))
        with pytest.raises(TypeError, match="schema_ok"):
            query.where(schema_ok=True)
        assert not hasattr(query, "filter")


class TestRunnerSurface:
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
    arch_fingerprint(config): arch_to_dict(config)
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
                "kernel_fingerprint", "seed")


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
        "min_latency": maybe([0.5, 2.0, 5.0]),
        "max_latency": maybe([1.0, 2.5]),
        "key_in": st.one_of(st.none(), st.lists(
            st.sampled_from(keys + ["no-such-key"]), max_size=6)),
    })


def _brute_force(rows, wheres):
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
            if all(passes(record, where) for where in wheres)]


def _chain(query, wheres):
    for where in wheres:
        query = query.where(**where)
    return query


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
                store.record_arch(fingerprint, lambda: payload)
            for key, payload in entries:
                store.put(key, payload)
            base = Query(store)
            everything = base.records()
            assert {r.key for r in everything} == {k for k, _ in entries}
            keys = sorted({key for key, _ in entries})
            for _ in range(3):
                wheres = data.draw(st.lists(_wheres(keys), min_size=1,
                                            max_size=2))
                expected = _brute_force(Query(store).records(), wheres)
                assert _chain(Query(store), wheres).records() == expected
                assert _chain(base, wheres).records() == expected
            store.close()
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def test_rejected_keys_are_not_read(self, tmp_path, monkeypatch):
        """Keys the filters rule out never reach get(); keys that do
        not parse are read, since their identity is in the payload.
        A key_in set is checked before any read, and no query parses a
        key: the store parsed each one when it was put."""
        from repro.store import result_store

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
        parse = result_store._parse_key
        monkeypatch.setattr(result_store, "_parse_key", lambda key: (
            parses.append(key), parse(key))[1])
        assert Query(store).where(key_in=[matching]).count() == 1
        assert Query(store).where(workload="btree").count() == 2
        assert reads == [matching, matching, "not-a-cache-key"]
        assert parses == []

    def test_keys_are_parsed_once_when_put(self, tmp_path, monkeypatch):
        """put() parses each key into the store's key columns; queries,
        derived or fresh, parse none and still see keys put since."""
        from repro.store import result_store

        store = ResultStore(str(tmp_path))
        parses = []
        original = result_store._parse_key
        monkeypatch.setattr(result_store, "_parse_key", lambda key: (
            parses.append(key), original(key))[1])
        for seed in range(3):
            store.put(f"btree__BL__a{ARCH_FP}__{seed}__k{KERNEL_FP}",
                      record_payload())
        assert len(parses) == 3
        base = Query(store)
        assert base.where(seed=1).count() == 1
        assert base.where(policy="BL").count() == 3
        store.put(f"btree__LTRF__a{ARCH_FP}__0__k{KERNEL_FP}",
                  record_payload(policy="LTRF"))
        assert base.where(policy="LTRF").count() == 1    # a new key shows
        assert Query(ResultStore(str(tmp_path))).count() == 4
        assert len(parses) == 4

    def test_derived_queries_share_resolved_latencies(self, tmp_path,
                                                      monkeypatch):
        """A recorded arch sidecar is read once per lineage; a missing
        one is looked up again by each query, and resolves once
        record_arch writes it."""
        recorded, missing = (GPUConfig(mrf_latency_multiple=latency,
                                       **SMALL) for latency in (3.0, 5.0))
        recorded_fp = arch_fingerprint(recorded)
        missing_fp = arch_fingerprint(missing)
        store = ResultStore(str(tmp_path))
        store.record_arch(recorded_fp, lambda: arch_to_dict(recorded))
        for fingerprint in (recorded_fp, missing_fp):
            store.put(f"btree__BL__a{fingerprint}__0__k{KERNEL_FP}",
                      record_payload())
        reads = []
        original = ResultStore.arch_payload
        monkeypatch.setattr(ResultStore, "arch_payload", lambda self, fp: (
            reads.append(fp), original(self, fp))[1])
        base = Query(store)
        for where in (dict(workload="btree"), dict(policy="BL"),
                      dict(seed=0)):
            latencies = {r.arch_fingerprint: r.latency
                         for r in base.where(**where).records()}
            assert latencies == {recorded_fp: 3.0, missing_fp: None}
        assert (reads.count(recorded_fp), reads.count(missing_fp)) == (1, 3)
        store.record_arch(missing_fp, lambda: arch_to_dict(missing))
        for _ in range(2):
            assert base.where(min_latency=4.0).project("arch_fingerprint") \
                == [(missing_fp,)]
        assert (reads.count(recorded_fp), reads.count(missing_fp)) == (1, 4)


def cache_key(workload, policy, seed):
    return f"{workload}__{policy}__a{ARCH_FP}__{seed}__k{KERNEL_FP}"


class TestFilteredReads:
    """A key-filtered query selects its candidates in SQL and reads
    only them; it never hides a key, however recently put."""

    def test_fresh_store_decodes_only_the_returned_keys(self, tmp_path,
                                                        monkeypatch):
        from repro.store import result_store

        writer = ResultStore(str(tmp_path))
        for workload in ("btree", "kmeans", "bfs"):
            for policy in POLICIES:
                for seed in range(4):
                    writer.put(cache_key(workload, policy, seed),
                               record_payload(workload=workload,
                                              policy=policy))
        rewritten = cache_key("btree", "LTRF", 2)
        writer.put(rewritten, record_payload(policy="LTRF", ipc=3.0))
        writer.close()
        decoded = []
        real = result_store._decode

        def counting(text):
            decoded.append(text)
            return real(text)

        monkeypatch.setattr(result_store, "_decode", counting)
        fresh = ResultStore(str(tmp_path))
        rows = Query(fresh).where(workload="btree", policy="LTRF").records()
        assert [r.key for r in rows] == sorted(
            cache_key("btree", "LTRF", seed) for seed in range(4))
        assert next(r for r in rows if r.key == rewritten).ipc == 3.0
        assert len(decoded) == len(rows) == 4
        Query(fresh).where(workload="btree", policy="LTRF").records()
        assert len(decoded) == 4             # read again from the memo
        assert fresh.stats() == fresh.verify().stats

    def test_indexed_base_sees_keys_written_after_it(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put(cache_key("btree", "BL", 0), record_payload())
        store.put(cache_key("kmeans", "BL", 0),
                  record_payload(workload="kmeans"))
        base = Query(store)
        assert base.count() == 2                     # indexes every key
        assert base.where(workload="btree").count() == 1
        store.put(cache_key("btree", "BL", 1), record_payload())
        assert [r.seed for r in base.where(workload="btree").records()] \
            == [0, 1]
        other = ResultStore(str(tmp_path))
        other.put(cache_key("btree", "BL", 2), record_payload())
        other.close()
        assert [r.seed for r in base.where(workload="btree").records()] \
            == [0, 1, 2]
        assert base.where(workload="kmeans").count() == 1
        store.close()

    def test_concurrent_puts_and_derived_queries(self, tmp_path):
        """Filtered queries derived from one base on many threads, while
        writers put new keys: no row twice, every row matching its
        filter, every key put before the query started returned."""
        store = ResultStore(str(tmp_path))
        workloads = ("btree", "kmeans", "bfs")
        base = Query(store)
        done = []                      # keys whose put() has returned
        problems = []
        deadline = time.monotonic() + 1.5
        filters = [dict(workload=w) for w in workloads] + [
            dict(workload="btree", policy="LTRF"), dict(policy="BL")]

        def write(offset, target):
            seed = offset
            while time.monotonic() < deadline and seed < offset + 400:
                key = cache_key(workloads[seed % 3], POLICIES[seed % 2],
                                seed)
                target.put(key, record_payload(
                    workload=workloads[seed % 3], policy=POLICIES[seed % 2]))
                done.append(key)
                seed += 1

        def query(index):
            turn = index
            while time.monotonic() < deadline:
                where = filters[turn % len(filters)]
                turn += 1
                before = list(done)
                rows = base.where(**where).records()
                keys = [r.key for r in rows]
                if len(set(keys)) != len(keys):
                    problems.append(f"duplicate rows for {where}")
                if any(getattr(r, name) != value for r in rows
                       for name, value in where.items()):
                    problems.append(f"a row outside {where}")
                wanted = {key for key in before
                          if all(getattr(parse_key(key), name) == value
                                 for name, value in where.items())}
                missing = wanted - set(keys)
                if missing:
                    problems.append(f"{where} missed {sorted(missing)[:3]}")

        def guarded(body, *args):
            try:
                body(*args)
            except Exception as error:     # failed below, not lost
                problems.append(repr(error))

        second = ResultStore(str(tmp_path))
        jobs = [(write, 0, store), (write, 1000, store), (write, 2000, second)]
        jobs += [(query, index)
                 for index in range(max(4, 2 * (os.cpu_count() or 1)))]
        threads = [threading.Thread(target=guarded, args=job) for job in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        second.close()
        assert problems == []
        assert len(done) > 10
        everything = Query(store).records()
        for where in filters:
            expected = [r for r in everything
                        if all(getattr(r, name) == value
                               for name, value in where.items())]
            assert base.where(**where).records() == expected
        store.close()
