"""Tests for the SQLite result store."""

import json
import os
import signal
import sqlite3
import subprocess
import sys
import threading
import time

import pytest

from repro.store import Query, ResultStore, StoreError
from repro.store.result_store import DATABASE_FILE, FORMAT_FILE

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src")


def raw_connection(root):
    """A connection of the test's own to the store's database file."""
    return sqlite3.connect(os.path.join(root, DATABASE_FILE),
                           isolation_level=None)


def python(code, *args, **popen):
    """Start ``python -c code args`` with ``src`` on its path."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.Popen([sys.executable, "-c", code, *map(str, args)],
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, **popen)


class TestBasics:
    def test_put_get_roundtrip(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put("some__key", {"ipc": 1.5, "workload": "x"})
        assert store.get("some__key") == {"ipc": 1.5, "workload": "x"}
        assert list(store.keys()) == ["some__key"]
        assert store.get("other__key") is None

    def test_persists_across_instances(self, tmp_path):
        first = ResultStore(str(tmp_path))
        first.put("k1", {"v": 1})
        first.put("k2", {"v": 2})
        first.close()
        fresh = ResultStore(str(tmp_path))
        assert fresh.get("k1") == {"v": 1}
        assert fresh.get("k2") == {"v": 2}
        assert sorted(fresh.keys()) == ["k1", "k2"]
        assert dict(fresh.items()) == {"k1": {"v": 1}, "k2": {"v": 2}}

    def test_last_write_wins(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put("k", {"v": 1})
        store.put("k", {"v": 2})
        assert store.get("k") == {"v": 2}
        store.close()
        fresh = ResultStore(str(tmp_path))
        assert fresh.get("k") == {"v": 2}
        assert fresh.stats().records == 1

    def test_store_usable_after_close(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put("k1", {"v": 1})
        store.close()
        store.close()                            # closing twice is fine
        assert ResultStore(str(tmp_path)).get("k1") == {"v": 1}
        store.put("k2", {"v": 2})                # reopens
        assert sorted(store.keys()) == ["k1", "k2"]
        store.close()

    def test_database_is_in_wal_mode(self, tmp_path):
        ResultStore(str(tmp_path)).put("k", {"v": 1})
        with raw_connection(str(tmp_path)) as connection:
            (mode,), = connection.execute("PRAGMA journal_mode")
        assert mode == "wal"

    def test_format_marker_written_and_checked(self, tmp_path):
        ResultStore(str(tmp_path))
        marker = tmp_path / FORMAT_FILE
        assert json.loads(marker.read_text()) == {
            "format": "ltrf-store", "version": 2}
        marker.write_text(json.dumps(
            {"format": "ltrf-store", "version": 999}
        ))
        with pytest.raises(StoreError, match="v999"):
            ResultStore(str(tmp_path))

    def test_jsonl_store_refused_with_a_remedy(self, tmp_path):
        """A store of the JSONL format this build replaced is refused,
        naming the directory and what to do; nothing is written."""
        root = tmp_path / "old-cache"
        (root / "shard-00").mkdir(parents=True)
        (root / FORMAT_FILE).write_text(json.dumps(
            {"format": "ltrf-store", "version": 1, "shards": 16}))
        for create in (True, False):
            with pytest.raises(StoreError) as raised:
                ResultStore(str(root), create=create)
            message = str(raised.value)
            assert str(root) in message
            assert "delete it" in message
            assert "LTRF_CACHE_DIR/--dir" in message
            assert "re-run cold" in message
        assert sorted(os.listdir(root)) == [FORMAT_FILE, "shard-00"]

    @pytest.mark.parametrize("marker", ["not json\n", "[1, 2]\n"])
    def test_unreadable_marker_is_a_store_error(self, tmp_path, marker):
        (tmp_path / FORMAT_FILE).write_text(marker)
        with pytest.raises(StoreError, match="unreadable store marker"):
            ResultStore(str(tmp_path))

    def test_unreadable_database_is_a_store_error(self, tmp_path):
        ResultStore(str(tmp_path)).close()
        (tmp_path / DATABASE_FILE).write_bytes(b"not a database " * 100)
        with pytest.raises(StoreError, match="unreadable store database"):
            ResultStore(str(tmp_path))

    def test_open_without_create_requires_marker(self, tmp_path):
        with pytest.raises(StoreError, match="not a result store"):
            ResultStore(str(tmp_path), create=False)
        assert os.listdir(tmp_path) == []         # untouched
        ResultStore(str(tmp_path)).put("k", {"v": 1})
        reader = ResultStore(str(tmp_path), create=False)
        assert reader.get("k") == {"v": 1}

    def test_foreign_files_ignored(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put("k", {"v": 1})
        (tmp_path / "README.txt").write_text("not a store file")
        fresh = ResultStore(str(tmp_path))
        assert fresh.get("k") == {"v": 1}
        assert fresh.verify().ok

    def test_importing_the_cli_does_not_load_sqlite3(self):
        child = python("import sys, repro.cli; "
                       "print('sqlite3' in sys.modules)")
        out, err = child.communicate(timeout=120)
        assert child.returncode == 0, err
        assert out.strip() == "False"


class TestKeyColumns:
    def test_put_files_a_cache_key_under_its_columns(self, tmp_path):
        store = ResultStore(str(tmp_path))
        key = "runs__dir/x.kernel.json__LTRF+__a0123abcd__7__kfeedface"
        store.put(key, {"v": 1})
        store.put("not-a-cache-key", {"v": 2})
        with raw_connection(str(tmp_path)) as connection:
            rows = connection.execute(
                "SELECT key, workload, policy, arch_fingerprint, seed, "
                "kernel_fingerprint FROM records ORDER BY key").fetchall()
        assert rows == [
            ("not-a-cache-key", None, None, None, None, None),
            (key, "runs__dir/x.kernel.json", "LTRF+", "0123abcd", 7,
             "feedface"),
        ]

    def test_select_keeps_unparsed_keys_as_candidates(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put("btree__BL__a01__0__k02", {"v": 1})
        store.put("kmeans__BL__a01__0__k02", {"v": 2})
        store.put("odd-key", {"workload": "btree"})
        assert [key for key, _ in store.select([("workload", "btree")])] \
            == ["btree__BL__a01__0__k02", "odd-key"]
        assert [parsed is None for _, parsed in store.select()] \
            == [False, False, True]

    def test_select_filters_only_on_key_fields(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put("btree__BL__a01__7__k02", {"v": 1})
        assert store.select([("arch_fingerprint", "01"), ("seed", 7),
                             ("kernel_fingerprint", "02")]) \
            == [("btree__BL__a01__7__k02",
                 ("btree", "BL", "01", 7, "02"))]
        with pytest.raises(ValueError, match="no key column"):
            store.select([("payload", "x")])
        with pytest.raises(ValueError, match="no key column"):
            store.select([("1 = 1) OR (1", 1)])


class TestInjectiveNaming:
    """The regression the store exists for: no key aliasing, ever."""

    def test_legacy_aliasing_keys_resolve_to_distinct_records(self,
                                                              tmp_path):
        # A file-backed workload path `a/b` and a workload *named*
        # `a_b` shared one file name in the flat pre-store cache, which
        # sanitised '/' to '_'; the store addresses records by the full
        # key string.
        slashed = "a/b__BL__cfg0__0__kdeadbeef"
        underscored = "a_b__BL__cfg0__0__kdeadbeef"
        store = ResultStore(str(tmp_path))
        store.put(slashed, {"workload": "a/b", "ipc": 1.0})
        store.put(underscored, {"workload": "a_b", "ipc": 2.0})
        assert store.get(slashed) == {"workload": "a/b", "ipc": 1.0}
        assert store.get(underscored) == {"workload": "a_b", "ipc": 2.0}
        store.close()
        fresh = ResultStore(str(tmp_path))
        assert fresh.get(slashed) == {"workload": "a/b", "ipc": 1.0}
        assert fresh.get(underscored) == {"workload": "a_b", "ipc": 2.0}

    def test_plus_policy_keys_distinct(self, tmp_path):
        # The flat pre-store cache spelled '+' as 'plus' in file names.
        plus = "wl__LTRF+__cfg0__0__kdeadbeef"
        spelled = "wl__LTRFplus__cfg0__0__kdeadbeef"
        store = ResultStore(str(tmp_path))
        store.put(plus, {"policy": "LTRF+"})
        store.put(spelled, {"policy": "LTRFplus"})
        assert store.get(plus) == {"policy": "LTRF+"}
        assert store.get(spelled) == {"policy": "LTRFplus"}

    def test_hostile_key_characters_round_trip(self, tmp_path):
        # Keys are data, not filenames: newlines, separators and very
        # long paths must all round-trip.
        keys = [
            "with\nnewline__BL__c__0__k1",
            "with\ttab__BL__c__0__k1",
            ("x" * 500) + "__BL__c__0__k1",
            'quote"and\\backslash__BL__c__0__k1',
        ]
        store = ResultStore(str(tmp_path))
        for index, key in enumerate(keys):
            store.put(key, {"i": index})
        store.close()
        fresh = ResultStore(str(tmp_path))
        for index, key in enumerate(keys):
            assert fresh.get(key) == {"i": index}


class TestReads:
    def test_a_read_key_is_served_from_the_memo(self, tmp_path,
                                                monkeypatch):
        from repro.store import result_store

        ResultStore(str(tmp_path)).put("k", {"v": 1})
        decoded = []
        real = result_store._decode
        monkeypatch.setattr(result_store, "_decode", lambda text: (
            decoded.append(text), real(text))[1])
        fresh = ResultStore(str(tmp_path))
        assert fresh.get("k") == {"v": 1}
        assert fresh.get("k") == {"v": 1}
        assert len(decoded) == 1

    def test_a_miss_sees_another_writers_commit(self, tmp_path):
        reader = ResultStore(str(tmp_path))
        writer = ResultStore(str(tmp_path))
        assert reader.get("k") is None
        writer.put("k", {"v": 1})
        assert reader.get("k") == {"v": 1}
        assert list(reader.keys()) == ["k"]

    def test_items_serve_another_writers_re_put(self, tmp_path):
        """get() serves a key it has read from the memo; items() decodes
        every row it reads, so it shows a re-put by another writer."""
        reader = ResultStore(str(tmp_path))
        writer = ResultStore(str(tmp_path))
        writer.put("k", {"v": 1})
        assert reader.get("k") == {"v": 1}
        writer.put("k", {"v": 2})
        assert dict(reader.items()) == {"k": {"v": 2}}
        assert reader.get("k") == {"v": 1}

    def test_corrupt_payload_reads_as_missing_and_fails_verify(
            self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put("good__BL__a01__0__k02", {"workload": "good"})
        with raw_connection(str(tmp_path)) as connection:
            connection.execute(
                "INSERT INTO records (key, payload) VALUES (?, ?)",
                ("bad", "{this is not json}"))
            connection.execute(
                "INSERT INTO records (key, payload) VALUES (?, ?)",
                ("list", "[1, 2]"))
        fresh = ResultStore(str(tmp_path))
        assert fresh.get("bad") is None and fresh.get("list") is None
        assert [r.key for r in Query(fresh).records()] \
            == ["good__BL__a01__0__k02"]
        report = fresh.verify()
        assert not report.ok
        assert report.corrupt == ["records 'bad'", "records 'list'"]
        assert report.stats == fresh.stats()
        assert report.stats.records == 3
        assert "CORRUPT     2 row(s)" in report.render()
        assert report.render().endswith("verdict     FAILED")


class TestMaintenance:
    def test_stats_equal_verify_after_puts_reputs_and_compact(
            self, tmp_path):
        """Store health from SQL counts equals the row-by-row pass of
        verify, on the writing instance and on a fresh one."""
        store = ResultStore(str(tmp_path))
        other = ResultStore(str(tmp_path))

        def check(expected):
            for reader in (store, other, ResultStore(str(tmp_path))):
                stats = reader.stats()
                assert stats == reader.verify().stats
                assert (stats.records, stats.archs, stats.runs) == expected

        check((0, 0, 0))
        for index in range(30):
            (store, other)[index % 2].put(f"k{index}", {"v": index})
        store.record_arch("0123", lambda: {"mrf_latency_multiple": 2.0})
        other.append_run_log({"label": "one"})
        check((30, 1, 1))
        for index in range(0, 30, 3):
            other.put(f"k{index}", {"v": -index, "pad": "x" * 200})
        check((30, 1, 1))
        report = store.compact()
        assert report.bytes_after <= report.bytes_before
        check((30, 1, 1))
        assert store.verify().ok
        assert store.stats().render() + "\n  verdict     OK" \
            == store.verify().render()

    def test_compact_reclaims_replaced_records(self, tmp_path):
        store = ResultStore(str(tmp_path))
        for index in range(300):
            store.put(f"k{index}", {"v": index, "pad": "x" * 500})
        for index in range(300):
            store.put(f"k{index}", {"v": index})
        report = store.compact()
        assert report.bytes_after < report.bytes_before
        assert report.render() == (f"compacted {tmp_path}: "
                                   f"{report.bytes_before} -> "
                                   f"{report.bytes_after} bytes")
        again = store.compact()
        assert again.bytes_before == again.bytes_after == report.bytes_after
        store.put("k-new", {"v": "new"})        # usable afterwards
        fresh = ResultStore(str(tmp_path))
        assert fresh.get("k7") == {"v": 7}
        assert fresh.get("k-new") == {"v": "new"}
        assert fresh.stats().records == 301

    def test_compaction_of_empty_store(self, tmp_path):
        report = ResultStore(str(tmp_path)).compact()
        assert report.bytes_after <= report.bytes_before

    def test_run_log_and_arch_manifest(self, tmp_path):
        store = ResultStore(str(tmp_path))
        built = []

        def describe():
            built.append(None)
            return {"mrf_latency_multiple": 3.0}

        for _ in range(3):
            store.record_arch("00ff", describe)
        assert len(built) == 1
        ResultStore(str(tmp_path)).record_arch(        # never rewritten
            "00ff", lambda: {"ignored": True})
        store.append_run_log({"label": "a"})
        store.append_run_log({"label": "b"})
        with raw_connection(str(tmp_path)) as connection:
            connection.execute("INSERT INTO runs (payload) VALUES ('{')")
        fresh = ResultStore(str(tmp_path))
        assert fresh.arch_payload("00ff") == {"mrf_latency_multiple": 3.0}
        assert fresh.arch_payload("beef") is None
        assert [entry["label"] for entry in fresh.iter_run_logs()] \
            == ["a", "b"]


KILLED_WRITER = """
import sys
from repro.store import ResultStore

store = ResultStore(sys.argv[1])
index = 0
while True:
    key = f"k{index}"
    store.put(key, {"index": index, "pad": "x" * (index % 300)})
    print(key, flush=True)
    index += 1
"""

WRITER = """
import os, sys, time
from repro.store import ResultStore

root, tag, count, go = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
print("ready", flush=True)
while not os.path.exists(go):
    time.sleep(0.001)
store = ResultStore(root)
for index in range(count):
    store.put(f"{tag}-{index}", {"tag": tag, "index": index})
store.close()
"""


class TestProcesses:
    def test_sigkilled_writer_loses_no_returned_put(self, tmp_path):
        """A writer killed mid-loop: every put it reported as returned
        is in the store with its payload, and verify is clean."""
        root = str(tmp_path / "store")
        child = python(KILLED_WRITER, root)
        reported = []
        deadline = time.monotonic() + 60.0
        while len(reported) < 200 and time.monotonic() < deadline:
            line = child.stdout.readline()
            if not line:
                break
            reported.append(line.strip())
        child.send_signal(signal.SIGKILL)
        child.communicate(timeout=30)
        assert child.returncode == -signal.SIGKILL
        assert len(reported) >= 200, "the writer stopped early"
        store = ResultStore(root, create=False)
        for key in reported:
            index = int(key[1:])
            assert store.get(key) == {"index": index,
                                      "pad": "x" * (index % 300)}
        report = store.verify()
        assert report.ok
        assert report.stats.records >= len(reported)

    def test_two_processes_write_one_store_at_once(self, tmp_path):
        """Two processes create one store and put disjoint keys into it
        at the same time: both finish, no "database is locked", and
        every key is readable."""
        root, go = tmp_path / "store", tmp_path / "go"
        count = 1500
        children = [python(WRITER, root, tag, count, go)
                    for tag in ("a", "b")]
        for child in children:
            assert child.stdout.readline().strip() == "ready"
        go.write_text("")
        for child in children:
            _, err = child.communicate(timeout=120)
            assert child.returncode == 0, err
            assert "locked" not in err
        store = ResultStore(str(root), create=False)
        for tag in ("a", "b"):
            for index in range(count):
                assert store.get(f"{tag}-{index}") == {"tag": tag,
                                                       "index": index}
        assert store.stats().records == 2 * count
        assert store.verify().ok

    def test_pool_workers_never_call_the_store(self, tmp_path,
                                               monkeypatch):
        """A jobs=2 sweep forks pool workers from a process with an open
        connection, which SQLite forbids using across fork(): every
        store call comes from the sweeping process."""
        from repro.arch import GPUConfig
        from repro.experiments import Runner, SimRequest
        from repro.launchers import pool

        log = tmp_path / "pids"

        def logged(function):
            def wrapper(*args, **kwargs):
                with open(log, "a") as handle:
                    handle.write(f"{os.getpid()}\n")
                return function(*args, **kwargs)
            return wrapper

        for name in ("get", "put", "keys", "items", "select", "close",
                     "record_arch", "arch_payload", "append_run_log",
                     "iter_run_logs", "stats", "verify", "compact",
                     "_connection"):
            monkeypatch.setattr(ResultStore, name,
                                logged(getattr(ResultStore, name)))
        worker_log = tmp_path / "workers"

        def run_in_worker(request):
            with open(worker_log, "a") as handle:
                handle.write(f"{os.getpid()}\n")
            return simulate(request)

        simulate = pool.execute_request_with_telemetry
        monkeypatch.setattr(pool, "execute_request_with_telemetry",
                            run_in_worker)
        small = GPUConfig(max_resident_warps=8, active_warps=4)
        runner = Runner(cache_dir=str(tmp_path / "store"))
        runner.simulate_many([
            SimRequest(workload, policy, small)
            for workload in ("btree", "kmeans") for policy in ("BL", "RFC")
        ], jobs=2)
        runner.log_run("fork test")
        assert runner.stats.simulated == 4
        workers = set(worker_log.read_text().split())
        assert workers and str(os.getpid()) not in workers
        assert set(log.read_text().split()) == {str(os.getpid())}
        assert runner.results().count() == 4


class TestSharedInstance:
    def test_queries_and_puts_race_on_one_instance(self, tmp_path):
        """Query threads iterate and read stats while writer threads
        put into the same instance (the service's shape), and a thread
        gets from another instance: no iteration error, every put
        readable and counted, every get a put payload, and the live
        view equals a fresh instance's."""
        store = ResultStore(str(tmp_path))
        fresh_reader = ResultStore(str(tmp_path))
        writers, readers, puts = 2, 2, 400
        errors = []
        writing = threading.Event()
        writing.set()

        def write(writer):
            try:
                for index in range(puts):
                    store.put(f"w{writer}-{index}", {"v": index})
            except Exception as error:   # noqa: BLE001 - reported below
                errors.append(error)

        def read():
            try:
                while writing.is_set():
                    Query(store).records()
                    store.stats()
            except Exception as error:   # noqa: BLE001 - reported below
                errors.append(error)

        def get():
            try:
                while writing.is_set():
                    for index in range(0, puts, 7):
                        for writer in range(writers):
                            payload = fresh_reader.get(f"w{writer}-{index}")
                            if payload not in (None, {"v": index}):
                                errors.append(payload)
            except Exception as error:   # noqa: BLE001 - reported below
                errors.append(error)

        threads = [threading.Thread(target=write, args=(n,))
                   for n in range(writers)]
        threads += [threading.Thread(target=read) for _ in range(readers)]
        threads.append(threading.Thread(target=get))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads[:writers]:
                thread.join(timeout=60.0)
            writing.clear()
            for thread in threads[writers:]:
                thread.join(timeout=60.0)
        finally:
            writing.clear()
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for writer in range(writers):
            for index in range(puts):
                assert store.get(f"w{writer}-{index}") == {"v": index}
        live = {key: store.get(key) for key in store.keys()}
        assert len(live) == writers * puts
        assert store.stats() == store.verify().stats
        assert live == {key: fresh_reader.get(key) for key in live}
        assert fresh_reader.stats() == store.stats()
        store.close()
        fresh = ResultStore(str(tmp_path))
        assert live == {key: fresh.get(key) for key in fresh.keys()}
        assert fresh.verify().ok

    def test_derived_queries_race_puts_on_one_base(self, tmp_path):
        """Filtered queries derived from one base query (the service's
        shape) race writers on one store instance: every row they
        return satisfies their filter, and afterwards each filter on
        the base equals a brute force over a fresh query."""
        store = ResultStore(str(tmp_path))
        base = Query(store)
        filters = [{"workload": "btree"}, {"policy": "LTRF"},
                   {"workload": "kmeans", "policy": "BL"}, {"seed": 7}]
        writers, puts = 2, 300
        errors, violations = [], []
        writing = threading.Event()
        writing.set()

        def write(writer):
            try:
                for index in range(puts):
                    workload = ("btree", "kmeans")[index % 2]
                    policy = ("BL", "LTRF")[index // 2 % 2]
                    store.put(f"{workload}__{policy}__a0123456789abcdef__"
                              f"{index}__k{writer:016x}", {"v": index})
            except Exception as error:   # noqa: BLE001 - reported below
                errors.append(error)

        def read(wanted):
            try:
                while writing.is_set():
                    for record in base.where(**wanted).records():
                        if any(getattr(record, name) != value
                               for name, value in wanted.items()):
                            violations.append((wanted, record.key))
            except Exception as error:   # noqa: BLE001 - reported below
                errors.append(error)

        threads = [threading.Thread(target=write, args=(n,))
                   for n in range(writers)]
        threads += [threading.Thread(target=read, args=(wanted,))
                    for wanted in filters]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads[:writers]:
                thread.join(timeout=60.0)
            writing.clear()
            for thread in threads[writers:]:
                thread.join(timeout=60.0)
        finally:
            writing.clear()
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and violations == []
        everything = Query(store).records()
        assert len(everything) == writers * puts
        for wanted in filters:
            expected = [record for record in everything
                        if all(getattr(record, name) == value
                               for name, value in wanted.items())]
            assert expected
            assert base.where(**wanted).records() == expected
        store.close()
