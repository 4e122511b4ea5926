"""Benchmarks: result-store write/read/compact throughput.

The store sits on every cache hit and every flushed record, so its
cost must stay negligible next to a ~1s simulation.  These benchmarks
put a synthetic record population through the full lifecycle: puts
(the per-record flush path of a running sweep), cold open + a read of
every key (what a resuming sweep pays), cold open + one read (a
re-render that needs a few keys of a big store), cold open +
``items()`` (a full query), and compaction.
"""

import shutil

from repro.store import ResultStore

#: A population large enough to span many database pages, small enough
#: to keep the benchmark sub-second.
RECORDS = 2000

PAYLOAD = {
    "workload": "synthetic", "policy": "LTRF", "ipc": 1.234,
    "cycles": 123456, "instructions": 152296, "prefetch_operations": 100,
    "resident_warps": 64, "activations": 10, "deactivations": 10,
    "mrf_reads": 1000, "mrf_writes": 900, "rfc_reads": 5000,
    "rfc_writes": 4000, "rfc_read_hits": 4500, "rfc_read_misses": 500,
    "rfc_fills": 600, "rfc_writebacks": 300, "l1_hit_rate": 0.87,
}


def _keys():
    return [
        f"synthetic-{index}__LTRF__0123456789abcdef__0__kfeedfacecafe"
        for index in range(RECORDS)
    ]


def _populate(root):
    store = ResultStore(root)
    for key in _keys():
        store.put(key, PAYLOAD)
    store.close()
    return store


def test_store_append(benchmark, tmp_path_factory):
    def append_all():
        root = str(tmp_path_factory.mktemp("store-append"))
        _populate(root)
        shutil.rmtree(root)

    benchmark.pedantic(append_all, rounds=3, iterations=1)


def test_store_cold_replay(benchmark, tmp_path_factory):
    root = str(tmp_path_factory.mktemp("store-replay"))
    _populate(root)
    keys = _keys()

    def replay():
        store = ResultStore(root)
        for key in keys:
            assert store.get(key) is not None
        store.close()

    benchmark.pedantic(replay, rounds=3, iterations=1)


def test_store_cold_get_one(benchmark, tmp_path_factory):
    root = str(tmp_path_factory.mktemp("store-get-one"))
    _populate(root)
    key = _keys()[RECORDS // 2]

    def get_one():
        store = ResultStore(root)
        assert store.get(key) == PAYLOAD
        store.close()

    benchmark.pedantic(get_one, rounds=10, iterations=1)


def test_store_cold_items(benchmark, tmp_path_factory):
    root = str(tmp_path_factory.mktemp("store-items"))
    _populate(root)

    def items():
        store = ResultStore(root)
        assert sum(1 for _ in store.items()) == RECORDS
        store.close()

    benchmark.pedantic(items, rounds=3, iterations=1)


def test_store_compact(benchmark, tmp_path_factory):
    def compact_fresh():
        root = str(tmp_path_factory.mktemp("store-compact"))
        _populate(root)
        report = ResultStore(root).compact()
        assert report.bytes_after <= report.bytes_before
        shutil.rmtree(root)

    benchmark.pedantic(compact_fresh, rounds=3, iterations=1)
