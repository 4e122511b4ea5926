"""Property: ``ResultStore.stats()``, from SQL counts, equals the
row-by-row pass ``verify().stats`` after any interleaving of puts,
re-puts, manifest and run-log writes, damaged payloads and compaction
-- on every live instance and on a fresh one -- and ``items()`` of
every instance yields the last payload put under each key that is not
damaged.  (``get()`` may serve a key an instance has already read from
its memo; ``test_result_store.py`` pins that.)"""

import shutil
import sqlite3
import tempfile

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.store import ResultStore
from repro.store.result_store import DATABASE_FILE

KEYS = st.sampled_from([f"k{n}" for n in range(6)]
                       + ["btree__BL__a01__0__k02", "kmeans__RFC__a03__1__k04"])
WHICH = st.integers(min_value=0, max_value=1)


class StoreOperations(RuleBasedStateMachine):
    """Two store instances sharing one directory, plus a raw writer
    that stores payloads that do not decode (what only tampering or
    disk damage leaves behind)."""

    def __init__(self):
        super().__init__()
        self.root = tempfile.mkdtemp(prefix="store-stats-")
        self.stores = [ResultStore(self.root) for _ in range(2)]
        #: key -> the payload last put, or None once damaged.
        self.model = {}

    def teardown(self):
        for store in self.stores:
            store.close()
        shutil.rmtree(self.root, ignore_errors=True)

    @rule(which=WHICH, key=KEYS, value=st.integers(0, 2),
          pad=st.integers(0, 400))
    def put(self, which, key, value, pad):
        payload = {"v": value, "pad": "x" * pad}
        self.stores[which].put(key, payload)
        self.model[key] = payload

    @rule(which=WHICH)
    def close(self, which):
        self.stores[which].close()

    @rule(which=WHICH, fingerprint=st.sampled_from(["01", "03", "05"]))
    def record_arch(self, which, fingerprint):
        self.stores[which].record_arch(fingerprint,
                                       lambda: {"fp": fingerprint})

    @rule(which=WHICH)
    def append_run_log(self, which):
        self.stores[which].append_run_log({"label": "run"})

    @rule(key=KEYS, text=st.sampled_from(["{not json", "[1]", "3"]))
    def damage(self, key, text):
        with sqlite3.connect(f"{self.root}/{DATABASE_FILE}",
                             isolation_level=None) as connection:
            connection.execute(
                "INSERT OR REPLACE INTO records (key, payload) "
                "VALUES (?, ?)", (key, text))
        self.model[key] = None

    @rule(which=WHICH)
    def compact(self, which):
        self.stores[which].compact()

    @invariant()
    def stats_equal_row_by_row_pass(self):
        fresh = ResultStore(self.root, create=False)
        intact = {key: payload for key, payload in self.model.items()
                  if payload is not None}
        for store in (*self.stores, fresh):
            assert store.stats() == store.verify().stats
            assert dict(store.items()) == intact
        assert fresh.stats().records == len(self.model)
        damaged = sorted(f"records {key!r}"
                         for key, payload in self.model.items()
                         if payload is None)
        assert sorted(fresh.verify().corrupt) == damaged
        fresh.close()


StoreOperations.TestCase.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None,
)
TestStatsEqualVerify = StoreOperations.TestCase
