"""Property: ``ResultStore.stats()``, read off the live index, equals
the independent full replay ``verify().stats`` after any interleaving
of writes, damage and compaction -- on every live instance and on a
fresh one."""

import json
import os
import shutil
import tempfile

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.store import ResultStore

SHARDS = 2
#: Two or three entries per segment, so writers rotate often.
SEGMENT_BYTES = 64
KEYS = st.sampled_from([f"k{n}" for n in range(6)])
WHICH = st.integers(min_value=0, max_value=1)


def _line(key, value):
    return (json.dumps({"k": key, "r": {"v": value}}, sort_keys=True)
            + "\n").encode()


#: Valid lines that decode to ``key``.  The first two name ``decoy``
#: in their first bytes and a second "k" member (escaped, then not)
#: overrides it; the next three hold a "k" string, a "k" member or an
#: escape in the payload.  The rest only look unusual: a bare CR that
#: splits one newline-terminated run into two lines, CRLF, raw UTF-8,
#: and no spaces.
TRICKY = (
    '{{"k": "{decoy}", "r": {{"v": {value}}}, "\\u006b": "{key}"}}\n',
    '{{"k": "{decoy}", "r": {{"v": {value}}}, "k": "{key}"}}\n',
    '{{"k": "{key}", "r": {{"v": {value}, "x": "k"}}}}\n',
    '{{"k": "{key}", "r": {{"v": {value}, "k": "{decoy}"}}}}\n',
    '{{"k": "{key}", "r": {{"v": {value}, "s": "\\u00e9"}}}}\n',
    '{{"k": "{key}", "r": {{"v": 9}}}}\r'
    '{{"k": "{key}", "r": {{"v": {value}}}}}\n',
    '{{"k": "{key}", "r": {{"v": {value}}}}}\r\n',
    '{{"k": "{key}", "r": {{"v": {value}, "s": "\u00e9"}}}}\n',
    '{{"k":"{key}","r":{{"v":{value}}}}}\n',
)


class StoreOperations(RuleBasedStateMachine):
    """Two store instances sharing one directory, plus a raw writer
    that appends bytes to segments of its own: valid entries, tricky
    but valid entries, corrupt interior lines, blank lines, and a torn
    tail it may complete later (what a crashed or buggy writer process
    leaves behind)."""

    def __init__(self):
        super().__init__()
        self.root = tempfile.mkdtemp(prefix="store-stats-")
        self.stores = [
            ResultStore(self.root, shards=SHARDS,
                        segment_bytes=SEGMENT_BYTES)
            for _ in range(2)
        ]
        self.raw_segments = {}     # shard -> the raw writer's segment
        self.raw_count = 0
        self.torn = None           # (segment, rest of its torn line)

    def teardown(self):
        for store in self.stores:
            store.close()
        shutil.rmtree(self.root, ignore_errors=True)

    def _raw_append(self, shard, data):
        path = self.raw_segments.get(shard)
        if path is None:
            directory = os.path.join(self.root, f"shard-{shard:02x}")
            os.makedirs(directory, exist_ok=True)
            top = max((int(name.split("-")[1])
                       for name in os.listdir(directory)
                       if name.startswith("seg-")), default=0)
            self.raw_count += 1
            path = os.path.join(
                directory, f"seg-{top + 1:06d}-raw{self.raw_count}.jsonl"
            )
            self.raw_segments[shard] = path
        with open(path, "ab") as handle:
            handle.write(data)
        return path

    @rule(which=WHICH, key=KEYS, value=st.integers(0, 2))
    def put(self, which, key, value):
        self.stores[which].put(key, {"v": value})

    @rule(which=WHICH)
    def close(self, which):
        self.stores[which].close()

    @rule(key=KEYS, value=st.integers(0, 2))
    def raw_entry(self, key, value):
        self._raw_append(self.stores[0].shard_of(key), _line(key, value))

    @rule(key=KEYS, decoy=KEYS, value=st.integers(0, 2),
          form=st.sampled_from(TRICKY))
    def raw_tricky_entry(self, key, decoy, value, form):
        line = form.format(key=key, decoy=decoy, value=value)
        self._raw_append(self.stores[0].shard_of(key), line.encode())

    @rule(which=WHICH, key=KEYS)
    def get(self, which, key):
        self.stores[which].get(key)

    @rule(key=KEYS)
    def fresh_get(self, key):
        """A fresh instance's first read equals the full replay, and
        so do its stats and items after it."""
        fresh = ResultStore(self.root, create=False)
        live = fresh._scan_shard_full(fresh.shard_of(key))[0]
        assert fresh.get(key) == live.get(key)
        assert fresh.stats() == fresh.verify().stats
        # Every valid line sits in its key's shard, so the shards'
        # replays do not overlap.
        replay = {}
        for shard in range(SHARDS):
            replay.update(fresh._scan_shard_full(shard)[0])
        assert dict(fresh.items()) == replay

    @rule(shard=st.integers(0, SHARDS - 1),
          damage=st.sampled_from([b"not json at all\n", b'{"k": 1}\n',
                                  b"\n", b"   \n"]))
    def raw_damage(self, shard, damage):
        self._raw_append(shard, damage)

    @precondition(lambda self: self.torn is None)
    @rule(key=KEYS, value=st.integers(0, 2), cut=st.integers(1, 20))
    def tear(self, key, value, cut):
        line = _line(key, value)
        path = self._raw_append(self.stores[0].shard_of(key), line[:cut])
        self.torn = (path, line[cut:])

    @precondition(lambda self: self.torn is not None)
    @rule()
    def complete_torn_tail(self):
        path, rest = self.torn
        with open(path, "ab") as handle:
            handle.write(rest)
        self.torn = None

    @rule(which=WHICH)
    def compact(self, which):
        # Compaction runs offline: no other writer may be appending.
        self.stores[1 - which].close()
        self.stores[which].compact()
        self.raw_segments = {}
        self.torn = None

    @invariant()
    def stats_equal_full_replay(self):
        fresh = ResultStore(self.root, create=False)
        for store in (*self.stores, fresh):
            assert store.stats() == store.verify().stats


StoreOperations.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None,
)
TestStatsEqualFullReplay = StoreOperations.TestCase
