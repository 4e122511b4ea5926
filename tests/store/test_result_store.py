"""Tests for the sharded append-only result store."""

import json
import os
import sys
import threading

import pytest

from repro.store import Query, ResultStore, StoreError
from repro.store.result_store import FORMAT_FILE


def _segment_paths(root):
    paths = []
    for name in sorted(os.listdir(root)):
        shard_dir = os.path.join(root, name)
        if not name.startswith("shard-") or not os.path.isdir(shard_dir):
            continue
        for segment in sorted(os.listdir(shard_dir)):
            if segment.endswith(".jsonl"):
                paths.append(os.path.join(shard_dir, segment))
    return paths


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

    def test_last_write_wins(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put("k", {"v": 1})
        store.put("k", {"v": 2})
        assert store.get("k") == {"v": 2}
        store.close()
        fresh = ResultStore(str(tmp_path))
        assert fresh.get("k") == {"v": 2}
        stats = fresh.stats()
        assert stats.entries == 2
        assert stats.live_keys == 1
        assert stats.superseded == 1

    def test_format_marker_written_and_checked(self, tmp_path):
        ResultStore(str(tmp_path))
        marker = tmp_path / FORMAT_FILE
        assert marker.exists()
        marker.write_text(json.dumps(
            {"format": "ltrf-store", "version": 999, "shards": 16}
        ))
        with pytest.raises(StoreError, match="v999"):
            ResultStore(str(tmp_path))

    def test_open_without_create_requires_marker(self, tmp_path):
        with pytest.raises(StoreError, match="not a result store"):
            ResultStore(str(tmp_path), create=False)
        assert not (tmp_path / FORMAT_FILE).exists()   # untouched
        ResultStore(str(tmp_path)).put("k", {"v": 1})
        reader = ResultStore(str(tmp_path), create=False)
        assert reader.get("k") == {"v": 1}

    def test_shard_count_read_from_marker(self, tmp_path):
        ResultStore(str(tmp_path), shards=4).put("k", {"v": 1})
        # A reader opened with the default shard count must still
        # address keys the way the creator did.
        fresh = ResultStore(str(tmp_path))
        assert fresh.shards == 4
        assert fresh.get("k") == {"v": 1}

    def test_foreign_files_ignored(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put("k", {"v": 1})
        (tmp_path / "README.txt").write_text("not a segment")
        shard_dir = os.path.dirname(_segment_paths(str(tmp_path))[0])
        with open(os.path.join(shard_dir, "notes.txt"), "w") as handle:
            handle.write("also not a segment")
        fresh = ResultStore(str(tmp_path))
        assert fresh.get("k") == {"v": 1}
        assert fresh.verify().ok


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


class TestSegments:
    def test_rotation_bounds_segment_size(self, tmp_path):
        store = ResultStore(str(tmp_path), shards=1, segment_bytes=200)
        for index in range(20):
            store.put(f"key-{index}", {"v": index})
        segments = _segment_paths(str(tmp_path))
        assert len(segments) > 1
        fresh = ResultStore(str(tmp_path))
        for index in range(20):
            assert fresh.get(f"key-{index}") == {"v": index}

    def test_two_stores_write_disjoint_segments(self, tmp_path):
        a = ResultStore(str(tmp_path), shards=1)
        b = ResultStore(str(tmp_path), shards=1)
        a.put("ka", {"v": "a"})
        b.put("kb", {"v": "b"})
        assert len(_segment_paths(str(tmp_path))) == 2
        # Each store observes the other's published records.
        assert a.get("kb") == {"v": "b"}
        assert b.get("ka") == {"v": "a"}

    def test_compaction_merges_and_drops_dead_entries(self, tmp_path):
        store = ResultStore(str(tmp_path), shards=1, segment_bytes=150)
        for index in range(10):
            store.put(f"key-{index}", {"v": index})
        store.put("key-0", {"v": "rewritten"})
        report = store.compact()
        assert report.shards_compacted == 1
        assert report.segments_after == 1
        assert report.entries_dropped == 1
        assert len(_segment_paths(str(tmp_path))) == 1
        # Both the compacting instance and a fresh one serve the data.
        assert store.get("key-0") == {"v": "rewritten"}
        fresh = ResultStore(str(tmp_path))
        assert fresh.get("key-0") == {"v": "rewritten"}
        for index in range(1, 10):
            assert fresh.get(f"key-{index}") == {"v": index}
        assert fresh.stats().superseded == 0

    def test_compaction_is_idempotent_and_store_usable_after(self,
                                                             tmp_path):
        store = ResultStore(str(tmp_path), shards=2)
        store.put("k1", {"v": 1})
        store.compact()
        second = store.compact()
        assert second.shards_compacted == 0
        store.put("k2", {"v": 2})      # writing after compact rotates
        assert store.get("k1") == {"v": 1}
        assert store.get("k2") == {"v": 2}

    def test_compaction_of_empty_store(self, tmp_path):
        report = ResultStore(str(tmp_path)).compact()
        assert report.shards_compacted == 0
        assert report.segments_before == 0


class TestCrashConsistency:
    def test_truncated_final_segment_tolerated(self, tmp_path):
        store = ResultStore(str(tmp_path), shards=1)
        store.put("k1", {"v": 1})
        store.put("k2", {"v": 2})
        store.close()
        (segment,) = _segment_paths(str(tmp_path))
        with open(segment, "ab") as handle:           # crash mid-append
            handle.write(b'{"k": "k3", "r": {"v"')
        fresh = ResultStore(str(tmp_path))
        assert fresh.get("k1") == {"v": 1}
        assert fresh.get("k2") == {"v": 2}
        assert fresh.get("k3") is None
        stats = fresh.stats()
        assert stats.torn_tails == 1
        assert stats.corrupt_lines == 0
        assert fresh.verify().ok    # torn tails are tolerated by design

    def test_compaction_reclaims_torn_tail(self, tmp_path):
        store = ResultStore(str(tmp_path), shards=1)
        store.put("k1", {"v": 1})
        store.close()
        (segment,) = _segment_paths(str(tmp_path))
        with open(segment, "ab") as handle:
            handle.write(b"{torn")
        fresh = ResultStore(str(tmp_path))
        fresh.compact()
        stats = fresh.stats()
        assert stats.torn_tails == 0
        assert fresh.get("k1") == {"v": 1}

    def test_corrupt_interior_line_skipped_and_flagged(self, tmp_path):
        store = ResultStore(str(tmp_path), shards=1)
        store.put("k1", {"v": 1})
        store.close()
        (segment,) = _segment_paths(str(tmp_path))
        with open(segment, "ab") as handle:
            handle.write(b"garbage that is not json\n")
            handle.write(b'{"k": "k2", "r": {"v": 2}}\n')
        fresh = ResultStore(str(tmp_path))
        assert fresh.get("k1") == {"v": 1}
        assert fresh.get("k2") == {"v": 2}   # entries after the damage load
        report = fresh.verify()
        assert not report.ok
        assert report.stats.corrupt_lines == 1
        # Compaction drops the damage; verify is clean afterwards.
        fresh.compact()
        assert fresh.verify().ok
        assert fresh.get("k2") == {"v": 2}

    def test_concurrent_writer_partial_line_then_completed(self, tmp_path):
        """A reader polling during another writer's append sees nothing
        until the line is complete, then sees the full record."""
        reader = ResultStore(str(tmp_path), shards=1)
        writer = ResultStore(str(tmp_path), shards=1)
        writer.put("k1", {"v": 1})
        assert reader.get("k1") == {"v": 1}
        # Hand-roll a partial append on the writer's own segment, as
        # the OS would expose a flush that raced with the read.
        line = json.dumps({"k": "k2", "r": {"v": 2}}) + "\n"
        segment = writer._states[writer.shard_of("k2")].writer_path
        with open(segment, "ab") as handle:
            handle.write(line[:9].encode())
            handle.flush()
            assert reader.get("k2") is None          # partial: invisible
            handle.write(line[9:].encode())
        assert reader.get("k2") == {"v": 2}          # completed: visible
        assert reader.get("k1") == {"v": 1}

    def test_dead_writer_torn_segment_then_rerun_wins_by_rank(
            self, tmp_path):
        """A concurrent writer dies mid-append (a killed sweep worker):
        its torn final line stays invisible to a live reader's delta
        rescan, a later writer's re-run of the lost point wins by
        (seq, writer) rank, and verify stays green throughout."""
        reader = ResultStore(str(tmp_path), shards=1)
        dying = ResultStore(str(tmp_path), shards=1)
        dying.put("done", {"v": 1})
        segment = dying._states[dying.shard_of("lost")].writer_path
        with open(segment, "ab") as handle:   # killed mid-append
            handle.write(b'{"k": "lost", "r": {"v')
        # (never closed -- the writer process is gone)
        assert reader.get("done") == {"v": 1}
        assert reader.get("lost") is None        # torn: invisible

        rerun = ResultStore(str(tmp_path), shards=1)  # higher seq
        rerun.put("lost", {"v": 2})
        rerun.put("done", {"v": 1})              # idempotent re-put
        # The live reader's delta rescan picks up the re-run...
        assert reader.get("lost") == {"v": 2}
        assert reader.get("done") == {"v": 1}
        # ...and a fresh full replay agrees: the re-run's segment
        # outranks the dead writer's.
        fresh = ResultStore(str(tmp_path), shards=1)
        assert fresh.get("lost") == {"v": 2}
        report = fresh.verify()
        assert report.ok
        assert report.stats.torn_tails == 1

    def test_live_index_matches_full_replay_winner(self, tmp_path):
        """Two writers' active segments grow concurrently; a live
        reader applying deltas out of rank order must still converge
        on the same winner a fresh full replay picks (the higher
        (seq, writer) segment), not on whichever delta arrived last."""
        a = ResultStore(str(tmp_path), shards=1)
        b = ResultStore(str(tmp_path), shards=1)
        a.put("warmup", {"v": 0})             # A owns seg-1
        b.put("k", {"v": "from-b"})           # B owns seg-2
        reader = ResultStore(str(tmp_path), shards=1)
        assert reader.get("k") == {"v": "from-b"}
        a.put("k", {"v": "from-a"})           # later wall-clock, lower seq
        reader.get("missing")                 # force a delta refresh
        live_view = reader.get("k")
        replay_view = ResultStore(str(tmp_path), shards=1).get("k")
        assert live_view == replay_view == {"v": "from-b"}

    def test_verify_flags_conflicting_payloads_for_one_key(self, tmp_path):
        """Two *distinct* payloads under one key (aliasing/corruption,
        or a record-schema change) must fail verification."""
        store = ResultStore(str(tmp_path))
        store.put("k", {"v": 1})
        store.put("k", {"v": 999})
        report = store.verify()
        assert not report.ok
        assert report.conflicts == {"k": 2}
        # Identical re-puts (the normal racing-writers case) are fine.
        clean = ResultStore(str(tmp_path / "clean"))
        clean.put("k", {"v": 1})
        clean.put("k", {"v": 1})
        assert clean.verify().ok


def _write_lines(root, lines):
    """A one-shard store whose only segment holds ``lines``."""
    ResultStore(root, shards=1)
    directory = os.path.join(root, "shard-00")
    os.makedirs(directory)
    with open(os.path.join(directory, "seg-000001-raw.jsonl"), "wb") as out:
        out.write(b"".join(line + b"\n" for line in lines))


class TestLazyDecode:
    """A fresh instance decodes a key's lines when the key is first
    read; what it serves and counts equals the eager full replay."""

    def test_entry_decode_agrees_with_json_loads(self):
        from repro.store.result_store import _decode_entry

        def reference(line):
            try:
                entry = json.loads(line)
                key, payload = entry["k"], entry["r"]
            except (ValueError, TypeError, KeyError):
                return None
            if isinstance(key, str) and isinstance(payload, dict):
                return key, payload
            return None

        lines = [
            b'{"k": "a", "r": {"v": 1}}',
            b'{"k": "a", "r": {"v": 1}} \t\r\n ',
            b'{"k": "a", "r": {"v": 1}} x',
            b'{"k": "a", "r": {"v": 1}}\x0c',
            b'{"k": "a", "r": {"v": 1}}{}',
            b' {"k": "a", "r": {"v": 1}}',
            b'\xef\xbb\xbf{"k": "a", "r": {}}',
            b'{\x00"\x00k\x00"\x00',
            b'{"k": "\xff", "r": {}}',
            b'{"k": "\xed\xa0\x80", "r": {}}',
            b'{"k": "caf\xc3\xa9", "r": {}}',
            b'{"k": "a", "r": {}, "k": "b"}',
            b'{"k": 1, "r": {}}', b'{"k": "a", "r": [1]}',
            b'{', b'{}', b'{"k"', b'[1]', b'"k"',
        ]
        for line in lines:
            assert _decode_entry(line) == reference(line), line

    def test_one_get_decodes_only_that_keys_lines(self, tmp_path,
                                                  monkeypatch):
        from repro.store import result_store

        writer = ResultStore(str(tmp_path), shards=1)
        for index in range(20):
            writer.put(f"key-{index}", {"v": index})
        writer.put("key-7", {"v": "rewritten"})
        writer.close()
        decoded = []
        real = result_store._decode_entry

        def counting(line):
            decoded.append(line)
            return real(line)

        monkeypatch.setattr(result_store, "_decode_entry", counting)
        fresh = ResultStore(str(tmp_path))
        assert fresh.get("key-7") == {"v": "rewritten"}
        assert len(decoded) == 2
        assert fresh.get("key-7") == {"v": "rewritten"}
        assert len(decoded) == 2
        assert fresh.stats() == fresh.verify().stats
        assert fresh.stats().entries == 21

    def test_corrupt_newest_line_keeps_older_payload(self, tmp_path):
        _write_lines(str(tmp_path), [
            b'{"k": "a", "r": {"v": 1}}',
            b'{"k": "a", "r": [2]}',
            b'{"k": "b", "r": {"v": 3}',
        ])
        fresh = ResultStore(str(tmp_path))
        assert fresh.get("a") == {"v": 1}
        assert fresh.get("b") is None
        assert fresh.get("a") == {"v": 1}
        stats = fresh.stats()
        assert (stats.entries, stats.corrupt_lines, stats.live_keys) \
            == (1, 2, 1)
        assert fresh.stats() == stats == fresh.verify().stats

    def test_refused_lines_filed_under_their_decoded_key(self, tmp_path):
        lines = [
            # Escaped key: the key holds a quote.
            json.dumps({"k": 'q"x', "r": {"v": 1}}).encode(),
            # A member named "k" is a second "k" member.
            b'{"k": "decoy", "r": {"v": 2}, "\\u006b": "hidden"}',
            b'{"k": "decoy", "r": {"v": 3}, "k": "second"}',
            b'{"k": "plain", "r": {"v": 4, "tag": "k"}}',
            b'{"k": "nested", "r": {"k": "inner"}}',
            b'{"k": "decoy", "r": {"v": 5}}',
        ]
        _write_lines(str(tmp_path), lines)
        replay = ResultStore(str(tmp_path))._scan_shard_full(0)[0]
        assert set(replay) == {'q"x', "hidden", "second", "plain",
                               "nested", "decoy"}
        for key in [*replay, "inner"]:
            assert ResultStore(str(tmp_path)).get(key) == replay.get(key)
        fresh = ResultStore(str(tmp_path))
        assert dict(fresh.items()) == replay
        assert fresh.stats() == fresh.verify().stats

    def test_scan_decoded_line_after_pending_line_wins(self, tmp_path):
        _write_lines(str(tmp_path), [
            b'{"k": "a", "r": {"v": 1}}',
            b'{"k": "a", "r": {"v": 2, "s": "\\u00e9"}}',
        ])
        assert ResultStore(str(tmp_path)).get("a") == {"v": 2, "s": "é"}

    def test_full_read_after_partial_read_replays_in_order(self, tmp_path):
        """items() decodes the bytes it scans; a key's lines left
        pending by an earlier scan still go before them."""
        reader = ResultStore(str(tmp_path), shards=1)
        writer = ResultStore(str(tmp_path), shards=1)
        writer.put("a", {"v": 1})
        writer.put("b", {"v": 1})
        assert reader.get("b") == {"v": 1}       # "a" stays pending
        writer.put("a", {"v": 2})
        writer.close()
        assert dict(reader.items()) == {"a": {"v": 2}, "b": {"v": 1}}
        assert reader.stats() == reader.verify().stats

    def test_newer_line_refreshed_by_another_keys_miss(self, tmp_path):
        reader = ResultStore(str(tmp_path), shards=1)
        writer = ResultStore(str(tmp_path), shards=1)
        writer.put("a", {"v": 1})
        assert reader.get("a") == {"v": 1}
        writer.put("a", {"v": 2})
        writer.close()
        assert reader.get("missing") is None     # refreshes the shard
        assert reader.get("a") == {"v": 2}
        assert reader.stats() == reader.verify().stats


class TestSharedInstance:
    def test_queries_and_puts_race_on_one_instance(self, tmp_path):
        """Query threads iterate and read stats while writer threads
        put into the same instance (the service's shape), and a thread
        gets from another instance: no iteration error, every put
        readable and counted, every get a put payload, and the live
        view equals a fresh full replay."""
        store = ResultStore(str(tmp_path))
        fresh_reader = ResultStore(str(tmp_path))
        # The first query imports the record schema; do it up front so
        # the readers iterate while the writers run.
        Query(store).records()
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
        shape) race writers on its shared parse memo: every row they
        return satisfies their filter, and afterwards each filter on
        the base equals a brute force over a fresh query."""
        store = ResultStore(str(tmp_path))
        base = Query(store)
        base.records()               # imports the record schema up front
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
