"""Tests for `repro store merge`: folding another store's records
(one filled on another machine, say) into this one."""

from repro.store import MergeOutcome, ResultStore, merge_store


def test_merge_brings_new_records_and_archs(tmp_path):
    source = ResultStore(str(tmp_path / "remote"))
    source.put("a", {"v": 1})
    source.put("b", {"v": 2})
    source.record_arch("f1", {"max_resident_warps": 8})
    dest = ResultStore(str(tmp_path / "home"))
    dest.put("a", {"v": 1})                  # already identical

    outcome = merge_store(dest, source)
    assert outcome == MergeOutcome(scanned=2, merged=1, identical=1,
                                   archs=1)
    assert dest.get("b") == {"v": 2}
    assert dest.arch_payload("f1") == {"max_resident_warps": 8}
    assert "1 of 2 record(s)" in outcome.render()
    source.close()
    dest.close()


def test_merge_is_idempotent(tmp_path):
    source = ResultStore(str(tmp_path / "remote"))
    source.put("a", {"v": 1})
    dest = ResultStore(str(tmp_path / "home"))
    merge_store(dest, source)
    again = merge_store(dest, source)
    assert again.merged == 0 and again.identical == 1
    # No duplicate entries piled up; verify stays green.
    assert dest.verify().ok
    source.close()
    dest.close()


def test_merge_survives_torn_source_tail(tmp_path):
    """A worker killed mid-append leaves a torn tail in its harvested
    store; the merge replays only complete records."""
    source = ResultStore(str(tmp_path / "remote"), shards=1)
    source.put("a", {"v": 1})
    segment = source._states[source.shard_of("a")].writer_path
    with open(segment, "ab") as handle:
        handle.write(b'{"k": "torn", "r": {"v')
    source.close()

    reopened = ResultStore(str(tmp_path / "remote"), create=False)
    dest = ResultStore(str(tmp_path / "home"))
    outcome = merge_store(dest, reopened)
    assert outcome.scanned == 1
    assert dest.get("a") == {"v": 1}
    assert dest.get("torn") is None
    assert dest.verify().ok
    reopened.close()
    dest.close()
