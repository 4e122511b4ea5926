"""Tests for repro.analysis.diff_runs: cause attribution between stores."""

from dataclasses import fields as dataclass_fields

from repro.analysis import diff_runs
from repro.experiments.runner import RunRecord
from repro.store import Query, ResultStore

ARCH_A = "aaaa111122223333"
ARCH_B = "bbbb444455556666"
KERNEL_A = "feedfacefeedface"
KERNEL_B = "deadbeefdeadbeef"


def key(workload="btree", policy="BL", arch=ARCH_A, seed=0,
        kernel=KERNEL_A):
    return f"{workload}__{policy}__a{arch}__{seed}__k{kernel}"


def payload(**overrides):
    base = {spec.name: 0 for spec in dataclass_fields(RunRecord)}
    base.update(workload="btree", policy="BL", ipc=1.0)
    base.update(overrides)
    return base


def make_store(tmp_path, name, entries):
    root = str(tmp_path / name)
    store = ResultStore(root, create=True)
    for entry_key, entry_payload in entries.items():
        store.put(entry_key, entry_payload)
    store.close()
    return Query.open(root)


class TestDiffRuns:
    def test_all_causes_attributed(self, tmp_path):
        """One grid point per cause; every attribution must be exact."""
        store_a = make_store(tmp_path, "a", {
            key(workload="same"): payload(workload="same"),
            key(workload="drift"): payload(workload="drift", ipc=1.0),
            key(workload="rearch", arch=ARCH_A):
                payload(workload="rearch"),
            key(workload="rekernel", kernel=KERNEL_A):
                payload(workload="rekernel"),
            key(workload="gone-b"): payload(workload="gone-b"),
        })
        store_b = make_store(tmp_path, "b", {
            key(workload="same"): payload(workload="same"),
            key(workload="drift"): payload(workload="drift", ipc=2.0),
            key(workload="rearch", arch=ARCH_B):
                payload(workload="rearch"),
            key(workload="rekernel", kernel=KERNEL_B):
                payload(workload="rekernel"),
            key(workload="gone-a"): payload(workload="gone-a"),
        })
        report = diff_runs(store_a, store_b)
        by_workload = {
            entry.workload: entry.cause for entry in report.entries
        }
        assert by_workload == {
            "same": "unchanged",
            "drift": "payload",
            "rearch": "config",
            "rekernel": "kernel",
            "gone-b": "only-in-a",
            "gone-a": "only-in-b",
        }
        counts = report.cause_counts()
        assert counts["unchanged"] == 1
        assert report.changed == 5
        # At least three distinct change causes, per the acceptance bar.
        distinct = {entry.cause for entry in report.entries
                    if entry.cause != "unchanged"}
        assert {"config", "kernel", "payload"} <= distinct

    def test_identical_stores_agree(self, tmp_path):
        entries = {key(): payload()}
        store_a = make_store(tmp_path, "a", entries)
        store_b = make_store(tmp_path, "b", entries)
        report = diff_runs(store_a, store_b)
        assert report.changed == 0
        assert "agree on every grid point" in report.render()

    def test_render_names_fingerprints_and_ipc(self, tmp_path):
        store_a = make_store(tmp_path, "a", {
            key(workload="drift"): payload(workload="drift", ipc=1.0),
            key(workload="rearch", arch=ARCH_A):
                payload(workload="rearch"),
        })
        store_b = make_store(tmp_path, "b", {
            key(workload="drift"): payload(workload="drift", ipc=2.0),
            key(workload="rearch", arch=ARCH_B):
                payload(workload="rearch"),
        })
        rendered = diff_runs(store_a, store_b).render()
        assert "ipc 1.0000 -> 2.0000" in rendered
        assert f"{ARCH_A[:8]} -> {ARCH_B[:8]}" in rendered
        assert "[payload] 1 point(s)" in rendered
        assert "[config] 1 point(s)" in rendered

    def test_matching_stale_payloads_are_unchanged(self, tmp_path):
        """Two identical payloads under one key mean nothing changed
        between runs, whatever fields they hold."""
        stale = {"workload": "btree", "policy": "BL", "ipc": 9.0}
        store_a = make_store(tmp_path, "a", {key(): dict(stale)})
        store_b = make_store(tmp_path, "b", {key(): dict(stale)})
        (entry,) = diff_runs(store_a, store_b).entries
        assert entry.cause == "unchanged"

    def test_seed_change_is_not_misattributed(self, tmp_path):
        """A record at a different seed shares no grid point: it must
        come out one-sided, not as a config/kernel change."""
        store_a = make_store(tmp_path, "a", {key(seed=0): payload()})
        store_b = make_store(tmp_path, "b", {key(seed=1): payload()})
        causes = sorted(
            entry.cause for entry in diff_runs(store_a, store_b).entries
        )
        assert causes == ["only-in-a", "only-in-b"]

    def test_pre_arch_fingerprint_key_is_one_sided(self, tmp_path):
        """A key from before the arch fingerprint does not parse: it is
        counted as a one-sided point, never paired through the config
        hash it carries."""
        old = f"btree__BL__0123456789abcdef__0__k{KERNEL_A}"
        report = diff_runs(make_store(tmp_path, "a", {old: payload()}),
                           make_store(tmp_path, "b", {key(): payload()}))
        assert [(entry.cause, entry.workload, entry.policy)
                for entry in report.entries] == [
            ("only-in-a", "btree", "BL"), ("only-in-b", "btree", "BL")]
