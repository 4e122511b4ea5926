"""``repro diff-runs A B``: explain *why* two stores differ.

Two sweeps of the same experiment grid rarely diverge for one reason.
Given the stores of run A and run B, :func:`diff_runs` pairs their
records and attributes every changed grid point to one cause:

* ``config`` -- same workload/policy/seed/kernel, different
  architecture fingerprint: the GPU configuration changed between
  runs (e.g. an edited ``.arch.json``).
* ``kernel`` -- same workload/policy/seed/architecture, different
  kernel fingerprint: the workload's source changed, so the cached
  key rotated.
* ``payload`` -- keys match and the stored results differ
  byte-for-byte: a genuine behaviour change (the one cause worth
  bisecting).  A change to the record's fields bumps the store's
  format version, so both sides always hold the same schema.

Grid points present in only one store are reported as ``only-in-a`` /
``only-in-b``; identical entries count as ``unchanged``.  Everything
reads through :class:`repro.store.Query` -- no database access here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.store.query import Query, StoredRecord

#: Attribution causes, in render order.
CAUSES = ("unchanged", "payload", "config", "kernel", "only-in-a",
          "only-in-b")


@dataclass(frozen=True)
class DiffEntry:
    """One grid point's verdict."""

    cause: str                      # one of CAUSES
    workload: str
    policy: str
    seed: int
    a: Optional[StoredRecord]
    b: Optional[StoredRecord]

    def describe(self) -> str:
        point = f"{self.workload} / {self.policy} / seed {self.seed}"
        if self.cause == "config":
            return (f"{point}: architecture changed "
                    f"({_fp(self.a.arch_fingerprint)} -> "
                    f"{_fp(self.b.arch_fingerprint)})")
        if self.cause == "kernel":
            return (f"{point}: kernel changed "
                    f"({_fp(self.a.kernel_fingerprint)} -> "
                    f"{_fp(self.b.kernel_fingerprint)})")
        if self.cause == "payload":
            return (f"{point}: result payload differs "
                    f"(ipc {_num(self.a.ipc)} -> {_num(self.b.ipc)})")
        if self.cause == "only-in-a":
            return f"{point}: present only in A"
        if self.cause == "only-in-b":
            return f"{point}: present only in B"
        return f"{point}: unchanged"


def _fp(fingerprint: str) -> str:
    return fingerprint[:8] if fingerprint else "?"


def _num(value: Optional[float]) -> str:
    return f"{value:.4f}" if value is not None else "?"


@dataclass
class DiffReport:
    """Full attribution of the differences between stores A and B."""

    root_a: str
    root_b: str
    entries: List[DiffEntry] = field(default_factory=list)

    def by_cause(self) -> Dict[str, List[DiffEntry]]:
        buckets: Dict[str, List[DiffEntry]] = {c: [] for c in CAUSES}
        for entry in self.entries:
            buckets.setdefault(entry.cause, []).append(entry)
        return buckets

    def cause_counts(self) -> Dict[str, int]:
        return {cause: len(entries)
                for cause, entries in self.by_cause().items()}

    @property
    def changed(self) -> int:
        return sum(1 for entry in self.entries
                   if entry.cause != "unchanged")

    def render(self) -> str:
        counts = self.cause_counts()
        lines = [
            f"diff-runs: A={self.root_a}  B={self.root_b}",
            (f"  {len(self.entries)} grid point(s); "
             f"{counts['unchanged']} unchanged, {self.changed} changed"),
        ]
        for cause in CAUSES:
            if cause == "unchanged" or not counts[cause]:
                continue
            lines.append(f"  [{cause}] {counts[cause]} point(s):")
            for entry in self.by_cause()[cause]:
                lines.append(f"    {entry.describe()}")
        if not self.changed:
            lines.append("  stores agree on every grid point")
        return "\n".join(lines)


def _identity(record: StoredRecord) -> Tuple[str, str, int]:
    return (record.workload, record.policy, record.seed)


def diff_runs(query_a: Query, query_b: Query) -> DiffReport:
    """Pair the records of two stores and attribute every difference.

    Pairing is three passes, most-specific first: exact key matches
    resolve to ``unchanged`` / ``payload``; leftovers that agree on
    everything but the architecture fingerprint become ``config``;
    leftovers that agree on everything but the kernel fingerprint
    become ``kernel``; the rest are one-sided.  Each record is consumed
    by at most one pairing.
    """
    records_a = {record.key: record for record in query_a.records()}
    records_b = {record.key: record for record in query_b.records()}
    entries: List[DiffEntry] = []

    # Pass 1: exact key matches.
    unmatched_a: List[StoredRecord] = []
    for key, a in records_a.items():
        b = records_b.pop(key, None)
        if b is None:
            unmatched_a.append(a)
            continue
        cause = "payload" if dict(a.payload) != dict(b.payload) \
            else "unchanged"
        entries.append(DiffEntry(cause, a.workload, a.policy, a.seed, a, b))
    unmatched_b: List[StoredRecord] = list(records_b.values())

    # Pass 2: same grid point + kernel, different architecture -> config.
    def _pair(key_of, cause: str) -> None:
        index: Dict[Tuple, StoredRecord] = {}
        for b in unmatched_b:
            index.setdefault(key_of(b), b)
        still_a: List[StoredRecord] = []
        for a in unmatched_a:
            b = index.pop(key_of(a), None)
            if b is None:
                still_a.append(a)
            else:
                unmatched_b.remove(b)
                entries.append(
                    DiffEntry(cause, a.workload, a.policy, a.seed, a, b)
                )
        unmatched_a[:] = still_a

    _pair(lambda r: _identity(r) + (r.kernel_fingerprint,), "config")
    # Pass 3: same grid point + architecture, different kernel -> kernel.
    _pair(lambda r: _identity(r) + (r.arch_fingerprint,), "kernel")

    for a in unmatched_a:
        entries.append(
            DiffEntry("only-in-a", a.workload, a.policy, a.seed, a, None)
        )
    for b in unmatched_b:
        entries.append(
            DiffEntry("only-in-b", b.workload, b.policy, b.seed, None, b)
        )

    entries.sort(key=lambda entry: (entry.workload, entry.policy,
                                    entry.seed, entry.cause))
    return DiffReport(
        root_a=query_a.store.root,
        root_b=query_b.store.root,
        entries=entries,
    )
