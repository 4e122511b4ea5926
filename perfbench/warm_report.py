"""``warm-report``: re-rendering figures and the report from a big store.

Set-up generates a store of about 15k records from the seed (see
:mod:`storegen`).  Each timed iteration is what a user re-rendering
from an accumulated store pays: a fresh ``Runner`` (as a new CLI
process would open), the fig11 and fig14 tables over a fixed workload
subset, then ``build_report`` + ``write_report`` over the whole store.
The SM does no work at all; store open/scan, key computation, lookup,
render and the query/analysis path are everything.
"""

from __future__ import annotations

import os
from time import perf_counter

from benchlib import BenchError, PassResult, SpeedProbe, StoreSize, \
    describe_latencies, digest, fresh_dir, median, own_peak_rss_mb, run_child
from tracer import Tracer

#: Workloads the figure tables render (both categories).
SUBSET = ("btree", "kmeans", "backprop", "srad")

#: Iterations per second of ``--seconds``: fixes the amount of work
#: (so a parent and a change do the same) at about ``--seconds`` of
#: work on a 2-vCPU x86 VM.
ITERATIONS_PER_SECOND = 0.8


class WarmReport:
    name = "warm-report"

    def __init__(self, seed: int, seconds: int, work: str) -> None:
        self.seed = seed
        self.iterations = max(3, round(seconds * ITERATIONS_PER_SECOND))
        self.work = work
        self.store = ""
        self.records = 0

    def setup(self, traced: bool = False) -> None:
        """Generate the seeded store in a fresh process."""
        self.store = fresh_dir(self.work, "store")
        summary = run_child("storegen", "--store", self.store,
                            "--seed", str(self.seed))
        self.records = summary["records"]

    def teardown(self) -> None:
        pass

    def run_pass(self, traced: bool) -> PassResult:
        # Module references, not imported names: the tracer rebinds the
        # module attributes while it is installed.
        from repro import analysis, experiments
        from repro.store import Query

        out_dir = os.path.join(self.work, "report")
        op_seconds, digests, problems, store_sizes = [], [], [], []
        simulated = hits = 0
        sizes = StoreSize(self.store) if traced else None
        tracer = Tracer().install() if traced else None
        probe = SpeedProbe().start()
        started = perf_counter()
        try:
            for _ in range(self.iterations):
                if sizes is not None:
                    store_sizes.append(sizes.count())
                op_started = perf_counter()
                runner = experiments.Runner(cache_dir=self.store)
                tables = [
                    experiments.fig11(runner, workloads=list(SUBSET)).render(),
                    experiments.fig14(runner, workloads=list(SUBSET)).render(),
                ]
                query = Query.open(self.store)
                report = analysis.build_report(query)
                analysis.write_report(report, out_dir)
                runner.result_store.close()
                query.store.close()
                op_seconds.append(perf_counter() - op_started)
                simulated += runner.stats.simulated
                hits += runner.stats.hits
                if report.record_count != self.records:
                    problems.append(f"report covers {report.record_count} "
                                    f"record(s), store has {self.records}")
                digests.append(digest(*tables, *_csvs(out_dir)))
        finally:
            wall = perf_counter() - started
            slowness = probe.stop()
            if tracer is not None:
                tracer.uninstall()
                sizes.close()
        if simulated:
            problems.append(f"warm iterations simulated {simulated} "
                            "point(s); the store should serve every one")
        mismatched = sum(1 for value in digests if value != digests[0])
        if mismatched:
            problems.append(f"{mismatched} iteration(s) rendered "
                            "different output from the first")
        result = PassResult(
            wall_s=wall,
            ref_wall_s=wall / slowness,
            op_seconds=op_seconds,
            peak_rss_mb=own_peak_rss_mb(),
            attempted=self.iterations,
            failed=min(self.iterations, len(problems)),
            digest=digests[0],
            problems=problems,
        )
        result.details = {
            "iter_p50_ms": (median(op_seconds) * 1e3, "ms",
                            describe_latencies(op_seconds)),
        }
        result.supplied = {
            "experiments.reported_simulated": simulated,
            "experiments.reported_hits": hits,
        }
        if tracer is not None:
            # Records in the store when each iteration started.
            result.supplied["store.records"] = median(store_sizes)
            result.trace = tracer.snapshot()
        return result


def _csvs(out_dir: str):
    """The report's path-free artifacts (the HTML names the store
    root, which differs between checkouts)."""
    for name in ("records.csv", "deltas.csv"):
        path = os.path.join(out_dir, name)
        if not os.path.isfile(path):
            raise BenchError(f"write_report did not write {name}")
        with open(path, encoding="utf-8") as handle:
            yield handle.read()
