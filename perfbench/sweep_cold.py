"""``sweep-cold``: what a researcher pays for a new figure.

Three fresh-process CLI-style sweeps -- btree and kmeans (the
register-insensitive pair pinned by ``tests/golden/fig11_fast.txt``)
and backprop (register-sensitive) -- each over BL, RFC, LTRF and LTRF+
x the seven-point latency grid on ``maxwell-like``, serially into one
fresh store.  The simulation seed is the benchmark seed.  Every
process pays its own imports, kernel builds and compiles, as a CLI
user does.  The SM core, MRF bank calendar, policy hooks and compiler
do almost all the work; store, jobs and service almost none.

The grid is fixed, so this workload's timed work does not scale with
``--seconds`` (it takes 25-33 s on a 2-vCPU x86 VM).
"""

from __future__ import annotations

import json
import os
from time import perf_counter
from typing import List

from benchlib import ROOT, BenchError, PassResult, StoreSize, digest, \
    fresh_dir, median, run_child
from tracer import merge

WORKLOADS = ("btree", "kmeans", "backprop")
POLICIES = ("BL", "RFC", "LTRF", "LTRF+")
GOLDEN_WORKLOADS = ("btree", "kmeans")
GOLDEN = os.path.join(ROOT, "tests", "golden", "fig11_fast.txt")
POINTS_PER_SWEEP = len(POLICIES) * 7


class SweepCold:
    name = "sweep-cold"

    def __init__(self, seed: int, seconds: int, work: str) -> None:
        self.seed = seed
        self.work = work
        self.store = ""

    def setup(self, traced: bool = False) -> None:
        """A fresh, empty store, initialised by a fresh CLI process."""
        self.store = fresh_dir(self.work, "store")
        run_child("init", "--store", self.store)

    def teardown(self) -> None:
        pass

    def run_pass(self, traced: bool) -> PassResult:
        outputs, op_seconds, dumps, store_sizes = [], [], [], []
        sizes = StoreSize(self.store) if traced else None
        started = perf_counter()
        for workload in WORKLOADS:
            args = ["sweep", "--store", self.store, "--workload", workload,
                    "--policies", ",".join(POLICIES),
                    "--seed", str(self.seed)]
            if traced:
                dumps.append(os.path.join(self.work, f"trace-{workload}.json"))
                args += ["--trace-out", dumps[-1]]
                store_sizes.append(sizes.count())
            op_started = perf_counter()
            outputs.append(run_child(*args))
            op_seconds.append(perf_counter() - op_started)
        wall = perf_counter() - started
        if sizes is not None:
            sizes.close()

        failed_ops, problems, records = self._check(outputs)
        telemetry = [out["telemetry"] for out in outputs]
        cycles = sum(entry["simulated_cycles"] for entry in telemetry)
        result = PassResult(
            wall_s=wall,
            ref_wall_s=sum(seconds / out["slowness"]
                           for seconds, out in zip(op_seconds, outputs)),
            op_seconds=op_seconds,
            peak_rss_mb=max(out["peak_rss_mb"] for out in outputs),
            attempted=len(WORKLOADS),
            failed=len(failed_ops),
            digest=digest([out["table"] for out in outputs], records),
            problems=problems,
        )
        result.details = {
            "points_per_s": (len(records) / wall, "1/s",
                             f"{len(records)} simulated grid points"),
            "sim_cycles_per_s": (cycles / wall, "cycles/s",
                                 f"{cycles} simulated SM cycles"),
        }
        for workload, seconds in zip(WORKLOADS, op_seconds):
            result.details[f"sweep_s.{workload}"] = (
                seconds, "s", "one fresh-process sweep")
        result.supplied = {
            "experiments.reported_simulated":
                sum(entry["simulations"] for entry in telemetry),
            "experiments.reported_hits":
                sum(entry["cache_hits"] for entry in telemetry),
        }
        if traced:
            # Records in the store when each sweep started.
            result.supplied["store.records"] = median(store_sizes)
            result.trace = merge(_load(path) for path in dumps)
        return result

    def _check(self, outputs: List[dict]):
        """Re-read everything from the store in this process: tables
        must re-render byte-identically with no simulation, every grid
        point must be stored, and seed 0 must match the fig11 golden."""
        from repro.experiments import Runner, fig11, render_sweep_table

        failed, problems = set(), []
        runner = Runner(cache_dir=self.store)
        for workload, out in zip(WORKLOADS, outputs):
            simulated = out["telemetry"]["simulations"]
            if simulated != POINTS_PER_SWEEP:
                failed.add(workload)
                problems.append(f"{workload}: simulated {simulated} "
                                f"point(s), expected {POINTS_PER_SWEEP}")
            again = render_sweep_table(runner, workload, POLICIES,
                                       seed=self.seed)
            if again != out["table"]:
                failed.add(workload)
                problems.append(f"{workload}: table differs when "
                                "re-rendered from the store")
        records = [
            (record.key, record.payload)
            for record in runner.results().where(seed=self.seed).records()
        ]
        if len(records) != len(WORKLOADS) * POINTS_PER_SWEEP:
            failed.update(WORKLOADS)
            problems.append(f"store holds {len(records)} record(s) for "
                            f"seed {self.seed}")
        if self.seed == 0:
            if not os.path.isfile(GOLDEN):
                raise BenchError(f"missing golden {GOLDEN}")
            with open(GOLDEN, encoding="utf-8") as handle:
                golden = handle.read()
            rendered = fig11(runner, workloads=list(GOLDEN_WORKLOADS))
            if rendered.render() + "\n" != golden:
                failed.update(GOLDEN_WORKLOADS)
                problems.append("fig11 over btree/kmeans differs from "
                                "tests/golden/fig11_fast.txt")
        if runner.stats.simulated:
            failed.update(WORKLOADS)
            problems.append(f"re-reading the store simulated "
                            f"{runner.stats.simulated} point(s)")
        runner.result_store.close()
        return failed, problems, records


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)
