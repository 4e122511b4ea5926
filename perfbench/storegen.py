"""Seeded synthetic result stores for the warm-path workloads.

:func:`generate_store` writes about 15k records: every ``EVALUATION``
workload x six sweep policies x the seven-point latency grid x 26
simulation seeds (0, so the seed-0 figures are warm, plus 25 drawn
from the benchmark seed).  Keys come from the public
``Runner.request_key``, so they are exactly the keys the figures and
the service compute; payloads are validated through ``RunRecord``.
IPC decays with latency at a per-row rate drawn from the seed, so the
rendered tolerance tables are non-trivial.  Nothing is simulated.
"""

from __future__ import annotations

import random
from dataclasses import asdict
from typing import List

from benchlib import digest

#: The union of the fig11 and fig14 policy sets.
POLICIES = ("BL", "RFC", "LTRF", "LTRF+", "SHRF", "LTRF-strand")

#: Simulation seeds per (workload, policy, latency) point.
SIM_SEED_COUNT = 26


def sim_seeds(seed: int) -> List[int]:
    """Seed 0 first, then ``SIM_SEED_COUNT - 1`` distinct seeds drawn
    from ``seed``."""
    drawn = random.Random(f"perfbench-seeds:{seed}").sample(
        range(1, 1_000_000), SIM_SEED_COUNT - 1)
    return [0] + drawn


def generate_store(root: str, seed: int) -> dict:
    """Fill the (empty) store at ``root``; its record count and digest."""
    from repro.experiments import LATENCY_GRID, Runner
    from repro.experiments.runner import RunRecord, SimRequest, sweep_config
    from repro.workloads import EVALUATION

    runner = Runner(cache_dir=root)
    configs = [(latency, sweep_config(latency)) for latency in LATENCY_GRID]
    written = []
    for sim_seed in sim_seeds(seed):
        for workload in EVALUATION:
            for policy in POLICIES:
                rng = random.Random(f"{seed}:{sim_seed}:{workload}:{policy}")
                base_ipc = rng.uniform(0.3, 1.6)
                decay = rng.uniform(0.0, 0.3)
                instructions = rng.randrange(200_000, 2_000_000)
                warps = rng.choice((8, 16, 24, 32, 48))
                for latency, config in configs:
                    ipc = base_ipc / (1.0 + decay * (latency - 1.0))
                    cycles = max(1, int(instructions / ipc))
                    reads = rng.randrange(instructions, 3 * instructions)
                    hits = rng.randrange(0, reads // 2)
                    record = RunRecord(
                        workload=workload, policy=policy,
                        ipc=instructions / cycles, cycles=cycles,
                        instructions=instructions,
                        prefetch_operations=rng.randrange(0, 50_000),
                        resident_warps=warps,
                        activations=rng.randrange(0, 20_000),
                        deactivations=rng.randrange(0, 20_000),
                        mrf_reads=reads - hits,
                        mrf_writes=rng.randrange(0, instructions),
                        rfc_reads=reads, rfc_writes=hits,
                        rfc_read_hits=hits, rfc_read_misses=reads - hits,
                        rfc_fills=rng.randrange(0, reads),
                        rfc_writebacks=rng.randrange(0, reads),
                        l1_hit_rate=rng.uniform(0.1, 0.9),
                    )
                    key = runner.request_key(SimRequest(
                        workload, policy, config, seed=sim_seed))
                    payload = asdict(record)
                    runner.result_store.put(key, payload)
                    written.append((key, payload))
    runner.result_store.close()
    written.sort(key=lambda pair: pair[0])
    return {"records": len(written), "digest": digest(written)}


def prewarm(root: str, specs: List[dict]) -> List[str]:
    """Run each job spec once through the public jobs API (real small
    simulations); the tables the service must later return for them."""
    from repro.jobs import JobSpec, JobTracker

    tracker = JobTracker(root)
    tables = []
    for spec in specs:
        job = tracker.run(JobSpec.from_dict(spec))
        if job.state != "done" or job.table is None:
            raise RuntimeError(f"prewarm job {job.id} ended {job.state}: "
                               f"{job.error}")
        tables.append(job.table)
    return tables
