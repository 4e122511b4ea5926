"""SM tier: the SM core's speed under each register policy.

Each benchmark simulates one fixed kernel -- kmeans at 4x MRF latency
on ``maxwell-like`` (the full-size SM every sweep runs), seed 0 -- on a
fresh ``StreamingMultiprocessor`` per round, under one policy.  Kernel
build, compile and warp traces come from the static-artifact caches,
warmed before timing, so the median is the SM core's own cost:
scheduling, MRF, RFC and policy hooks.  ``extra_info`` records the
throughput the scheduling core reports (``SimulationResult.host_seconds``,
median over the timed rounds): simulated cycles per host second and
host microseconds per issued instruction.
"""

from statistics import median

import pytest

from repro.arch import StreamingMultiprocessor
from repro.experiments.runner import sweep_config
from repro.policies import POLICIES
from repro.workloads import get_kernel

ROUNDS = 3


@pytest.mark.parametrize("policy", ["BL", "RFC", "LTRF", "LTRF+"])
def test_sm_core(benchmark, policy):
    config = sweep_config(4.0)
    kernel = get_kernel("kmeans")
    results = []

    def simulate():
        sm = StreamingMultiprocessor(config, POLICIES[policy])
        results.append(sm.run(kernel, seed=0))

    simulate()      # warm the static caches outside the timed rounds
    benchmark.pedantic(simulate, rounds=ROUNDS, iterations=1)
    assert all(result == results[0] for result in results)
    timed = results[1:]
    host_seconds = median(result.host_seconds for result in timed)
    benchmark.extra_info["simulated_cycles_per_host_s"] = (
        results[0].cycles / host_seconds
    )
    benchmark.extra_info["host_us_per_instruction"] = (
        host_seconds * 1e6 / results[0].instructions
    )
