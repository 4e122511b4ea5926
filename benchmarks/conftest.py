"""Shared fixtures for the benchmark harness.

Every figure benchmark regenerates one entry of
``repro.experiments.FIGURES`` on that entry's fast workload set
(``run_all_experiments.py --fast`` renders the same tables).  One
session-scoped runner shares its result store across the benchmarks:
the store ``LTRF_CACHE_DIR`` names when it is set, otherwise a fresh
one under pytest's temporary directory, so a run never reads records
that older code left in ``./.ltrf_cache`` (a store key fingerprints
the configuration and the kernel, not the simulator).
``run_all_experiments.py`` without ``--fast`` renders the full
paper-scale tables.  Every figure benchmark simulates serially, in
this process.

These benchmarks double as the CI perf-regression gate: the ``bench``
job runs them cold (fresh ``LTRF_CACHE_DIR``) so the medians measure
simulator speed, then
``scripts/check_bench_regression.py`` compares them against the
committed ``BENCH_baseline.json`` (see the README's "Performance
gate" section, including how to re-baseline intentionally).
"""

import os

import pytest

from repro.experiments import FIGURES, Runner


@pytest.fixture(scope="session")
def runner(tmp_path_factory):
    if "LTRF_CACHE_DIR" in os.environ:
        return Runner()
    return Runner(cache_dir=str(tmp_path_factory.mktemp("bench-store")))


@pytest.fixture
def run_figure(benchmark, runner):
    """Time one registry entry's fast run once; print it and return
    its summary."""

    def run(name):
        result = benchmark.pedantic(
            FIGURES[name].run, args=(runner,),
            kwargs={"fast": True}, rounds=1, iterations=1,
        )
        print("\n" + result.render())
        return result.summary

    return run
