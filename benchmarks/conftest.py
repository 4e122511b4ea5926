"""Shared fixtures for the benchmark harness.

Every figure benchmark regenerates one entry of
``repro.experiments.FIGURES`` on that entry's fast workload set
(``run_all_experiments.py --fast`` renders the same tables).  A
session-scoped runner shares the on-disk simulation cache, so a warm
cache makes the suite fast while a cold one still completes in
minutes; ``run_all_experiments.py`` without ``--fast`` renders the
full paper-scale tables.

Set ``LTRF_BENCH_JOBS=N`` to fan each benchmark's simulation grid out
over N worker processes on a cold cache (results are identical to the
serial run; see Runner.simulate_many).

These benchmarks double as the CI perf-regression gate: the ``bench``
job runs them cold and serial (fresh ``LTRF_CACHE_DIR``,
``LTRF_BENCH_JOBS=1``) so the medians measure simulator speed, then
``scripts/check_bench_regression.py`` compares them against the
committed ``BENCH_baseline.json`` (see the README's "Performance
gate" section, including how to re-baseline intentionally).
"""

import os

import pytest

from repro.experiments import FIGURES, Runner


@pytest.fixture(scope="session")
def runner():
    return Runner()


@pytest.fixture(scope="session")
def jobs():
    return int(os.environ.get("LTRF_BENCH_JOBS", "1"))


@pytest.fixture
def run_figure(benchmark, runner, jobs):
    """Time one registry entry's fast run once; print it and return
    its summary."""

    def run(name):
        result = benchmark.pedantic(
            FIGURES[name].run, args=(runner,),
            kwargs={"jobs": jobs, "fast": True}, rounds=1, iterations=1,
        )
        print("\n" + result.render())
        return result.summary

    return run
