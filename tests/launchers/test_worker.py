"""What a worker returns is the simulator's own result."""

from dataclasses import fields

from repro.arch import GPUConfig, StreamingMultiprocessor
from repro.experiments import SimRequest
from repro.experiments.runner import RunnerStats, RunRecord
from repro.launchers.worker import execute_request_with_telemetry
from repro.policies import POLICIES
from repro.workloads import get_kernel, workload_fingerprint

SMALL = GPUConfig(max_resident_warps=8, active_warps=4)


def run(request):
    """What ``StreamingMultiprocessor.run`` returns for ``request``."""
    return StreamingMultiprocessor(
        request.config, POLICIES[request.policy]
    ).run(get_kernel(request.workload), seed=request.seed)


def test_record_fields_are_the_results_attributes():
    """Every record field but ``workload`` is the same-named attribute
    of the result ``StreamingMultiprocessor.run`` returns for the
    request, the ``ipc`` property and the policy name included."""
    request = SimRequest("btree", "LTRF", SMALL.with_latency_multiple(3.0),
                         seed=1)
    record, _, _ = execute_request_with_telemetry(request)
    result = run(request)
    assert record.workload == "btree"
    assert (record.policy, record.ipc) == (
        "LTRF", result.instructions / result.cycles)
    for spec in fields(RunRecord):
        if spec.name != "workload":
            assert getattr(record, spec.name) == getattr(result, spec.name), \
                spec.name


def test_stats_count_one_simulation_of_the_result(monkeypatch):
    """The returned stats are one simulation, ``simulated == 1``; every
    counter the worker takes from the result equals that result's, and
    the counters the batch pipeline charges stay zero.  The fingerprint
    is the simulated kernel's."""
    results = []
    simulate = StreamingMultiprocessor.run

    def capture(sm, kernel, **kwargs):
        results.append(simulate(sm, kernel, **kwargs))
        return results[-1]

    monkeypatch.setattr(StreamingMultiprocessor, "run", capture)
    request = SimRequest("kmeans", "RFC", SMALL.with_latency_multiple(2.0))
    _, fingerprint, stats = execute_request_with_telemetry(request)
    (result,) = results
    assert isinstance(stats, RunnerStats)
    assert stats.simulated == 1
    from_result = {
        "host_seconds": result.host_seconds,
        "simulated_cycles": result.cycles,
        "simulated_instructions": result.instructions,
        "cycles_skipped": result.cycles_skipped,
        "event_counts": result.event_counts,
    }
    for name, value in from_result.items():
        assert getattr(stats, name) == value, name
    for name in ("hits", "batch_requests", "batch_deduplicated",
                 "batch_dispatched", "pool_retries"):
        assert getattr(stats, name) == 0, name
    assert stats.faults_survived == 0
    assert fingerprint == workload_fingerprint("kmeans")
