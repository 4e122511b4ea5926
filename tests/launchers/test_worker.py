"""The record a worker returns is the simulator's own result."""

from dataclasses import fields

from repro.arch import GPUConfig, StreamingMultiprocessor
from repro.experiments import SimRequest
from repro.experiments.runner import RunRecord
from repro.launchers.worker import execute_request_with_telemetry
from repro.policies import POLICIES
from repro.workloads import get_kernel

SMALL = GPUConfig(max_resident_warps=8, active_warps=4)


def test_record_fields_are_the_results_attributes():
    """Every record field but ``workload`` is the same-named attribute
    of the result ``StreamingMultiprocessor.run`` returns for the
    request, the ``ipc`` property and the policy name included."""
    request = SimRequest("btree", "LTRF", SMALL.with_latency_multiple(3.0),
                         seed=1)
    record, telemetry = execute_request_with_telemetry(request)
    result = StreamingMultiprocessor(request.config, POLICIES["LTRF"]).run(
        get_kernel("btree"), seed=1)
    assert record.workload == "btree"
    assert (record.policy, record.ipc) == (
        "LTRF", result.instructions / result.cycles)
    for spec in fields(RunRecord):
        if spec.name != "workload":
            assert getattr(record, spec.name) == getattr(result, spec.name), \
                spec.name
    assert (telemetry.cycles, telemetry.instructions) == (
        result.cycles, result.instructions)
