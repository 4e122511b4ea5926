"""What a worker runs: one simulation.

:func:`execute_request_with_telemetry` is the one simulation every
grid point executes -- in a local pool worker, and serially in the
orchestrating process.
"""

from __future__ import annotations

from dataclasses import fields


def execute_request_with_telemetry(request):
    """Run one simulation, bypassing every result cache.

    Returns ``(record, kernel_fingerprint, stats)``: the
    :class:`~repro.experiments.runner.RunRecord`, the content
    fingerprint of the kernel this run simulated, and a
    :class:`~repro.experiments.runner.RunnerStats` holding
    ``simulated=1`` and this run's counters.  Module-level so pool
    workers can unpickle it; the simulator is deterministic in
    ``(request,)``, which is what makes parallel and serial execution
    interchangeable (the record, not the counters, is the
    deterministic part).

    The fingerprint equals the one in the request's key for a
    generated workload; a file-backed kernel may be rewritten between
    the key and this run, and the record is stored under the content
    that produced it (:func:`~repro.experiments.runner.content_key`).

    Static work (kernel build, policy compile) flows through the
    process-wide static-artifact caches; ``stats`` reports this run's
    share of it: the kernel builds it claims and its compile-cache
    deltas.
    """
    from repro.arch.sm import StreamingMultiprocessor
    from repro.compiler.cache import STATS as COMPILE_STATS
    from repro.experiments.runner import RunnerStats, RunRecord
    from repro.policies import policy_by_name
    from repro.workloads import resolve_workload
    from repro.workloads.registry import BUILD_STATS

    hits_before, misses_before, compile_seconds_before = (
        COMPILE_STATS.snapshot()
    )
    kernel, fingerprint = resolve_workload(request.workload)
    builds, build_seconds = BUILD_STATS.claim([request.workload])
    sm = StreamingMultiprocessor(
        request.config, policy_by_name(request.policy)
    )
    result = sm.run(kernel, seed=request.seed)
    # Every record field but the workload (named as requested, which
    # may be a path) is the result attribute of the same name.
    record = RunRecord(workload=request.workload, **{
        spec.name: getattr(result, spec.name)
        for spec in fields(RunRecord) if spec.name != "workload"
    })
    hits_after, misses_after, compile_seconds_after = (
        COMPILE_STATS.snapshot()
    )
    stats = RunnerStats(
        simulated=1,
        host_seconds=result.host_seconds,
        simulated_cycles=result.cycles,
        simulated_instructions=result.instructions,
        cycles_skipped=result.cycles_skipped,
        event_counts=result.event_counts,
        kernel_builds=builds,
        kernel_build_seconds=build_seconds,
        compile_cache_hits=hits_after - hits_before,
        compile_cache_misses=misses_after - misses_before,
        compile_seconds=compile_seconds_after - compile_seconds_before,
    )
    return record, fingerprint, stats
