"""What a worker runs: one simulation, and the ``repro worker-chunk``
entrypoint with its wire format.

:func:`execute_request_with_telemetry` is the one simulation every
backend executes -- in a local pool worker, in a ``worker-chunk``
subprocess, and serially in the orchestrating process.

The subprocess backend ships each chunk to a worker process as a
self-contained *chunk spec* file: a versioned JSON envelope carrying
the requests (workload name, policy, seed) plus the **full
architecture description** (an ``ltrf-arch`` payload, not a registry
name), so the worker rebuilds the exact architecture without registry
access, and inherits its environment from the parent.  The worker
writes its results to the spec's ``output`` path atomically -- the
parent never observes a partial result file, only absence (worker
still running or died) or a complete one.

Durability discipline inside the worker: when the spec names a store
directory, each record is flushed to it *as it completes* (the store's
per-writer segments make concurrent workers safe by construction), and
a request whose key is already present in that store is served from it
instead of re-simulated -- so a chunk retried after a mid-chunk kill
repeats none of its dead predecessor's flushed work.

Fault injection (:mod:`repro.launchers.faults`) hooks exactly here, in
the real worker entrypoint: an injected kill takes the same path as a
real SIGKILL, an injected delay holds the same loop a real hang would,
and ``corrupt-segment`` tears the same segment file a real mid-append
crash would tear.
"""

from __future__ import annotations

import json
import os
from typing import List, Optional

from repro.arch.serialize import ArchSerializationError, arch_from_dict
from repro.launchers.faults import active_plan, tear_segment
from repro.util import atomic_write_text

SPEC_FORMAT = "ltrf-chunk"
RESULT_FORMAT = "ltrf-chunk-result"
SPEC_VERSION = 1


class ChunkSpecError(ValueError):
    """Malformed chunk spec or chunk result file."""


def execute_request_with_telemetry(request):
    """Run one simulation, bypassing every result cache.

    Returns ``(RunRecord, SimTelemetry)``.  Module-level so pool
    workers can unpickle it; the simulator is deterministic in
    ``(request,)``, which is what makes parallel and serial execution
    interchangeable (the record, not the telemetry, is the
    deterministic part).

    Static work (kernel build, policy compile) flows through the
    process-wide static-artifact caches; the telemetry reports this
    run's share of it: the kernel builds it claims and its
    compile-cache deltas.
    """
    from repro.arch.sm import StreamingMultiprocessor
    from repro.compiler.cache import STATS as COMPILE_STATS
    from repro.experiments.runner import RunRecord, SimTelemetry
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
    record = RunRecord(
        workload=request.workload,
        policy=request.policy,
        ipc=result.ipc,
        cycles=result.cycles,
        instructions=result.instructions,
        prefetch_operations=result.prefetch_operations,
        resident_warps=result.resident_warps,
        activations=result.activations,
        deactivations=result.deactivations,
        mrf_reads=result.mrf_reads,
        mrf_writes=result.mrf_writes,
        rfc_reads=result.rfc_reads,
        rfc_writes=result.rfc_writes,
        rfc_read_hits=result.rfc_read_hits,
        rfc_read_misses=result.rfc_read_misses,
        rfc_fills=result.rfc_fills,
        rfc_writebacks=result.rfc_writebacks,
        l1_hit_rate=result.l1_hit_rate,
    )
    hits_after, misses_after, compile_seconds_after = (
        COMPILE_STATS.snapshot()
    )
    telemetry = SimTelemetry(
        host_seconds=result.host_seconds,
        cycles=result.cycles,
        instructions=result.instructions,
        cycles_skipped=result.cycles_skipped,
        event_counts=result.event_counts,
        kernel_fingerprint=fingerprint,
        kernel_builds=builds,
        kernel_build_seconds=build_seconds,
        compile_cache_hits=hits_after - hits_before,
        compile_cache_misses=misses_after - misses_before,
        compile_seconds=compile_seconds_after - compile_seconds_before,
    )
    return record, telemetry


def encode_chunk_spec(chunk_id: int, attempt: int, worker: str,
                      items: List[tuple], output: str,
                      store_dir: Optional[str] = None) -> dict:
    """Build the spec payload for one chunk attempt.

    ``items`` is the scheduler's ``[(key, SimRequest), ...]``; each
    request's config is serialised in full so the worker rebuilds the
    exact architecture without registry access.
    """
    from repro.arch.serialize import arch_to_dict
    return {
        "format": SPEC_FORMAT,
        "version": SPEC_VERSION,
        "chunk": chunk_id,
        "attempt": attempt,
        "worker": worker,
        "store": store_dir,
        "output": output,
        "requests": [
            {
                "key": key,
                "workload": request.workload,
                "policy": request.policy,
                "seed": request.seed,
                "arch": arch_to_dict(request.config),
            }
            for key, request in items
        ],
    }


def _require(payload: dict, name: str, kind, where: str):
    value = payload.get(name)
    if not isinstance(value, kind):
        raise ChunkSpecError(
            f"chunk {where} field {name!r} must be "
            f"{getattr(kind, '__name__', kind)}, got {type(value).__name__}"
        )
    return value


def load_chunk_spec(path: str) -> dict:
    """Read and validate a chunk spec file."""
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as error:
        raise ChunkSpecError(f"cannot read chunk spec {path!r}: {error}")
    except ValueError as error:
        raise ChunkSpecError(f"chunk spec {path!r} is not JSON: {error}")
    if not isinstance(payload, dict) \
            or payload.get("format") != SPEC_FORMAT:
        raise ChunkSpecError(
            f"{path!r} is not a chunk spec (format != {SPEC_FORMAT!r})"
        )
    if payload.get("version") != SPEC_VERSION:
        raise ChunkSpecError(
            f"chunk spec {path!r} has version "
            f"{payload.get('version')!r}; this build reads {SPEC_VERSION}"
        )
    _require(payload, "chunk", int, "spec")
    _require(payload, "attempt", int, "spec")
    _require(payload, "worker", str, "spec")
    _require(payload, "output", str, "spec")
    requests = _require(payload, "requests", list, "spec")
    for entry in requests:
        if not isinstance(entry, dict):
            raise ChunkSpecError("chunk spec request entries must be dicts")
        for name, kind in (("key", str), ("workload", str),
                           ("policy", str), ("seed", int),
                           ("arch", dict)):
            _require(entry, name, kind, "spec request")
    return payload


def run_worker_chunk(spec: dict) -> dict:
    """Execute one chunk spec in this process; returns the result
    payload (also written to the spec's ``output`` path).

    Import-light on purpose: the heavy simulator modules load only
    when a chunk actually runs, keeping worker startup cheap.
    """
    os.environ["LTRF_WORKER_ID"] = spec["worker"]

    from repro.experiments.runner import RunRecord, SimRequest, content_key
    from repro.store import ResultStore

    chunk_id, attempt = spec["chunk"], spec["attempt"]
    plan = active_plan(worker=spec["worker"])
    store = None
    if spec.get("store"):
        store = ResultStore(spec["store"])

    plan.on_chunk_start(chunk_id, attempt)

    results = []
    completed = 0
    for entry in spec["requests"]:
        key = entry["key"]
        try:
            config = arch_from_dict(entry["arch"])
        except ArchSerializationError as error:
            raise ChunkSpecError(
                f"chunk spec request {key!r} carries an invalid "
                f"architecture: {error}"
            ) from None
        cached_payload = store.get(key) if store is not None else None
        if cached_payload is not None:
            try:
                RunRecord(**cached_payload)
            except TypeError:
                cached_payload = None     # stale schema: re-simulate
        if cached_payload is not None:
            # A dead predecessor (earlier attempt of this chunk, or a
            # concurrent worker) already flushed this record: serve it
            # instead of re-simulating, so retries repeat no work.
            results.append({"key": key, "record": cached_payload,
                            "telemetry": None, "cached": True})
            continue
        request = SimRequest(entry["workload"], entry["policy"],
                             config, entry["seed"])
        record, telemetry = execute_request_with_telemetry(request)
        payload = _record_payload(record)
        if store is not None:
            store.put(content_key(key, telemetry.kernel_fingerprint),
                      payload)
        results.append({
            "key": key,
            "record": payload,
            "telemetry": _telemetry_payload(telemetry),
            "cached": False,
        })
        completed += 1
        plan.on_request_done(chunk_id, attempt, completed)

    if store is not None and plan.corrupt_segment_path(chunk_id, attempt):
        tear_segment(store)

    result = {
        "format": RESULT_FORMAT,
        "version": SPEC_VERSION,
        "chunk": chunk_id,
        "attempt": attempt,
        "worker": spec["worker"],
        "results": results,
    }
    atomic_write_text(
        spec["output"], json.dumps(result, sort_keys=True) + "\n"
    )
    if store is not None:
        store.close()
    return result


def _record_payload(record) -> dict:
    from dataclasses import asdict
    return asdict(record)


def _telemetry_payload(telemetry) -> dict:
    from dataclasses import asdict
    return asdict(telemetry)


def load_chunk_result(path: str, expect_chunk: int,
                      expect_attempt: int) -> List[dict]:
    """Read a worker's result file; raises :class:`ChunkSpecError` on
    anything malformed or from the wrong chunk/attempt (a stale file
    from a killed earlier attempt must never satisfy a later one)."""
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as error:
        raise ChunkSpecError(f"cannot read chunk result {path!r}: {error}")
    except ValueError as error:
        raise ChunkSpecError(f"chunk result {path!r} is not JSON: {error}")
    if not isinstance(payload, dict) \
            or payload.get("format") != RESULT_FORMAT:
        raise ChunkSpecError(f"{path!r} is not a chunk result file")
    if payload.get("chunk") != expect_chunk \
            or payload.get("attempt") != expect_attempt:
        raise ChunkSpecError(
            f"chunk result {path!r} is for chunk "
            f"{payload.get('chunk')!r} attempt {payload.get('attempt')!r} "
            f"(expected {expect_chunk}/{expect_attempt})"
        )
    results = _require(payload, "results", list, "result")
    for entry in results:
        if not isinstance(entry, dict) \
                or not isinstance(entry.get("key"), str) \
                or not isinstance(entry.get("record"), dict):
            raise ChunkSpecError(
                f"chunk result {path!r} holds a malformed entry"
            )
    return results
