"""Process-wide static-artifact cache: compile each kernel once.

A latency sweep revisits the same kernel at dozens of grid points, and
every LTRF-family simulation used to re-run the full compile pipeline
(liveness, region formation, PREFETCH insertion) even though the
compiled artifact depends only on the kernel *content* and the compile
parameters.  This module memoises that static work process-wide:

* :func:`compiled_kernel_for` -- ``compile_kernel`` output keyed by
  ``(kernel fingerprint, region_kind, max_registers, run_pass2)``;
* :func:`liveness_kernel_for` -- the dead-operand-annotated clone SHRF
  executes, keyed by the kernel fingerprint alone;
* :func:`cached_trace_list` -- a warp's materialised dynamic trace,
  keyed per executable-kernel object by ``(warp_id, seed)``.  Traces
  are pure in ``(kernel, warp_id, seed)`` and the profile shows their
  regeneration at every grid point is one of the larger static costs.

Keys are *content* fingerprints (:func:`repro.ir.serialize.fingerprint_of`),
so the invalidation semantics are inherited from the workload
registry's stat-signature machinery: a rewritten ``.kernel.json`` (or
an edited generator) produces a kernel with a different fingerprint and
simply never matches old entries.  Compiled artifacts live for the
process -- that cache is bounded by the number of distinct (kernel,
parameter) combinations simulated, each a few KB.  Trace lists are much
larger (one entry per dynamic instruction), and registry-memoised
kernels are strongly referenced for the process lifetime, so each
kernel's trace table is additionally capped at
:data:`TRACE_MEMO_LIMIT` entries and cleared on overflow (a sweep
reuses a few dozen ``(warp, seed)`` pairs; only seed scans approach
the cap, and regeneration is cheap).

Cached artifacts are shared, not copied: the simulator must never
mutate an executable kernel (compile passes clone before mutating, the
SM and policies only read), and ``tests/compiler/test_cache.py`` pins
that contract by serialising artifacts before and after simulation.
The hit/miss/seconds counters in :data:`STATS` feed the runner's
telemetry; :func:`clear_static_cache` empties every memo, so the next
use of each artifact rebuilds it.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.compiler.pipeline import CompiledKernel, compile_kernel
from repro.compiler.register_intervals import DEFAULT_MAX_REGISTERS
from repro.ir.kernel import Kernel, TraceEntry
from repro.ir.liveness import annotate_dead_operands
from repro.ir.serialize import fingerprint_of


@dataclass
class StaticCacheStats:
    """Compile-side counters surfaced through the runner's telemetry."""

    compile_cache_hits: int = 0
    compile_cache_misses: int = 0
    #: Host seconds spent inside compile passes (misses only).
    compile_seconds: float = 0.0

    def snapshot(self) -> Tuple[int, int, float]:
        return (self.compile_cache_hits, self.compile_cache_misses,
                self.compile_seconds)


#: Process-wide counters (per pool-worker process, like the caches).
STATS = StaticCacheStats()

#: (fingerprint, region_kind, max_registers, run_pass2) -> artifact.
_compiled: Dict[Tuple[str, str, int, bool], CompiledKernel] = {}

#: fingerprint -> liveness-annotated clone (SHRF's executable form).
_liveness: Dict[str, Kernel] = {}

#: Per-warp trace tables, one per executable kernel:
#: ``{(warp_id, seed): trace}``.  Weak, so a trace memo never outlives
#: the (cached, shared) kernel it belongs to.
_TraceTable = Dict[Tuple[int, int], List[TraceEntry]]
_traces: "weakref.WeakKeyDictionary[Kernel, _TraceTable]" = (
    weakref.WeakKeyDictionary()
)

#: Max memoised traces per kernel before the kernel's table is cleared
#: (see module docstring: traces are the one unbounded-growth risk).
TRACE_MEMO_LIMIT = 256


def clear_static_cache() -> None:
    """Drop every memo and zero the counters (test isolation)."""
    _compiled.clear()
    _liveness.clear()
    _traces.clear()
    STATS.compile_cache_hits = 0
    STATS.compile_cache_misses = 0
    STATS.compile_seconds = 0.0


def compiled_kernel_for(
    kernel: Kernel,
    region_kind: str = "register-interval",
    max_registers: int = DEFAULT_MAX_REGISTERS,
    run_pass2: bool = True,
) -> CompiledKernel:
    """:func:`~repro.compiler.pipeline.compile_kernel`, memoised.

    The returned artifact is shared across callers; treat it (and its
    ``kernel``) as immutable.
    """
    key = (fingerprint_of(kernel), region_kind, max_registers, run_pass2)
    found = _compiled.get(key)
    if found is None:
        STATS.compile_cache_misses += 1
        started = time.perf_counter()
        found = _compiled[key] = compile_kernel(
            kernel, region_kind=region_kind, max_registers=max_registers,
            run_pass2=run_pass2,
        )
        STATS.compile_seconds += time.perf_counter() - started
    else:
        STATS.compile_cache_hits += 1
    return found


def liveness_kernel_for(kernel: Kernel) -> Kernel:
    """A dead-operand-annotated clone of ``kernel``, memoised.

    This is SHRF's executable form: no regions, no PREFETCHes, just the
    liveness bits.  Counted in the same hit/miss/seconds telemetry as
    full compiles -- it is the same class of per-run static work.
    """
    key = fingerprint_of(kernel)
    found = _liveness.get(key)
    if found is None:
        STATS.compile_cache_misses += 1
        started = time.perf_counter()
        clone = kernel.clone()
        annotate_dead_operands(clone)
        STATS.compile_seconds += time.perf_counter() - started
        _liveness[key] = found = clone
    else:
        STATS.compile_cache_hits += 1
    return found


def cached_trace_list(kernel: Kernel, warp_id: int,
                      seed: int) -> List[TraceEntry]:
    """``kernel.trace_list(warp_id, seed)``, memoised per kernel object.

    Keyed by object identity (weakly) rather than fingerprint: the
    executable kernels flowing out of the registry and the compile
    cache are already one shared object per content, and identity
    lookups keep this on the per-run fast path.  Callers share the
    returned list and its entries; neither may be mutated.
    """
    per_kernel = _traces.get(kernel)
    if per_kernel is None:
        per_kernel = {}
        _traces[kernel] = per_kernel
    key = (warp_id, seed)
    trace = per_kernel.get(key)
    if trace is None:
        if len(per_kernel) >= TRACE_MEMO_LIMIT:
            per_kernel.clear()
        trace = per_kernel[key] = kernel.trace_list(warp_id=warp_id,
                                                    seed=seed)
    return trace
