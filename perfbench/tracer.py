"""Run-time span tracing for the benchmark's traced run.

The program has no spans of its own yet, so the traced run wraps the
public functions and methods at each layer boundary from here, at run
time, and restores every one of them afterwards.  Each wrapped call is
a span: name, duration, and the enclosing span on the same thread.
Spans are aggregated in memory per thread (calls, inclusive seconds,
self seconds = duration minus wrapped children) and written out once,
at the end, by :meth:`Tracer.dump`.

Besides per-name totals the tracer keeps *layer attribution*: every
time a span's layer (the part of its name before the first dot)
differs from its parent's, its duration is charged to ``(root tag,
layer)``, where the root tag names the outermost span of the thread
(for service jobs: ``hot`` or ``cold``, from the job label).  That is
how the traced service run can say what share of a hot request's job
time sits in the store layer.

Wrapping costs every call a microsecond or two, and ``sweep-cold``
makes about 20M wrapped calls, so its traced pass runs about 2.5x
slower: read ``.s`` values as shares, ``.calls`` as exact.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import threading
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: (module, "Class.method" or "function", span name).  A "*" method
#: wraps every public method the class itself defines.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.arch.sm", "StreamingMultiprocessor.run", "arch.sm_run"),
    ("repro.arch.main_register_file", "BankCalendar.reserve",
     "arch.mrf.reserve"),
    ("repro.arch.main_register_file", "MainRegisterFile.read",
     "arch.mrf.access"),
    ("repro.arch.main_register_file", "MainRegisterFile.read_group",
     "arch.mrf.access"),
    ("repro.arch.main_register_file", "MainRegisterFile.write",
     "arch.mrf.access"),
    ("repro.arch.main_register_file", "MainRegisterFile.bulk_read",
     "arch.mrf.access"),
    ("repro.arch.main_register_file", "MainRegisterFile.bulk_write",
     "arch.mrf.access"),
    ("repro.arch.rf_cache", "RegisterFileCache.*", "arch.rfc"),
    ("repro.arch.memory", "MemoryHierarchy.access", "arch.memory.access"),
    ("repro.compiler.cache", "compiled_kernel_for", "compiler.compile"),
    ("repro.compiler.cache", "liveness_kernel_for", "compiler.compile"),
    ("repro.workloads.registry", "WorkloadRegistry.resolve",
     "workloads.resolve"),
    ("repro.experiments.runner", "Runner.request_key",
     "experiments.request_key"),
    ("repro.experiments.runner", "Runner.lookup", "experiments.lookup"),
    ("repro.experiments.latency_tolerance", "render_sweep_table",
     "experiments.render"),
    ("repro.experiments.latency_tolerance", "fig11", "experiments.render"),
    ("repro.experiments.latency_tolerance", "fig14", "experiments.render"),
    ("repro.store.result_store", "ResultStore.__init__", "store.open"),
    ("repro.store.result_store", "ResultStore.get", "store.get"),
    ("repro.store.result_store", "ResultStore.put", "store.put"),
    ("repro.store.query", "Query.records", "store.query"),
    ("repro.jobs.plan", "plan_requests", "jobs.plan"),
    ("repro.jobs.plan", "execute_plan", "jobs.execute"),
    ("repro.jobs.tracker", "JobTracker.execute", "jobs.job"),
    ("repro.service.app", "ServiceApp.handle", "service.handle"),
    ("repro.analysis.report", "build_report", "analysis.build_report"),
    ("repro.analysis.report", "write_report", "analysis.write_report"),
)

#: Policy hooks (method -> span); wrapped on every policy class that
#: defines them, found through ``repro.policies.POLICIES``.
POLICY_HOOKS = {
    "operand_read_latency": "policies.operand_read",
    "result_write": "policies.result_write",
    "prefetch": "policies.prefetch",
    "activate": "policies.activate",
    "deactivate": "policies.deactivate",
}

#: Every per-layer metric a traced run reports: (name, unit, better).
LAYER_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("arch.sm_run.calls", "count", "lower"),
    ("arch.sm_run.s", "s", "lower"),
    ("arch.sm_run.self_s", "s", "lower"),
    ("arch.sim_cycles", "cycles", "lower"),
    ("arch.instructions", "count", "lower"),
    ("arch.cycles_skipped", "cycles", "higher"),
    ("arch.events.scoreboard_release", "count", "lower"),
    ("arch.events.memory_response", "count", "lower"),
    ("arch.events.prefetch_arrival", "count", "lower"),
    ("arch.events.wcb_drain", "count", "lower"),
    ("arch.host_us_per_event", "us", "lower"),
    ("arch.mrf.reserve.calls", "count", "lower"),
    ("arch.mrf.reserve.s", "s", "lower"),
    ("arch.mrf.access.calls", "count", "lower"),
    ("arch.mrf.access.self_s", "s", "lower"),
    ("arch.rfc.calls", "count", "lower"),
    ("arch.rfc.s", "s", "lower"),
    ("arch.rfc.read_hit_ratio", "ratio", "higher"),
    ("arch.memory.access.calls", "count", "lower"),
    ("arch.memory.access.s", "s", "lower"),
    ("arch.memory.l1_hit_ratio", "ratio", "higher"),
    ("policies.operand_read.calls", "count", "lower"),
    ("policies.operand_read.self_s", "s", "lower"),
    ("policies.result_write.calls", "count", "lower"),
    ("policies.result_write.self_s", "s", "lower"),
    ("policies.prefetch.calls", "count", "lower"),
    ("policies.prefetch.self_s", "s", "lower"),
    ("policies.activate.calls", "count", "lower"),
    ("policies.activate.self_s", "s", "lower"),
    ("policies.deactivate.calls", "count", "lower"),
    ("policies.deactivate.self_s", "s", "lower"),
    ("compiler.compile.calls", "count", "lower"),
    ("compiler.compile.s", "s", "lower"),
    ("compiler.cache_hit_ratio", "ratio", "higher"),
    ("workloads.resolve.calls", "count", "lower"),
    ("workloads.resolve.s", "s", "lower"),
    ("experiments.request_key.calls", "count", "lower"),
    ("experiments.request_key.s", "s", "lower"),
    ("experiments.lookup.calls", "count", "lower"),
    ("experiments.lookup.s", "s", "lower"),
    ("experiments.lookup.hit_ratio", "ratio", "higher"),
    ("experiments.render.calls", "count", "lower"),
    ("experiments.render.s", "s", "lower"),
    ("experiments.simulated", "count", "lower"),
    ("experiments.reported_simulated", "count", "lower"),
    ("experiments.lookup_hits", "count", "higher"),
    ("experiments.reported_hits", "count", "higher"),
    ("store.opens", "count", "lower"),
    ("store.opens_per_op", "count", "lower"),
    ("store.records", "count", "lower"),
    ("store.get.calls", "count", "lower"),
    ("store.get.s", "s", "lower"),
    ("store.put.calls", "count", "lower"),
    ("store.put.s", "s", "lower"),
    ("store.query.calls", "count", "lower"),
    ("store.query.s", "s", "lower"),
    ("jobs.plan.calls", "count", "lower"),
    ("jobs.plan.s", "s", "lower"),
    ("jobs.execute.calls", "count", "lower"),
    ("jobs.execute.s", "s", "lower"),
    ("jobs.single_flight_waits", "count", "lower"),
    ("service.handle.sweeps.calls", "count", "lower"),
    ("service.handle.sweeps.s", "s", "lower"),
    ("service.handle.results.calls", "count", "lower"),
    ("service.handle.results.s", "s", "lower"),
    ("service.transport_s", "s", "lower"),
    ("service.hot.store_share", "ratio", "lower"),
    ("analysis.build_report.calls", "count", "lower"),
    ("analysis.build_report.s", "s", "lower"),
    ("analysis.write_report.s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.traced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

#: Span-statistic suffixes: index into a span's [calls, s, self_s].
_SPAN_FIELDS = {"calls": 0, "s": 1, "self_s": 2}


class _ThreadState:
    """One thread's span stack and aggregates (no locking needed)."""

    __slots__ = ("stack", "spans", "attrib", "root")

    def __init__(self) -> None:
        self.stack: List[list] = []     # [name, child_s, layer]
        self.spans: Dict[str, list] = {}            # name -> [n, s, self]
        self.attrib: Dict[Tuple[str, str], list] = {}   # -> [n, s]
        self.root = ""


def _layer(name: str) -> str:
    return name.partition(".")[0]


class Tracer:
    """Wraps the :data:`TARGETS` while installed; aggregates spans."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        #: (holder, attribute, original) in installation order.
        self._patches: List[Tuple[object, str, object]] = []
        self.counters: Dict[str, float] = {}
        #: Targets this program version does not have (reported, not
        #: fatal: a refactor may move a function the benchmark wraps).
        self.missing: List[str] = []
        self._compile_stats_at_install: Optional[Tuple] = None

    # -- installation ---------------------------------------------------

    def install(self) -> "Tracer":
        for module_name, path, span in TARGETS:
            resolved = _resolve(module_name, path)
            if not resolved:
                self.missing.append(f"{module_name}.{path}")
            for holder, attr, original in resolved:
                self._patch_everywhere(holder, attr, original, span)
        for holder, attr, original, span in _policy_hooks():
            self._patch_everywhere(holder, attr, original, span)
        from repro.compiler.cache import STATS
        self._compile_stats_at_install = STATS.snapshot()
        return self

    def uninstall(self) -> None:
        """Put every wrapped attribute back exactly as it was."""
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    @property
    def patched(self) -> List[Tuple[object, str, object]]:
        return list(self._patches)

    def _patch_everywhere(self, holder, attr: str, original,
                          span: str) -> None:
        wrapper = self._wrapper(original, span)
        if isinstance(holder, type):
            bindings = [(holder, attr)]
        else:
            # A module-level function: rebind every repro module that
            # imported it by name, or callers would bypass the span.
            bindings = [
                (module, name)
                for module in list(sys.modules.values())
                if getattr(module, "__name__", "").startswith("repro")
                for name, value in list(vars(module).items())
                if value is original
            ]
        for bound_holder, name in bindings:
            self._patches.append((bound_holder, name, original))
            setattr(bound_holder, name, wrapper)

    # -- spans ----------------------------------------------------------

    def _new_state(self) -> _ThreadState:
        state = self._local.state = _ThreadState()
        with self._lock:
            self._states.append(state)
        return state

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def _wrapper(self, original, span: str) -> Callable:
        # Hot path: the SM-core wrappers run ~20M times per sweep-cold
        # pass, so everything per-span is bound here, once.
        local = self._local
        new_state = self._new_state
        namer, tagger, on_return = _SPECIAL.get(span, (None, None, None))
        span_layer = _layer(span)
        tracer = self

        def traced(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = new_state()
            stack = state.stack
            if namer is None:
                name, layer = span, span_layer
            else:
                name = namer(args)
                layer = _layer(name)
            if stack and stack[-1][0] == name:
                # A hook calling its base implementation: one span.
                return original(*args, **kwargs)
            if not stack:
                state.root = tagger(args) if tagger is not None else name
            frame = [name, 0.0, layer]
            stack.append(frame)
            started = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                stack.pop()
                entry = state.spans.get(name)
                if entry is None:
                    entry = state.spans[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += elapsed
                    crossed = parent[2] != layer
                else:
                    crossed = True
                if crossed:
                    key = (state.root, layer)
                    share = state.attrib.get(key)
                    if share is None:
                        share = state.attrib[key] = [0, 0.0]
                    share[0] += 1
                    share[1] += elapsed
            if on_return is not None:
                on_return(tracer, args, result, stack)
            return result

        traced.__wrapped__ = original
        return traced

    # -- results --------------------------------------------------------

    def snapshot(self) -> dict:
        """Everything recorded so far, merged across threads (JSON-able)."""
        spans: Dict[str, list] = {}
        attrib: Dict[str, list] = {}
        with self._lock:
            states = list(self._states)
            counters = dict(self.counters)
        for state in states:
            for name, (calls, total, own) in list(state.spans.items()):
                entry = spans.setdefault(name, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += total
                entry[2] += own
            for (root, layer), (calls, total) in list(state.attrib.items()):
                entry = attrib.setdefault(f"{root}|{layer}", [0, 0.0])
                entry[0] += calls
                entry[1] += total
        if self._compile_stats_at_install is not None:
            from repro.compiler.cache import STATS
            hits, misses, _ = STATS.snapshot()
            counters["compile_hits"] = (
                counters.get("compile_hits", 0)
                + hits - self._compile_stats_at_install[0])
            counters["compile_misses"] = (
                counters.get("compile_misses", 0)
                + misses - self._compile_stats_at_install[1])
        return {"spans": spans, "attrib": attrib, "counters": counters,
                "missing": list(self.missing)}

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle, sort_keys=True)


# -- target resolution --------------------------------------------------------

def _resolve(module_name: str, path: str) -> List[Tuple[object, str, object]]:
    """``[(holder, attribute, original)]`` for one target, or ``[]``."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return []
    owner_name, _, attr = path.rpartition(".")
    if not owner_name:
        function = getattr(module, attr, None)
        return [(module, attr, function)] \
            if inspect.isfunction(function) else []
    owner = getattr(module, owner_name, None)
    if not isinstance(owner, type):
        return []
    if attr == "*":
        return [(owner, name, value) for name, value in vars(owner).items()
                if not name.startswith("_") and inspect.isfunction(value)]
    value = vars(owner).get(attr)
    return [(owner, attr, value)] if inspect.isfunction(value) else []


def _policy_hooks() -> List[Tuple[type, str, object, str]]:
    """Every concrete policy-hook definition across the policy classes."""
    from repro.policies import POLICIES

    classes = []
    for policy in POLICIES.values():
        for cls in policy.__mro__:
            if cls.__module__.startswith("repro.policies") \
                    and cls not in classes:
                classes.append(cls)
    found = []
    for cls in classes:
        for hook, span in POLICY_HOOKS.items():
            value = vars(cls).get(hook)
            if inspect.isfunction(value) and not getattr(
                    value, "__isabstractmethod__", False):
                found.append((cls, hook, value, span))
    return found


# -- span-specific naming, tagging and result hooks ---------------------------

def _handle_name(args) -> str:
    """``ServiceApp.handle(self, method, path, ...)`` -> route span."""
    path = args[2] if len(args) > 2 else ""
    if path.rstrip("/") == "/sweeps":
        return "service.handle.sweeps"
    if path.startswith("/results"):
        return "service.handle.results"
    return "service.handle.other"


def _job_tag(args) -> str:
    """``JobTracker.execute(self, job_id)`` -> first label word after
    the benchmark prefix (``hot``/``cold``), else ``job``."""
    try:
        label = args[0].get(args[1]).spec.label
    except (KeyError, IndexError, AttributeError):
        return "job"                    # unknown job: execute() reports it
    words = label.split()
    return words[1] if len(words) > 1 and words[0] == "perfbench" else "job"


def _after_sm_run(tracer: Tracer, args, result, stack) -> None:
    sm = args[0]
    memory = sm.memory.stats
    rfc_total = result.rfc_read_hits + result.rfc_read_misses
    with tracer._lock:
        counters = tracer.counters
        for name, value in (
            ("sim_cycles", result.cycles),
            ("instructions", result.instructions),
            ("cycles_skipped", result.cycles_skipped),
            ("rfc_read_hits", result.rfc_read_hits),
            ("rfc_reads", rfc_total),
            ("l1_hits", memory.l1_hits),
            ("l1_accesses", memory.l1_accesses),
        ):
            counters[name] = counters.get(name, 0) + value
        for kind, value in result.event_counts.items():
            key = f"event.{kind}"
            counters[key] = counters.get(key, 0) + value


def _after_lookup(tracer: Tracer, args, result, stack) -> None:
    if result is None:
        return
    tracer.count("lookup_hits_any")
    if any(frame[0] == "jobs.plan" for frame in stack):
        # Served from the store at plan time: a grid point the run did
        # not have to simulate (render-time lookups are not counted).
        tracer.count("plan_lookup_hits")


_SPECIAL: Dict[str, Tuple[Optional[Callable], Optional[Callable],
                          Optional[Callable]]] = {
    "service.handle": (_handle_name, None, None),
    "jobs.job": (None, _job_tag, None),
    "arch.sm_run": (None, None, _after_sm_run),
    "experiments.lookup": (None, None, _after_lookup),
}


# -- merging and per-layer metrics --------------------------------------------

def merge(dumps: Iterable[dict]) -> dict:
    """Sum several :meth:`Tracer.snapshot` results (one per process)."""
    merged = {"spans": {}, "attrib": {}, "counters": {}, "missing": []}
    for dump in dumps:
        for name, values in dump["spans"].items():
            entry = merged["spans"].setdefault(name, [0, 0.0, 0.0])
            for index, value in enumerate(values):
                entry[index] += value
        for key, values in dump["attrib"].items():
            entry = merged["attrib"].setdefault(key, [0, 0.0])
            for index, value in enumerate(values):
                entry[index] += value
        for name, value in dump["counters"].items():
            merged["counters"][name] = merged["counters"].get(name, 0) + value
        for target in dump["missing"]:
            if target not in merged["missing"]:
                merged["missing"].append(target)
    return merged


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(merged: dict, supplied: Dict[str, float]) -> Dict[str, float]:
    """Every :data:`LAYER_METRICS` value from merged spans plus the
    pass-supplied figures (absent layers read 0)."""
    spans = merged["spans"]
    counters = merged["counters"]

    def span(name: str, field_name: str) -> float:
        entry = spans.get(name)
        return entry[_SPAN_FIELDS[field_name]] if entry else 0

    events = {kind: counters.get(f"event.{kind}", 0) for kind in (
        "scoreboard_release", "memory_response", "prefetch_arrival",
        "wcb_drain")}
    hot_total = merged["attrib"].get("hot|jobs", [0, 0.0])[1]
    hot_store = merged["attrib"].get("hot|store", [0, 0.0])[1]
    derived = {
        "arch.sim_cycles": counters.get("sim_cycles", 0),
        "arch.instructions": counters.get("instructions", 0),
        "arch.cycles_skipped": counters.get("cycles_skipped", 0),
        "arch.host_us_per_event": _ratio(
            span("arch.sm_run", "s") * 1e6, sum(events.values())),
        "arch.rfc.read_hit_ratio": _ratio(
            counters.get("rfc_read_hits", 0), counters.get("rfc_reads", 0)),
        "arch.memory.l1_hit_ratio": _ratio(
            counters.get("l1_hits", 0), counters.get("l1_accesses", 0)),
        "compiler.cache_hit_ratio": _ratio(
            counters.get("compile_hits", 0),
            counters.get("compile_hits", 0)
            + counters.get("compile_misses", 0)),
        "experiments.lookup.hit_ratio": _ratio(
            counters.get("lookup_hits_any", 0),
            span("experiments.lookup", "calls")),
        "experiments.simulated": span("arch.sm_run", "calls"),
        "experiments.lookup_hits": counters.get("plan_lookup_hits", 0),
        "store.opens": span("store.open", "calls"),
        "service.hot.store_share": _ratio(hot_store, hot_total),
    }
    for kind, value in events.items():
        derived[f"arch.events.{kind}"] = value
    metrics = {}
    for name, _unit, _better in LAYER_METRICS:
        if name in supplied:
            metrics[name] = supplied[name]
        elif name in derived:
            metrics[name] = derived[name]
        else:
            base, _, field_name = name.rpartition(".")
            metrics[name] = span(base, field_name)
    return metrics
