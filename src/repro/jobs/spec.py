"""Declarative sweep-job specifications.

A :class:`JobSpec` names everything one latency-tolerance sweep needs
-- workloads, policies, architectures, the latency grid, seed and
worker count -- in plain JSON-serialisable data.  It is the
submission format of the HTTP service (``POST /sweeps``), the unit
the :class:`~repro.jobs.tracker.JobTracker` schedules and the grid of
the CLI ``sweep`` command, but carries no execution state itself:
:meth:`JobSpec.to_requests` expands it into the
:class:`~repro.experiments.runner.SimRequest` grid, so a job and the
equivalent CLI invocation resolve to identical cache keys and
therefore dedupe against each other through the store.

Validation is strict and early (:meth:`JobSpec.validate`): unknown
policies, workloads and architectures, latency multiples that are not
finite or below 1x, an override of the latency the grid sets, and more
worker processes than the machine has CPUs fail at submission time
with one readable message instead of surfacing later as a failed job
(or a fork per grid point).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple

from repro.experiments.latency_tolerance import LATENCY_GRID
from repro.store.result_store import SEED_RANGE, check_workload_name


class JobSpecError(ValueError):
    """A job specification that cannot be run (the HTTP 400 of the
    service): unknown names, empty axes, malformed values."""


def _tuple_of_str(value, name: str) -> Tuple[str, ...]:
    if isinstance(value, str):
        value = (value,)
    try:
        items = tuple(value)
    except TypeError:
        raise JobSpecError(
            f"{name} must be a string or a list of strings, "
            f"got {value!r}"
        ) from None
    if not items or not all(isinstance(item, str) and item
                            for item in items):
        raise JobSpecError(
            f"{name} must be a non-empty list of non-empty strings, "
            f"got {value!r}"
        )
    return items


def _tuple_of_latencies(value) -> Tuple[float, ...]:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        value = (value,)
    try:
        items = tuple(value)
    except TypeError:
        raise JobSpecError(
            f"grid must be a number or a list of numbers, got {value!r}"
        ) from None
    # Written so NaN fails too: every comparison with NaN is false.
    if not items or not all(
        isinstance(item, (int, float)) and not isinstance(item, bool)
        and 1 <= item < float("inf") for item in items
    ):
        raise JobSpecError(
            f"grid must be a non-empty list of finite latency multiples "
            f"of at least 1, got {value!r}"
        )
    return tuple(float(item) for item in items)


@dataclass(frozen=True)
class JobSpec:
    """One sweep job: the cross product the batch engine will resolve.

    ``overrides`` are :class:`GPUConfig` field deltas applied on top of
    each architecture (exactly the ``**config_overrides`` of
    :func:`~repro.experiments.latency_tolerance.sweep_requests`), which
    is how tests and benchmarks submit fast small-SM jobs without
    shipping an ``.arch.json``.
    """

    workloads: Tuple[str, ...]
    policies: Tuple[str, ...] = ("BL", "RFC", "LTRF", "LTRF+")
    archs: Tuple[str, ...] = ("maxwell-like",)
    grid: Tuple[float, ...] = LATENCY_GRID
    seed: int = 0
    #: Worker processes for this job's miss grid; at most the
    #: machine's CPU count.
    jobs: int = 1
    overrides: Mapping[str, object] = field(default_factory=dict)
    #: Free-form tag carried into the run log.
    label: str = ""

    # -- construction -------------------------------------------------------

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "JobSpec":
        """Build a spec from a JSON payload, strictly.

        Unknown keys are an error (a typo'd ``"polices"`` must not
        silently run the default policy set); scalar values are
        accepted where a one-element list is meant.
        """
        if not isinstance(payload, Mapping):
            raise JobSpecError(
                f"job spec must be a JSON object, got "
                f"{type(payload).__name__}"
            )
        known = {
            "workloads", "policies", "archs", "grid", "seed", "jobs",
            "overrides", "label",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise JobSpecError(
                f"unknown job spec key(s): {', '.join(unknown)} "
                f"(expected a subset of {', '.join(sorted(known))})"
            )
        if "workloads" not in payload:
            raise JobSpecError("job spec requires 'workloads'")
        kwargs: Dict[str, object] = {
            "workloads": _tuple_of_str(payload["workloads"], "workloads"),
        }
        if "policies" in payload:
            kwargs["policies"] = _tuple_of_str(payload["policies"],
                                               "policies")
        if "archs" in payload:
            kwargs["archs"] = _tuple_of_str(payload["archs"], "archs")
        if "grid" in payload:
            kwargs["grid"] = _tuple_of_latencies(payload["grid"])
        for name, kind in (("seed", int), ("jobs", int), ("label", str)):
            if name in payload:
                value = payload[name]
                if not isinstance(value, kind) \
                        or isinstance(value, bool):
                    raise JobSpecError(
                        f"{name} must be a {kind.__name__}, got {value!r}"
                    )
                kwargs[name] = value
        if "overrides" in payload:
            overrides = payload["overrides"]
            if not isinstance(overrides, Mapping) or not all(
                isinstance(key, str) for key in overrides
            ):
                raise JobSpecError(
                    f"overrides must be an object of GPUConfig field "
                    f"deltas, got {overrides!r}"
                )
            kwargs["overrides"] = dict(overrides)
        return cls(**kwargs)

    def to_dict(self) -> Dict[str, object]:
        """The JSON form :meth:`from_dict` round-trips."""
        return {
            "workloads": list(self.workloads),
            "policies": list(self.policies),
            "archs": list(self.archs),
            "grid": list(self.grid),
            "seed": self.seed,
            "jobs": self.jobs,
            "overrides": dict(self.overrides),
            "label": self.label,
        }

    # -- validation ---------------------------------------------------------

    def validate(self) -> "JobSpec":
        """Raise :class:`JobSpecError` unless every name resolves.

        Resolution goes through the same registries the CLI uses, so
        the error text (difflib suggestions and all) matches what
        ``repro sweep`` would print.  Returns self for chaining.
        """
        from repro.arch.registry import default_arch_registry
        from repro.policies import POLICIES
        from repro.workloads import default_registry

        _tuple_of_str(self.workloads, "workloads")
        _tuple_of_str(self.policies, "policies")
        _tuple_of_str(self.archs, "archs")
        _tuple_of_latencies(self.grid)
        for policy in self.policies:
            if policy not in POLICIES:
                raise JobSpecError(
                    f"unknown policy {policy!r} (expected one of "
                    f"{', '.join(sorted(POLICIES))})"
                )
        if not isinstance(self.jobs, int) or self.jobs < 1:
            raise JobSpecError(f"jobs must be a positive integer, "
                               f"got {self.jobs!r}")
        cpus = os.cpu_count() or 1
        if self.jobs > cpus:
            raise JobSpecError(f"jobs must be at most {cpus}, the "
                               f"machine's CPU count, got {self.jobs}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise JobSpecError(f"seed must be an integer, "
                               f"got {self.seed!r}")
        if self.seed not in SEED_RANGE:
            raise JobSpecError(f"seed must be a signed 64-bit integer, "
                               f"got {self.seed!r}")
        for workload in self.workloads:
            try:
                check_workload_name(workload)
                default_registry().get_kernel(workload)
            except ValueError as error:
                raise JobSpecError(str(error)) from None
        for arch in self.archs:
            try:
                default_arch_registry().get_config(arch)
            except ValueError as error:
                raise JobSpecError(str(error)) from None
        if "mrf_latency_multiple" in self.overrides:
            raise JobSpecError(
                "overrides may not set mrf_latency_multiple: the grid "
                "sets the latency of each point"
            )
        if self.overrides:
            # Apply the deltas once so a typo'd field name fails here.
            from repro.arch.registry import arch_config
            try:
                arch_config(self.archs[0], **dict(self.overrides))
            except (TypeError, ValueError) as error:
                raise JobSpecError(
                    f"bad overrides {dict(self.overrides)!r}: {error}"
                ) from None
        return self

    # -- expansion ----------------------------------------------------------

    def to_requests(self) -> List:
        """The :class:`SimRequest` grid, in the CLI ``sweep`` order
        (workload-major, then architecture, then policy, then latency)
        so a job and the equivalent CLI sweep compute identical keys in
        identical order."""
        from repro.experiments.latency_tolerance import sweep_requests

        overrides = dict(self.overrides)
        return [
            request
            for workload in self.workloads
            for arch in self.archs
            for policy in self.policies
            for request in sweep_requests(
                policy, workload, self.grid, arch=arch, seed=self.seed,
                **overrides
            )
        ]

    def describe(self) -> str:
        """One-line human label, e.g. for run logs."""
        text = (
            f"{','.join(self.workloads)} x {','.join(self.policies)} "
            f"x {len(self.grid)} point(s)"
        )
        if len(self.archs) > 1 or self.archs[0] != "maxwell-like":
            text += f" on {','.join(self.archs)}"
        return text
