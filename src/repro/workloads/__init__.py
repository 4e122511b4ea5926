"""Workload frontend: suites, scenario families, registry, kernel files.

The paper suite (35 synthetic stand-ins for CUDA SDK / Rodinia /
Parboil) lives in :mod:`repro.workloads.suites`; parametric scenario
families in :mod:`repro.workloads.scenarios`; and the pluggable
name -> kernel resolution layer in :mod:`repro.workloads.registry`.
``get_kernel`` accepts any registered name, a scenario instance such as
``regpressure-128``, or a ``.kernel.json`` path.
"""

from repro.workloads.generator import WorkloadSpec, build_kernel
from repro.workloads.registry import (
    KernelProvider,
    UnknownWorkloadError,
    WorkloadRegistry,
    default_registry,
)
from repro.workloads.scenarios import BUILTIN_FAMILIES, ScenarioFamily
from repro.workloads.suites import (
    EVALUATION,
    EVALUATION_INSENSITIVE,
    EVALUATION_SENSITIVE,
    SUITE,
    get_kernel,
    get_spec,
    suite_kernels,
    workload_names,
)


def workload_category(name: str) -> str:
    """Category of any resolvable workload name (suite, scenario, file)."""
    return default_registry().category(name)


def workload_fingerprint(name: str) -> str:
    """Content fingerprint of any resolvable workload name (memoised)."""
    return default_registry().fingerprint(name)


def resolve_workload(name: str):
    """``(kernel, fingerprint)`` for any resolvable workload name.

    The fingerprint is computed from the returned kernel object itself
    (see :meth:`~repro.workloads.registry.WorkloadRegistry.resolve`),
    so callers that need both never hash twice nor race a file rewrite.
    """
    return default_registry().resolve(name)


__all__ = [
    "BUILTIN_FAMILIES",
    "EVALUATION",
    "EVALUATION_INSENSITIVE",
    "EVALUATION_SENSITIVE",
    "KernelProvider",
    "SUITE",
    "ScenarioFamily",
    "UnknownWorkloadError",
    "WorkloadRegistry",
    "WorkloadSpec",
    "build_kernel",
    "default_registry",
    "get_kernel",
    "get_spec",
    "resolve_workload",
    "suite_kernels",
    "workload_category",
    "workload_fingerprint",
    "workload_names",
]
