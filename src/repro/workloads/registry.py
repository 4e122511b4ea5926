"""Pluggable workload registry: one front door for every kernel source.

Historically ``workloads.suites.SUITE`` -- a hard-coded dict of 35
synthetic specs -- was imported directly by the CLI and every
experiment, which structurally closed the "as many scenarios as you can
imagine" axis: adding a workload meant editing the suite.  The registry
decouples *naming* a workload from *materialising* it.  A workload name
resolves, lazily, through three mechanisms:

1. **Registered providers** -- explicit name -> provider entries.  The
   35-workload paper suite registers one :class:`SpecProvider` per
   :class:`~repro.workloads.generator.WorkloadSpec`.
2. **Scenario families** -- parametric generators
   (:class:`~repro.workloads.scenarios.ScenarioFamily`).  A name like
   ``regpressure-128`` is parsed as ``(family, parameter)`` and built on
   demand, deterministically per ``(family, parameter, seed)``.
3. **Kernel files** -- any name ending in ``.json`` loads through
   :mod:`repro.ir.serialize`.

The mechanism (providers, the file rule, the stat-signature memo,
nearest-name errors) is :class:`repro.registry.Registry`, shared with
the architecture registry; this module adds what only workloads have.
Resolution is pure in the name: a worker process that receives only the
workload string (the batch engine pickles :class:`SimRequest`, not
kernels) re-resolves it to the identical kernel.  Built kernels are
memoised per registry and fingerprinted once per kernel object, and the
fingerprint feeds the runner's cache key so a result can never be
served for a kernel other than the one that produced it.

Unknown names raise :class:`UnknownWorkloadError` carrying
nearest-match suggestions (difflib), which the CLI surfaces instead of
argparse's raw choices dump.
"""

from __future__ import annotations

import difflib
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.ir.kernel import Kernel
from repro.ir.serialize import fingerprint_of, load_kernel
from repro.registry import Provider, Registry, UnknownNameError
from repro.workloads.generator import WorkloadSpec, build_kernel


@dataclass
class KernelBuildStats:
    """Process-wide kernel builds that no telemetry has reported yet.

    Fed by every registry's :meth:`WorkloadRegistry.get_kernel` miss
    (generator runs, file loads) and drained through the runner's
    telemetry, so sweeps can report how much wall-clock went into
    building kernels versus simulating them.  Builds wait per workload
    name until :meth:`claim` drains them, so each is reported exactly
    once -- by the first grid that needs the kernel -- even when it
    ran before any runner existed (the CLI validates a workload by
    building it).
    """

    #: workload name -> seconds of each unclaimed build.
    unclaimed: Dict[str, List[float]] = field(default_factory=dict)

    def note_build(self, name: str, seconds: float) -> None:
        self.unclaimed.setdefault(name, []).append(seconds)

    def claim(self, names: Iterable[str]) -> Tuple[int, float]:
        """``(builds, seconds)`` of the unclaimed builds of ``names``,
        which count as reported from now on."""
        builds, seconds = 0, 0.0
        for name in dict.fromkeys(names):
            pending = self.unclaimed.pop(name, ())
            builds += len(pending)
            seconds += sum(pending)
        return builds, seconds


#: Shared across registries: builds happen per process.
BUILD_STATS = KernelBuildStats()


class UnknownWorkloadError(UnknownNameError):
    """An unresolvable workload name, with nearest-name suggestions."""

    kind = "workload"
    hints = {
        "workload": "run `list-workloads` for registered names and "
                    "scenario families, or pass a .kernel.json path",
        "scenario family": "run `list-workloads` for family names",
    }


class SpecProvider(Provider):
    """Provider backed by a synthetic :class:`WorkloadSpec`."""

    def __init__(self, spec: WorkloadSpec) -> None:
        super().__init__(
            spec.name, "spec", lambda: build_kernel(spec),
            description=f"synthetic spec ({spec.registers} registers)",
            category=spec.category,
        )
        self.spec = spec


class WorkloadRegistry(Registry):
    """Name -> kernel resolution: the shared :class:`Registry` plus
    registered specs, scenario families, build timing and categories."""

    error = UnknownWorkloadError
    load = staticmethod(load_kernel)
    file_kind = "kernel file"

    def __init__(self) -> None:
        super().__init__()
        self._families: Dict[str, "ScenarioFamily"] = {}

    # -- registration -----------------------------------------------------

    def register_spec(self, spec: WorkloadSpec,
                      replace: bool = False) -> Provider:
        return self.register(SpecProvider(spec), replace=replace)

    def register_family(self, family: "ScenarioFamily",
                        replace: bool = False) -> "ScenarioFamily":
        if not replace and family.prefix in self._families:
            raise ValueError(
                f"scenario family {family.prefix!r} is already registered"
            )
        self._families[family.prefix] = family
        # Drop memoised instances of this family: a replaced definition
        # must not keep serving the old kernels (or, worse, the old
        # fingerprints the runner keys its result cache on).
        for name in [n for n in self._built if family.parse(n) is not None]:
            self._forget(name)
        return family

    # -- listing ----------------------------------------------------------

    def families(self) -> List["ScenarioFamily"]:
        return list(self._families.values())

    def family(self, prefix: str) -> "ScenarioFamily":
        try:
            return self._families[prefix]
        except KeyError:
            matches = difflib.get_close_matches(
                prefix, list(self._families), n=3, cutoff=0.5
            )
            raise UnknownWorkloadError(
                prefix, matches, list(self._families),
                kind="scenario family",
            ) from None

    def provider(self, name: str) -> Provider:
        """Resolve ``name`` without building the kernel."""
        if name not in self._providers:
            for family in self._families.values():
                provider = family.match(name)
                if provider is not None:
                    return provider
        return super().provider(name)

    def _suggestions(self, name: str) -> List[str]:
        candidates = self.names() + [
            example
            for family in self._families.values()
            for example in family.examples
        ]
        suggested = difflib.get_close_matches(name, candidates, n=3,
                                              cutoff=0.5)
        # A family prefix with the wrong/missing parameter should point
        # at the family's example even when the full example name is a
        # poor string match (e.g. "regpressure" vs "regpressure-128").
        for family in self._families.values():
            if name.split("-")[0] == family.prefix:
                for example in family.examples:
                    if example not in suggested:
                        suggested.append(example)
        return suggested[:3]

    # -- materialisation --------------------------------------------------

    def _build(self, name: str, provider: Provider) -> Kernel:
        started = time.perf_counter()
        kernel = provider.build()
        BUILD_STATS.note_build(name, time.perf_counter() - started)
        return kernel

    def get_kernel(self, name: str) -> Kernel:
        """Build (and memoise) the kernel behind ``name``.

        Callers must not mutate the returned kernel; compile passes
        clone before mutating.
        """
        return self._get(name)

    def resolve(self, name: str) -> Tuple[Kernel, str]:
        """``(kernel, fingerprint)`` for ``name``, computed coherently.

        The fingerprint is derived from the *same kernel object* that
        is returned, through the per-object memo of
        :func:`~repro.ir.serialize.fingerprint_of`, so a file rewrite
        between two separate calls cannot pair a kernel with another
        content's hash.
        """
        kernel = self._get(name)
        return kernel, fingerprint_of(kernel)

    def category(self, name: str) -> str:
        """Workload category, without building when the provider knows."""
        provider = self.provider(name)
        if provider.category is not None:
            return provider.category
        return self.get_kernel(name).category


#: The process-wide default registry, populated lazily with the paper
#: suite and the built-in scenario families.  Lazy so that importing
#: this module never drags in the suite (and so worker processes build
#: an identical registry from the same immutable definitions).
_default: Optional[WorkloadRegistry] = None


def default_registry() -> WorkloadRegistry:
    global _default
    if _default is None:
        registry = WorkloadRegistry()
        from repro.workloads.scenarios import BUILTIN_FAMILIES
        from repro.workloads.suites import SUITE
        for spec in SUITE.values():
            registry.register_spec(spec)
        for family in BUILTIN_FAMILIES:
            registry.register_family(family)
        _default = registry
    return _default
