"""Pluggable workload registry: one front door for every kernel source.

Historically ``workloads.suites.SUITE`` -- a hard-coded dict of 35
synthetic specs -- was imported directly by the CLI and every
experiment, which structurally closed the "as many scenarios as you can
imagine" axis: adding a workload meant editing the suite.  The registry
decouples *naming* a workload from *materialising* it.  A workload name
resolves, lazily, through three mechanisms:

1. **Registered providers** -- explicit name -> :class:`KernelProvider`
   entries.  The 35-workload paper suite registers one
   :class:`SpecProvider` per :class:`~repro.workloads.generator.WorkloadSpec`.
2. **Scenario families** -- parametric generators
   (:class:`~repro.workloads.scenarios.ScenarioFamily`).  A name like
   ``regpressure-128`` is parsed as ``(family, parameter)`` and built on
   demand, deterministically per ``(family, parameter, seed)``.
3. **Kernel files** -- any name that looks like a ``.kernel.json`` path
   loads through :mod:`repro.ir.serialize`.

Resolution is pure in the name: a worker process that receives only the
workload string (the batch engine pickles :class:`SimRequest`, not
kernels) re-resolves it to the identical kernel.  Built kernels and
their content fingerprints are memoised per registry, and the
fingerprint feeds the runner's cache key so a result can never be
served for a kernel other than the one that produced it.

Unknown names raise :class:`UnknownWorkloadError` carrying
nearest-match suggestions (difflib), which the CLI surfaces instead of
argparse's raw choices dump.
"""

from __future__ import annotations

import difflib
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.ir.kernel import Kernel
from repro.ir.serialize import fingerprint_of, load_kernel
from repro.workloads.generator import WorkloadSpec, build_kernel

#: Canonical extension for serialised kernels (what ``export-kernel``
#: writes by default).
KERNEL_FILE_SUFFIX = ".kernel.json"

#: Resolution accepts any ``.json`` name as a file path -- the rule
#: must be decidable from the name alone so batch-engine worker
#: processes resolve identically -- and no other workload kind can
#: legitimately end in ``.json``.
_FILE_NAME_SUFFIX = ".json"


def is_kernel_file_name(name: str) -> bool:
    """True when ``name`` routes to the kernel-file loader."""
    return name.endswith(_FILE_NAME_SUFFIX)


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


class UnknownWorkloadError(ValueError):
    """An unresolvable workload name, with nearest-name suggestions."""

    def __init__(self, name: str, suggestions: List[str],
                 known: List[str], kind: str = "workload") -> None:
        self.name = name
        self.suggestions = suggestions
        self.known = known
        self.kind = kind
        message = f"unknown {kind} {name!r}"
        if suggestions:
            message += "; did you mean: " + ", ".join(suggestions) + "?"
        if kind == "workload":
            message += (
                "  (run `list-workloads` for registered names and "
                "scenario families, or pass a .kernel.json path)"
            )
        else:
            message += "  (run `list-workloads` for family names)"
        super().__init__(message)

    def __reduce__(self):
        # Exception pickling reconstructs from Exception.args (the
        # formatted message), which does not match this __init__
        # signature; without this, a pool worker raising the error
        # takes the whole executor down as BrokenProcessPool.
        return (UnknownWorkloadError,
                (self.name, self.suggestions, self.known, self.kind))


class KernelProvider:
    """Lazy source of one named kernel.

    ``category`` may be known without building (synthetic specs declare
    it); providers that only learn it from the kernel leave it ``None``
    and the registry falls back to building.
    """

    def __init__(self, name: str, source: str,
                 build: Callable[[], Kernel],
                 category: Optional[str] = None,
                 description: str = "") -> None:
        self.name = name
        self.source = source
        self.category = category
        self.description = description
        self._build = build

    def build(self) -> Kernel:
        kernel = self._build()
        if kernel.name != self.name:
            # File- and family-backed kernels keep their own content
            # name; the registry name is the *lookup* key.  Only flag
            # genuinely inconsistent synthetic providers.
            if self.source == "spec":
                raise ValueError(
                    f"provider {self.name!r} built kernel {kernel.name!r}"
                )
        return kernel

    def __repr__(self) -> str:
        return f"KernelProvider({self.name!r}, source={self.source!r})"


class SpecProvider(KernelProvider):
    """Provider backed by a synthetic :class:`WorkloadSpec`."""

    def __init__(self, spec: WorkloadSpec) -> None:
        super().__init__(
            spec.name, "spec", lambda: build_kernel(spec),
            category=spec.category,
            description=f"synthetic spec ({spec.registers} registers)",
        )
        self.spec = spec


class FileProvider(KernelProvider):
    """Provider backed by a serialised ``.kernel.json`` file."""

    def __init__(self, path: str, name: Optional[str] = None) -> None:
        super().__init__(
            name if name is not None else path, "file",
            lambda: load_kernel(path),
            description=f"kernel file {path}",
        )
        self.path = path


class WorkloadRegistry:
    """Name -> kernel resolution with lazy providers and memoisation."""

    def __init__(self) -> None:
        self._providers: Dict[str, KernelProvider] = {}
        self._families: Dict[str, "ScenarioFamily"] = {}
        self._kernels: Dict[str, Kernel] = {}
        self._fingerprints: Dict[str, str] = {}
        # name -> (path, stat signature) for file-backed kernels, so a
        # rewritten .kernel.json invalidates the memo (see get_kernel).
        self._file_sources: Dict[str, Tuple[str, Tuple[int, int, int]]] = {}

    # -- registration -----------------------------------------------------

    def register(self, provider: KernelProvider,
                 replace: bool = False) -> KernelProvider:
        if not replace and provider.name in self._providers:
            raise ValueError(
                f"workload {provider.name!r} is already registered"
            )
        self._providers[provider.name] = provider
        self._kernels.pop(provider.name, None)
        self._fingerprints.pop(provider.name, None)
        self._file_sources.pop(provider.name, None)
        return provider

    def register_spec(self, spec: WorkloadSpec,
                      replace: bool = False) -> KernelProvider:
        return self.register(SpecProvider(spec), replace=replace)

    def register_file(self, path: str, name: Optional[str] = None,
                      replace: bool = False) -> KernelProvider:
        return self.register(FileProvider(path, name), replace=replace)

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
        for name in [n for n in self._kernels
                     if family.parse(n) is not None]:
            del self._kernels[name]
        for name in [n for n in self._fingerprints
                     if family.parse(n) is not None]:
            del self._fingerprints[name]
        return family

    # -- listing ----------------------------------------------------------

    def names(self) -> List[str]:
        """Registered provider names, in registration order."""
        return list(self._providers)

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

    def provider(self, name: str) -> KernelProvider:
        """Resolve ``name`` without building the kernel."""
        found = self._providers.get(name)
        if found is not None:
            return found
        for family in self._families.values():
            provider = family.match(name)
            if provider is not None:
                return provider
        if is_kernel_file_name(name):
            return FileProvider(name)
        raise UnknownWorkloadError(name, self._suggestions(name),
                                   self.names())

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

    @staticmethod
    def _file_signature(path: str) -> Optional[Tuple[int, int, int]]:
        try:
            status = os.stat(path)
        except OSError:
            return None
        return (status.st_mtime_ns, status.st_size, status.st_ino)

    def _invalidate_if_file_changed(self, name: str) -> None:
        """Drop memoised state when a kernel file was rewritten.

        Names are just lookup handles; for file-backed kernels the
        content lives on disk and can change under a long-lived
        process.  Serving the old kernel (and old fingerprint) then
        would be exactly the silently-wrong-results hazard the
        fingerprinted cache key exists to prevent.
        """
        source = self._file_sources.get(name)
        if source is None:
            return
        path, signature = source
        if self._file_signature(path) != signature:
            self._kernels.pop(name, None)
            self._fingerprints.pop(name, None)
            del self._file_sources[name]

    @staticmethod
    def _timed_build(name: str, provider: KernelProvider) -> Kernel:
        started = time.perf_counter()
        kernel = provider.build()
        BUILD_STATS.note_build(name, time.perf_counter() - started)
        return kernel

    def get_kernel(self, name: str) -> Kernel:
        """Build (and memoise) the kernel behind ``name``.

        Callers must not mutate the returned kernel; compile passes
        clone before mutating.
        """
        self._invalidate_if_file_changed(name)
        if name not in self._kernels:
            provider = self.provider(name)
            if isinstance(provider, FileProvider):
                # Capture the stat signature *before* reading: if the
                # file is replaced mid-read we re-validate next lookup.
                signature = self._file_signature(provider.path)
                kernel = self._timed_build(name, provider)
                if signature is None:
                    # Pre-read stat raced with the file's creation;
                    # the read succeeded, so a re-stat normally works.
                    signature = self._file_signature(provider.path)
                if signature is None:
                    # Still unstattable: memoising would pin this
                    # content forever with no way to detect a rewrite.
                    return kernel
                self._kernels[name] = kernel
                self._file_sources[name] = (provider.path, signature)
            else:
                self._kernels[name] = self._timed_build(name, provider)
        return self._kernels[name]

    def resolve(self, name: str) -> Tuple[Kernel, str]:
        """``(kernel, fingerprint)`` for ``name``, computed coherently.

        The fingerprint is derived from the *same kernel object* that
        is returned -- unlike calling :meth:`get_kernel` and
        :meth:`fingerprint` separately, where a file rewrite between
        the two calls could pair a kernel with another content's hash.
        Both halves are memoised, so after the first resolution this
        costs two dictionary lookups.  (File-change invalidation is
        delegated to :meth:`get_kernel`, which also clears the
        fingerprint memo read below.)
        """
        kernel = self.get_kernel(name)
        fingerprint = self._fingerprints.get(name)
        if fingerprint is None:
            fingerprint = fingerprint_of(kernel)
            if self._kernels.get(name) is kernel:
                # Mirror get_kernel's guard: when it declined to
                # memoise (unstattable file, no way to detect a
                # rewrite), a cached fingerprint would outlive the
                # content it hashes.
                self._fingerprints[name] = fingerprint
        return kernel, fingerprint

    def fingerprint(self, name: str) -> str:
        """Content fingerprint of the kernel behind ``name`` (memoised)."""
        return self.resolve(name)[1]

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
