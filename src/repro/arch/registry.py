"""Named architecture registry: one front door for every SM description.

Mirrors :mod:`repro.workloads.registry` for the third evaluation axis.
An architecture name resolves, lazily, through two mechanisms:

1. **Registered providers** -- explicit name -> :class:`ArchProvider`
   entries.  The built-ins cover the paper's evaluation points: the
   Maxwell-like normalisation baseline, the Table 2 design rows
   (``table2-1`` .. ``table2-7``), the TFET/DWM latency variants, their
   8x-capacity forms, and the Section 4.2 narrow-crossbar design.
2. **Architecture files** -- any name that looks like a ``.arch.json``
   path loads through :mod:`repro.arch.serialize`, so defining a new SM
   topology means dropping a JSON file, not editing Python.

Resolution is pure in the name: a pool worker that receives only the
architecture string rebuilds the identical configuration.  Built
configurations and their content fingerprints are memoised per
registry -- with stat-signature invalidation for file-backed entries,
so a rewritten ``.arch.json`` can never be served (or cache-keyed)
with stale content.

Unknown names raise :class:`UnknownArchError` carrying nearest-match
suggestions (difflib), which the CLI surfaces instead of a stack trace.
"""

from __future__ import annotations

import difflib
import os
from typing import Callable, Dict, List, Optional, Tuple

from repro.arch.config import GPUConfig
from repro.arch.serialize import arch_fingerprint, load_arch

#: Canonical extension for serialised architectures (what
#: ``export-arch`` writes by default).
ARCH_FILE_SUFFIX = ".arch.json"

#: Resolution accepts any ``.json`` name as a file path -- decidable
#: from the name alone, so worker processes resolve identically, and no
#: registered architecture name can legitimately end in ``.json``.
_FILE_NAME_SUFFIX = ".json"


def is_arch_file_name(name: str) -> bool:
    """True when ``name`` routes to the ``.arch.json`` loader."""
    return name.endswith(_FILE_NAME_SUFFIX)


class UnknownArchError(ValueError):
    """An unresolvable architecture name, with nearest-name suggestions."""

    def __init__(self, name: str, suggestions: List[str],
                 known: List[str]) -> None:
        self.name = name
        self.suggestions = suggestions
        self.known = known
        message = f"unknown architecture {name!r}"
        if suggestions:
            message += "; did you mean: " + ", ".join(suggestions) + "?"
        message += (
            "  (run `list-archs` for built-in names, or pass a "
            ".arch.json path)"
        )
        super().__init__(message)

    def __reduce__(self):
        # Exception pickling reconstructs from Exception.args (the
        # formatted message), which does not match this __init__
        # signature; without this, a pool worker raising the error
        # takes the whole executor down as BrokenProcessPool.
        return (UnknownArchError, (self.name, self.suggestions, self.known))


class ArchProvider:
    """Lazy source of one named architecture."""

    def __init__(self, name: str, source: str,
                 build: Callable[[], GPUConfig],
                 description: str = "") -> None:
        self.name = name
        self.source = source
        self.description = description
        self._build = build

    def build(self) -> GPUConfig:
        return self._build()

    def __repr__(self) -> str:
        return f"ArchProvider({self.name!r}, source={self.source!r})"


class ArchFileProvider(ArchProvider):
    """Provider backed by a serialised ``.arch.json`` file."""

    def __init__(self, path: str, name: Optional[str] = None) -> None:
        super().__init__(
            name if name is not None else path, "file",
            lambda: load_arch(path),
            description=f"architecture file {path}",
        )
        self.path = path


class ArchRegistry:
    """Name -> configuration resolution with lazy providers and memos."""

    def __init__(self) -> None:
        self._providers: Dict[str, ArchProvider] = {}
        self._configs: Dict[str, GPUConfig] = {}
        self._fingerprints: Dict[str, str] = {}
        # name -> (path, stat signature) for file-backed architectures,
        # so a rewritten .arch.json invalidates the memo (get_config).
        self._file_sources: Dict[str, Tuple[str, Tuple[int, int, int]]] = {}

    # -- registration -----------------------------------------------------

    def register(self, provider: ArchProvider,
                 replace: bool = False) -> ArchProvider:
        if not replace and provider.name in self._providers:
            raise ValueError(
                f"architecture {provider.name!r} is already registered"
            )
        self._providers[provider.name] = provider
        self._configs.pop(provider.name, None)
        self._fingerprints.pop(provider.name, None)
        self._file_sources.pop(provider.name, None)
        return provider

    def register_file(self, path: str, name: Optional[str] = None,
                      replace: bool = False) -> ArchProvider:
        return self.register(ArchFileProvider(path, name), replace=replace)

    # -- listing ----------------------------------------------------------

    def names(self) -> List[str]:
        """Registered provider names, in registration order."""
        return list(self._providers)

    def provider(self, name: str) -> ArchProvider:
        """Resolve ``name`` without building the configuration."""
        found = self._providers.get(name)
        if found is not None:
            return found
        if is_arch_file_name(name):
            return ArchFileProvider(name)
        raise UnknownArchError(name, self._suggestions(name), self.names())

    def _suggestions(self, name: str) -> List[str]:
        return difflib.get_close_matches(name, self.names(), n=3,
                                         cutoff=0.5)

    # -- materialisation --------------------------------------------------

    @staticmethod
    def _file_signature(path: str) -> Optional[Tuple[int, int, int]]:
        try:
            status = os.stat(path)
        except OSError:
            return None
        return (status.st_mtime_ns, status.st_size, status.st_ino)

    def _invalidate_if_file_changed(self, name: str) -> None:
        """Drop memoised state when an architecture file was rewritten.

        Names are just lookup handles; for file-backed architectures
        the content lives on disk and can change under a long-lived
        process.  Serving the old configuration (and old fingerprint)
        then would be exactly the silently-wrong-results hazard the
        fingerprinted cache key exists to prevent.
        """
        source = self._file_sources.get(name)
        if source is None:
            return
        path, signature = source
        if self._file_signature(path) != signature:
            self._configs.pop(name, None)
            self._fingerprints.pop(name, None)
            del self._file_sources[name]

    def get_config(self, name: str) -> GPUConfig:
        """Build (and memoise) the configuration behind ``name``."""
        self._invalidate_if_file_changed(name)
        if name not in self._configs:
            provider = self.provider(name)
            if isinstance(provider, ArchFileProvider):
                # Capture the stat signature *before* reading: if the
                # file is replaced mid-read we re-validate next lookup.
                signature = self._file_signature(provider.path)
                config = provider.build()
                if signature is None:
                    signature = self._file_signature(provider.path)
                if signature is None:
                    # Still unstattable: memoising would pin this
                    # content forever with no way to detect a rewrite.
                    return config
                self._configs[name] = config
                self._file_sources[name] = (provider.path, signature)
            else:
                self._configs[name] = provider.build()
        return self._configs[name]

    def resolve(self, name: str) -> Tuple[GPUConfig, str]:
        """``(config, fingerprint)`` for ``name``, computed coherently.

        The fingerprint is derived from the *same configuration object*
        that is returned, so a file rewrite between two separate calls
        cannot pair a configuration with another content's hash.
        """
        config = self.get_config(name)
        fingerprint = self._fingerprints.get(name)
        if fingerprint is None:
            fingerprint = arch_fingerprint(config)
            if self._configs.get(name) is config:
                # Mirror get_config's guard: when it declined to
                # memoise (unstattable file), a cached fingerprint
                # would outlive the content it hashes.
                self._fingerprints[name] = fingerprint
        return config, fingerprint

    def fingerprint(self, name: str) -> str:
        """Content fingerprint of the architecture behind ``name``."""
        return self.resolve(name)[1]


def _builtin_providers() -> List[ArchProvider]:
    """The paper's evaluation points, built lazily by name.

    Built-ins construct exactly the same objects the experiment helpers
    (``baseline_config``, ``table2_config``) historically built inline,
    so registry-resolved runs reuse every existing store entry.
    """

    def _baseline() -> GPUConfig:
        # 272KB = configuration #1's 256KB MRF plus the 16KB RFC
        # budget: the normalisation baseline every figure divides by.
        return GPUConfig(mrf_size_kb=272)

    def _table2(config_id: int) -> Callable[[], GPUConfig]:
        def build() -> GPUConfig:
            from repro.power.tech import gpu_config_for
            return gpu_config_for(config_id, GPUConfig())
        return build

    providers = [
        ArchProvider(
            "maxwell-like", "builtin", _baseline,
            "Table 3 Maxwell-like SM; 272KB normalisation baseline "
            "(#1 MRF + RFC budget)",
        ),
        ArchProvider(
            "tfet", "builtin",
            lambda: _baseline().with_latency_multiple(5.3),
            "baseline capacity at TFET SRAM latency (5.3x, Table 2)",
        ),
        ArchProvider(
            "dwm", "builtin",
            lambda: _baseline().with_latency_multiple(6.3),
            "baseline capacity at DWM latency (6.3x, Table 2)",
        ),
        ArchProvider(
            "narrow-crossbar", "builtin",
            lambda: _baseline().scaled(narrow_crossbar=True),
            "baseline with the 4x-narrowed MRF crossbar (Section 4.2)",
        ),
    ]
    table2_notes = {
        1: "256KB HP-SRAM baseline design",
        2: "8x-capacity HP SRAM, bigger banks (1.25x latency)",
        3: "8x-capacity HP SRAM, 8x banks (1.5x latency)",
        4: "8x-capacity LSTP SRAM, bigger banks (1.6x latency)",
        5: "8x-capacity LSTP SRAM, 8x banks (2.8x latency)",
        6: "8x-capacity TFET SRAM (5.3x latency)",
        7: "8x-capacity DWM (6.3x latency)",
    }
    for config_id, note in table2_notes.items():
        providers.append(ArchProvider(
            f"table2-{config_id}", "builtin", _table2(config_id),
            f"Table 2 configuration #{config_id}: {note}",
        ))
    # The paper's headline design points under memorable names.
    providers.append(ArchProvider(
        "tfet-8x", "builtin", _table2(6),
        "alias of table2-6: 8x-capacity TFET register file",
    ))
    providers.append(ArchProvider(
        "dwm-8x", "builtin", _table2(7),
        "alias of table2-7: 8x-capacity DWM register file",
    ))
    return providers


#: The process-wide default registry, populated lazily with the paper's
#: built-in design points.  Lazy so that importing this module never
#: drags in :mod:`repro.power` (and so worker processes build an
#: identical registry from the same immutable definitions).
_default: Optional[ArchRegistry] = None


def default_arch_registry() -> ArchRegistry:
    global _default
    if _default is None:
        registry = ArchRegistry()
        for provider in _builtin_providers():
            registry.register(provider)
        _default = registry
    return _default


def arch_config(arch, **overrides) -> GPUConfig:
    """Resolve an architecture reference into a :class:`GPUConfig`.

    ``arch`` may be a registry name (``"maxwell-like"``), a
    ``.arch.json`` path, or an already-built :class:`GPUConfig`
    (passed through).  Keyword overrides are applied last via
    :meth:`GPUConfig.scaled`, so experiment grids can declare an axis
    as *registry name + delta* instead of an ad-hoc ``scaled()`` chain.
    """
    if isinstance(arch, GPUConfig):
        config = arch
    else:
        config = default_arch_registry().get_config(arch)
    if overrides:
        config = config.scaled(**overrides)
    return config
