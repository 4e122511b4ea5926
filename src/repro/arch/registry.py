"""Named architecture registry: one front door for every SM description.

An architecture name resolves, lazily, through the mechanism shared
with the workload registry (:class:`repro.registry.Registry`):

1. **Registered providers** -- the built-ins cover the paper's
   evaluation points: the Maxwell-like normalisation baseline, the
   Table 2 design rows (``table2-1`` .. ``table2-7``), the TFET/DWM
   latency variants, their 8x-capacity forms, and the Section 4.2
   narrow-crossbar design.
2. **Architecture files** -- any name ending in ``.json`` loads through
   :mod:`repro.arch.serialize`, so defining a new SM topology means
   dropping a JSON file, not editing Python.

Resolution is pure in the name: a pool worker that receives only the
architecture string rebuilds the identical configuration.  Unknown
names raise :class:`UnknownArchError` carrying nearest-match
suggestions (difflib), which the CLI surfaces instead of a stack trace.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.arch.config import GPUConfig
from repro.arch.serialize import arch_fingerprint, load_arch
from repro.registry import Provider, Registry, UnknownNameError


class UnknownArchError(UnknownNameError):
    """An unresolvable architecture name, with nearest-name suggestions."""

    kind = "architecture"
    hints = {
        "architecture": "run `list-archs` for built-in names, or pass a "
                        ".arch.json path",
    }


class ArchRegistry(Registry):
    """Name -> :class:`GPUConfig` resolution through the shared registry."""

    error = UnknownArchError
    load = staticmethod(load_arch)
    file_kind = "architecture file"

    def get_config(self, name: str) -> GPUConfig:
        """Build (and memoise) the configuration behind ``name``."""
        return self._get(name)

    def resolve(self, name: str) -> Tuple[GPUConfig, str]:
        """``(config, fingerprint)`` for ``name``, the fingerprint
        derived from the returned (frozen) configuration itself."""
        config = self._get(name)
        return config, arch_fingerprint(config)


def _builtin_providers() -> List[Provider]:
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
        Provider(
            "maxwell-like", "builtin", _baseline,
            "Table 3 Maxwell-like SM; 272KB normalisation baseline "
            "(#1 MRF + RFC budget)",
        ),
        Provider(
            "tfet", "builtin",
            lambda: _baseline().with_latency_multiple(5.3),
            "baseline capacity at TFET SRAM latency (5.3x, Table 2)",
        ),
        Provider(
            "dwm", "builtin",
            lambda: _baseline().with_latency_multiple(6.3),
            "baseline capacity at DWM latency (6.3x, Table 2)",
        ),
        Provider(
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
        providers.append(Provider(
            f"table2-{config_id}", "builtin", _table2(config_id),
            f"Table 2 configuration #{config_id}: {note}",
        ))
    # The paper's headline design points under memorable names.
    providers.append(Provider(
        "tfet-8x", "builtin", _table2(6),
        "alias of table2-6: 8x-capacity TFET register file",
    ))
    providers.append(Provider(
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
