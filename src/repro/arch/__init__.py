"""Hardware substrate: the event-driven SM model (GPGPU-Sim substitute)."""

from repro.arch.address_alloc import AddressAllocationUnit, AllocationError
from repro.arch.events import EventKind
from repro.arch.config import (
    WARP_REGISTER_BYTES,
    GPUConfig,
    MemoryConfig,
)
from repro.arch.main_register_file import MainRegisterFile, MRFStats
from repro.arch.registry import (
    ArchRegistry,
    UnknownArchError,
    arch_config,
    default_arch_registry,
)
from repro.arch.serialize import (
    ARCH_FILE_SUFFIX,
    ArchSerializationError,
    arch_fingerprint,
    arch_from_dict,
    arch_to_dict,
    dumps_arch,
    load_arch,
    loads_arch,
    save_arch,
)
from repro.arch.memory import AccessResult, MemoryHierarchy, MemoryStats
from repro.arch.rf_cache import RegisterFileCache, RFCStats
from repro.arch.sm import SimulationResult, StreamingMultiprocessor
from repro.arch.warp import Warp
from repro.arch.wcb import WarpControlBlock, wcb_storage_bits

__all__ = [
    "ARCH_FILE_SUFFIX",
    "AccessResult",
    "ArchRegistry",
    "ArchSerializationError",
    "AddressAllocationUnit",
    "AllocationError",
    "EventKind",
    "GPUConfig",
    "UnknownArchError",
    "arch_config",
    "arch_fingerprint",
    "arch_from_dict",
    "arch_to_dict",
    "default_arch_registry",
    "dumps_arch",
    "load_arch",
    "loads_arch",
    "save_arch",
    "MainRegisterFile",
    "MemoryConfig",
    "MemoryHierarchy",
    "MemoryStats",
    "MRFStats",
    "RegisterFileCache",
    "RFCStats",
    "SimulationResult",
    "StreamingMultiprocessor",
    "WARP_REGISTER_BYTES",
    "Warp",
    "WarpControlBlock",
    "wcb_storage_bits",
]
