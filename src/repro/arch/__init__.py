"""Hardware substrate: the event-driven SM model (GPGPU-Sim substitute)."""

from repro.arch.address_alloc import AddressAllocationUnit, AllocationError
from repro.arch.events import EventKind, EventQueue
from repro.arch.config import (
    WARP_REGISTER_BYTES,
    GPUConfig,
    MemoryConfig,
)
from repro.arch.gpu import GPU, GPUResult
from repro.arch.main_register_file import MainRegisterFile, MRFStats
from repro.arch.registry import (
    ARCH_FILE_SUFFIX,
    ArchFileProvider,
    ArchProvider,
    ArchRegistry,
    UnknownArchError,
    arch_config,
    default_arch_registry,
    is_arch_file_name,
)
from repro.arch.serialize import (
    ArchSerializationError,
    arch_fingerprint,
    arch_from_dict,
    arch_to_dict,
    dumps_arch,
    fingerprint_of_arch,
    load_arch,
    loads_arch,
    save_arch,
)
from repro.arch.memory import AccessResult, MemoryHierarchy, MemoryStats
from repro.arch.rf_cache import RegisterFileCache, RFCStats
from repro.arch.sm import SimulationResult, StreamingMultiprocessor
from repro.arch.warp import Warp, WarpState
from repro.arch.wcb import WarpControlBlock, wcb_storage_bits

__all__ = [
    "ARCH_FILE_SUFFIX",
    "AccessResult",
    "ArchFileProvider",
    "ArchProvider",
    "ArchRegistry",
    "ArchSerializationError",
    "GPU",
    "GPUResult",
    "AddressAllocationUnit",
    "AllocationError",
    "EventKind",
    "EventQueue",
    "GPUConfig",
    "UnknownArchError",
    "arch_config",
    "arch_fingerprint",
    "arch_from_dict",
    "arch_to_dict",
    "default_arch_registry",
    "dumps_arch",
    "fingerprint_of_arch",
    "is_arch_file_name",
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
    "WarpState",
    "wcb_storage_bits",
]
