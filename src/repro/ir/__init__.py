"""PTX-like kernel intermediate representation.

Public surface of the IR layer: registers, instructions, basic blocks,
CFGs, kernels with trace generation, the construction DSL, and liveness.
"""

from repro.ir.basic_block import BasicBlock
from repro.ir.builder import KernelBuilder
from repro.ir.cfg import CFG, CFGError
from repro.ir.instruction import (
    EXECUTION_LATENCY,
    LONG_LATENCY_OPCODES,
    MEMORY_OPCODES,
    Instruction,
    MemorySpec,
    Opcode,
)
from repro.ir.kernel import Kernel, TraceEntry
from repro.ir.liveness import LivenessInfo, analyze, annotate_dead_operands
from repro.ir.registers import (
    MAX_ARCH_REGS,
    check_register,
    decode_bitvector,
    encode_bitvector,
    register_name,
)
from repro.ir.serialize import (
    SCHEMA_VERSION,
    KernelSerializationError,
    dumps_kernel,
    fingerprint_of,
    kernel_fingerprint,
    kernel_from_dict,
    kernel_to_dict,
    load_kernel,
    loads_kernel,
    save_kernel,
)

__all__ = [
    "BasicBlock",
    "CFG",
    "CFGError",
    "EXECUTION_LATENCY",
    "Instruction",
    "Kernel",
    "KernelBuilder",
    "KernelSerializationError",
    "LONG_LATENCY_OPCODES",
    "LivenessInfo",
    "MAX_ARCH_REGS",
    "MEMORY_OPCODES",
    "MemorySpec",
    "Opcode",
    "SCHEMA_VERSION",
    "TraceEntry",
    "analyze",
    "annotate_dead_operands",
    "check_register",
    "decode_bitvector",
    "dumps_kernel",
    "encode_bitvector",
    "fingerprint_of",
    "kernel_fingerprint",
    "kernel_from_dict",
    "kernel_to_dict",
    "load_kernel",
    "loads_kernel",
    "register_name",
    "save_kernel",
]
