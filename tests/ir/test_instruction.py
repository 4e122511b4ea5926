"""Tests for the instruction model."""

import pytest

from repro.ir import Instruction, MemorySpec, Opcode, encode_bitvector


def iadd(dst=0, a=1, b=2):
    return Instruction(Opcode.IADD, dsts=(dst,), srcs=(a, b))


class TestConstruction:
    def test_simple_alu(self):
        ins = iadd()
        assert ins.dsts == (0,) and ins.srcs == (1, 2)

    def test_rejects_bad_register(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.IADD, dsts=(999,))

    def test_branch_requires_target(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.BRA)

    def test_non_branch_rejects_target(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.IADD, target="loop")

    def test_memory_requires_spec(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.LD_GLOBAL, dsts=(1,))

    def test_non_memory_rejects_spec(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.IADD, mem=MemorySpec(0, 1024))

    def test_rejects_trip_count_zero(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.BRA, target="x", trip_count=0)

    def test_rejects_probability_out_of_range(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.BRA, target="x", taken_probability=1.5)

    def test_only_prefetch_carries_vector(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.IADD, prefetch_vector=1)


class TestMemorySpec:
    def test_rejects_zero_footprint(self):
        with pytest.raises(ValueError):
            MemorySpec(0, 0)

    def test_rejects_zero_stride(self):
        with pytest.raises(ValueError):
            MemorySpec(0, 1024, stride_bytes=0)


class TestClassification:
    def test_loop_branch_is_conditional(self):
        ins = Instruction(Opcode.BRA, target="loop", trip_count=4)
        assert ins.is_branch and ins.is_conditional

    def test_unconditional_branch(self):
        ins = Instruction(Opcode.BRA, target="out")
        assert ins.is_branch and not ins.is_conditional

    def test_global_load_is_long_latency(self):
        ins = Instruction(Opcode.LD_GLOBAL, dsts=(1,), mem=MemorySpec(0, 4096))
        assert ins.is_memory and ins.is_long_latency

    def test_shared_load_is_not_long_latency(self):
        ins = Instruction(Opcode.LD_SHARED, dsts=(1,), mem=MemorySpec(0, 4096))
        assert ins.is_memory and not ins.is_long_latency

    def test_every_opcode_has_latency(self):
        for opcode in Opcode:
            ins_latency = __import__(
                "repro.ir.instruction", fromlist=["EXECUTION_LATENCY"]
            ).EXECUTION_LATENCY
            assert opcode in ins_latency


class TestRegisterAccounting:
    def test_registers_union(self):
        assert iadd(0, 1, 2).registers() == frozenset({0, 1, 2})

    def test_prefetch_registers(self):
        ins = Instruction(
            Opcode.PREFETCH, prefetch_vector=encode_bitvector([4, 7])
        )
        assert ins.prefetch_registers() == (4, 7)
        assert ins.prefetch_working_set == frozenset({4, 7})

    def test_prefetch_accessors_reject_other_opcodes(self):
        with pytest.raises(ValueError):
            iadd().prefetch_registers()
        with pytest.raises(ValueError):
            iadd().prefetch_working_set


class TestDeadOperands:
    def test_with_dead_srcs(self):
        annotated = iadd(0, 1, 2).with_dead_srcs(frozenset({1}))
        assert annotated.dead_srcs == frozenset({1})
        assert annotated.srcs == (1, 2)

    def test_rejects_non_source(self):
        with pytest.raises(ValueError):
            iadd(0, 1, 2).with_dead_srcs(frozenset({9}))


class TestFormatting:
    def test_str_alu(self):
        assert str(iadd()) == "iadd r0, r1, r2"

    def test_str_branch(self):
        ins = Instruction(Opcode.BRA, target="loop", trip_count=2)
        assert "-> loop" in str(ins)

    def test_str_prefetch_lists_registers(self):
        ins = Instruction(Opcode.PREFETCH, prefetch_vector=encode_bitvector([1, 3]))
        assert "{r1,r3}" in str(ins)
