"""Tests for kernels, trace generation, and the builder DSL."""

import random

import pytest

from repro.compiler import compiled_kernel_for
from repro.compiler.pipeline import REGION_KINDS
from repro.ir import KernelBuilder, Opcode, TraceEntry
from repro.ir.kernel import DEFAULT_MAX_TRACE
from repro.workloads import EVALUATION, get_kernel


def loop_kernel(trip_count=4):
    """A kernel with one counted loop of two body instructions."""
    return (
        KernelBuilder("loop")
        .block("entry").alu(0, 0)
        .block("body")
        .alu(1, 1, 0)
        .branch("body", trip_count=trip_count)
        .block("end").exit()
        .build()
    )


class TestBuilder:
    def test_emit_requires_block(self):
        with pytest.raises(ValueError):
            KernelBuilder("k").alu(0, 1)

    def test_branch_requires_exactly_one_model(self):
        builder = KernelBuilder("k").block("entry")
        with pytest.raises(ValueError):
            builder.branch("entry")
        with pytest.raises(ValueError):
            builder.branch("entry", trip_count=2, taken_probability=0.5)

    def test_build_validates(self):
        builder = KernelBuilder("k").block("entry").alu(0, 0)
        with pytest.raises(Exception):
            builder.build()   # falls off the end

    def test_category_validation(self):
        with pytest.raises(ValueError):
            KernelBuilder("k", category="weird").block("e").exit().build()


class TestStaticProperties:
    def test_register_count(self):
        kernel = loop_kernel()
        assert kernel.registers_used() == frozenset({0, 1})
        assert kernel.register_count == 2

    def test_static_instruction_count(self):
        assert loop_kernel().static_instruction_count == 4

    def test_static_instructions_iterates_in_layout_order(self):
        labels = [label for label, _, _ in loop_kernel().static_instructions()]
        assert labels == ["entry", "body", "body", "end"]


class TestTraceControlFlow:
    def test_loop_runs_trip_count_times(self):
        kernel = loop_kernel(trip_count=4)
        trace = kernel.trace_list()
        body_visits = sum(
            1 for e in trace
            if e.block == "body" and e.instruction.opcode is Opcode.IADD
        )
        assert body_visits == 4

    def test_trace_ends_with_exit(self):
        trace = loop_kernel().trace_list()
        assert trace[-1].instruction.opcode is Opcode.EXIT

    def test_trip_count_one_means_single_pass(self):
        trace = loop_kernel(trip_count=1).trace_list()
        branches = [e for e in trace if e.instruction.is_branch]
        assert all(e.taken is False for e in branches)

    def test_nested_loop_counts_multiply(self):
        kernel = (
            KernelBuilder("nested")
            .block("entry").alu(0, 0)
            .block("outer").alu(1, 1)
            .block("inner")
            .alu(2, 2)
            .branch("inner", trip_count=3)
            .block("outer_latch")
            .branch("outer", trip_count=2)
            .block("end").exit()
            .build()
        )
        trace = kernel.trace_list()
        inner_visits = sum(
            1 for e in trace
            if e.block == "inner" and not e.instruction.is_branch
        )
        assert inner_visits == 6   # 2 outer x 3 inner

    def test_probabilistic_branch_is_deterministic_per_seed(self):
        kernel = (
            KernelBuilder("prob")
            .block("entry").alu(0, 0)
            .block("flip")
            .alu(1, 1)
            .branch("flip", taken_probability=0.5)
            .block("end").exit()
            .build()
        )
        a = [e.taken for e in kernel.trace(seed=7) if e.instruction.is_branch]
        b = [e.taken for e in kernel.trace(seed=7) if e.instruction.is_branch]
        assert a == b

    def test_different_warps_diverge_on_probabilistic_branches(self):
        kernel = (
            KernelBuilder("prob")
            .block("entry").alu(0, 0)
            .block("flip")
            .alu(1, 1)
            .branch("flip", taken_probability=0.5)
            .block("end").exit()
            .build()
        )
        lengths = {
            len(kernel.trace_list(warp_id=w, seed=1)) for w in range(8)
        }
        assert len(lengths) > 1

    def test_unbounded_loop_raises(self):
        kernel = (
            KernelBuilder("spin")
            .block("entry").alu(0, 0)
            .block("loop")
            .alu(1, 1)
            .branch("loop", taken_probability=1.0)
            .block("end").exit()
            .build()
        )
        with pytest.raises(RuntimeError):
            kernel.trace_list(max_instructions=1000)


class TestTraceMemory:
    def make_kernel(self, stride=128, footprint=1 << 16):
        return (
            KernelBuilder("mem")
            .block("entry").alu(0, 0)
            .block("loop")
            .load(1, stream=3, footprint=footprint, stride=stride)
            .branch("loop", trip_count=8)
            .block("end").exit()
            .build()
        )

    def test_addresses_advance_by_stride(self):
        trace = self.make_kernel(stride=256).trace_list()
        addresses = [e.address for e in trace if e.instruction.is_memory]
        deltas = {b - a for a, b in zip(addresses, addresses[1:])}
        assert deltas == {256}

    def test_addresses_wrap_within_footprint(self):
        trace = self.make_kernel(stride=128, footprint=512).trace_list()
        addresses = [e.address for e in trace if e.instruction.is_memory]
        base = min(addresses)
        assert all(address - base < 512 for address in addresses)

    def test_warps_get_distinct_windows(self):
        kernel = self.make_kernel()
        a0 = [e.address for e in kernel.trace(warp_id=0) if e.instruction.is_memory]
        a1 = [e.address for e in kernel.trace(warp_id=1) if e.instruction.is_memory]
        assert a0 != a1

    def test_non_memory_entries_have_no_address(self):
        trace = self.make_kernel().trace_list()
        assert all(
            e.address is None
            for e in trace if not e.instruction.is_memory
        )

    def test_dynamic_instruction_count_matches_trace(self):
        kernel = self.make_kernel()
        assert kernel.dynamic_instruction_count() == len(kernel.trace_list())


def reference_trace(kernel, warp_id=0, seed=0,
                    max_instructions=DEFAULT_MAX_TRACE):
    """The reference ``trace_list`` must equal: an instruction-at-a-time
    walk of the CFG with one fresh entry per dynamic instruction."""
    rng = random.Random((seed << 20) ^ (warp_id * 0x9E3779B9))
    loop_remaining = {}
    stream_position = {}
    label = kernel.cfg.entry
    emitted = 0
    while True:
        block = kernel.cfg.block(label)
        next_label = None
        for index, instruction in enumerate(block.instructions):
            if emitted >= max_instructions:
                raise RuntimeError(
                    f"{kernel.name}: trace exceeded {max_instructions} "
                    "instructions without EXIT"
                )
            address = None
            taken = None
            if instruction.is_memory:
                address = kernel._next_address(
                    instruction, warp_id, stream_position
                )
            if instruction.opcode is Opcode.EXIT:
                yield TraceEntry(block.label, index, instruction)
                return
            if instruction.is_branch:
                taken = kernel._resolve_branch(
                    block.label, instruction, loop_remaining, rng
                )
                if taken:
                    next_label = instruction.target
                elif not instruction.is_conditional:
                    next_label = instruction.target
                    taken = True
            yield TraceEntry(block.label, index, instruction, address, taken)
            emitted += 1
        if next_label is None:
            next_label = kernel.cfg.layout_successor(block.label)
            if next_label is None:
                raise RuntimeError(
                    f"{kernel.name}: fell off the end of block {block.label}"
                )
        label = next_label


def entry_fields(trace):
    return [(e.block, e.index, e.instruction, e.address, e.taken)
            for e in trace]


def executable_kernels(name):
    """A workload's raw kernel and its compiled form in each region
    kind."""
    kernel = get_kernel(name)
    yield "raw", kernel
    for kind in REGION_KINDS:
        yield kind, compiled_kernel_for(kernel, region_kind=kind).kernel


class TestTraceMatchesReference:
    @pytest.mark.parametrize("name", EVALUATION)
    def test_every_entry_equals_the_generators(self, name):
        for form, kernel in executable_kernels(name):
            for warp_id in (0, 5, 63):
                for seed in (0, 7):
                    expected = entry_fields(
                        reference_trace(kernel, warp_id, seed))
                    assert entry_fields(kernel.trace_list(warp_id, seed)) \
                        == expected, (form, warp_id, seed)
                    assert entry_fields(kernel.trace(warp_id, seed)) \
                        == expected, (form, warp_id, seed)

    def small_kernel(self):
        """A loop of a plain, a memory and a plain instruction."""
        return (
            KernelBuilder("small")
            .block("entry").alu(0, 0)
            .block("loop")
            .alu(1, 1)
            .load(2, stream=1, footprint=1 << 12, stride=64)
            .alu(3, 2)
            .branch("loop", trip_count=3)
            .block("end").exit()
            .build()
        )

    def test_max_instructions_raises_exactly_where_the_generator_did(self):
        kernel = self.small_kernel()
        length = len(list(reference_trace(kernel)))
        assert length == 1 + 3 * 4 + 1
        for cap in range(length + 2):
            try:
                expected = entry_fields(reference_trace(kernel,
                                                        max_instructions=cap))
            except RuntimeError as error:
                with pytest.raises(RuntimeError) as raised:
                    kernel.trace_list(max_instructions=cap)
                assert str(raised.value) == str(error) == (
                    f"small: trace exceeded {cap} instructions without EXIT")
                assert cap < length
            else:
                assert entry_fields(kernel.trace_list(max_instructions=cap)) \
                    == expected
                assert cap >= length

    def test_falling_off_the_last_block_raises(self):
        kernel = self.small_kernel()
        # The builder validates; drop EXIT afterwards, as a pass might.
        kernel.cfg.block("end").instructions[:] = [
            next(e.instruction for e in kernel.trace_list()
                 if e.instruction.opcode is Opcode.IADD)]
        with pytest.raises(RuntimeError) as expected:
            list(reference_trace(kernel))
        with pytest.raises(RuntimeError) as raised:
            kernel.trace_list()
        assert str(raised.value) == str(expected.value) \
            == "small: fell off the end of block end"

    def test_plain_entries_are_shared_between_warps(self):
        kernel = self.small_kernel()
        first = kernel.trace_list(warp_id=0)
        second = kernel.trace_list(warp_id=1, seed=7)
        assert first[0].instruction.opcode is Opcode.IADD
        assert first[0] is second[0]
        # Memory entries carry a per-warp address, so each is fresh.
        loads = [(a, b) for a, b in zip(first, second)
                 if a.instruction.is_memory]
        assert loads and all(a is not b for a, b in loads)

    def test_an_instruction_replaced_in_place_gets_a_new_entry(self):
        kernel = self.small_kernel()
        before = kernel.trace_list()[0]
        block = kernel.cfg.block("entry")
        replacement = next(e.instruction for e in kernel.trace_list()
                           if e.block == "loop" and e.index == 2)
        block.instructions[0] = replacement
        after = kernel.trace_list()[0]
        assert after is not before
        assert after.instruction is replacement
        assert entry_fields(kernel.trace_list()) \
            == entry_fields(reference_trace(kernel))
