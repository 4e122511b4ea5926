"""Engine equivalence: event vs dense reference.

The event-driven core must be bit-for-bit equivalent to the retained
dense-tick reference: same cycles, same instruction counts, same MRF/RFC
traffic, same scheduler transitions -- for every policy, kernel shape,
and latency point.  ``SimulationResult.__eq__`` compares exactly the
architectural fields (telemetry fields are ``compare=False``), so the
assertions below are full-result comparisons.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import GPUConfig, StreamingMultiprocessor
from repro.experiments.latency_tolerance import FIG11_POLICIES
from repro.experiments.runner import sweep_config
from repro.ir import KernelBuilder
from repro.policies import POLICIES, BaselinePolicy
from repro.workloads import get_kernel


def run_both(config, policy_name, kernel, seed=0):
    event = StreamingMultiprocessor(
        config, POLICIES[policy_name], engine="event"
    ).run(kernel, seed=seed)
    dense = StreamingMultiprocessor(
        config, POLICIES[policy_name], engine="dense"
    ).run(kernel, seed=seed)
    return event, dense


# -- pinned grid ------------------------------------------------------------


class TestPinnedEquivalence:
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @pytest.mark.parametrize("latency", [1.0, 6.3])
    def test_all_policies_on_real_workload(self, policy, latency):
        config = GPUConfig(
            max_resident_warps=8, active_warps=4,
            mrf_latency_multiple=latency,
        )
        event, dense = run_both(config, policy, get_kernel("btree"))
        assert event == dense
        assert event.engine == "event"
        assert dense.engine == "dense"

    def test_memory_bound_workload_with_long_dram_latency(self):
        from dataclasses import replace
        base = GPUConfig(max_resident_warps=8, active_warps=4)
        config = base.scaled(
            memory=replace(base.memory, dram_latency=800)
        )
        for policy in ("BL", "LTRF", "LTRF+"):
            event, dense = run_both(config, policy, get_kernel("kmeans"))
            assert event == dense

    @pytest.mark.parametrize("policy", FIG11_POLICIES)
    def test_fig11_policies_on_the_sweep_sm(self, policy):
        """The full-size SM every figure sweep runs (64 resident, 8
        active warps), not just the reduced shape above."""
        event, dense = run_both(sweep_config(3.0), policy,
                                get_kernel("kmeans"))
        assert event == dense

    def test_event_engine_is_default(self):
        sm = StreamingMultiprocessor(GPUConfig(), POLICIES["BL"])
        assert sm.engine == "event"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            StreamingMultiprocessor(
                GPUConfig(), POLICIES["BL"], engine="quantum"
            )

    def test_cycle_dependent_policy(self):
        """A policy whose operand latency depends on the absolute cycle
        sees the same cycles under both engines: the event engine's
        clock jumps never land an issue on a different cycle."""
        config = GPUConfig(
            max_resident_warps=8, active_warps=4, mrf_latency_multiple=2.0,
        )
        kernel = get_kernel("btree")
        event = StreamingMultiprocessor(
            config, CycleSkewedBaseline, engine="event"
        ).run(kernel)
        dense = StreamingMultiprocessor(
            config, CycleSkewedBaseline, engine="dense"
        ).run(kernel)
        assert event == dense
        assert event.cycles_skipped > 0
        # The skew is load-bearing: it changes the timing against BL.
        plain = StreamingMultiprocessor(config, POLICIES["BL"]).run(kernel)
        assert event.cycles != plain.cycles

    def test_event_engine_skips_cycles_on_memory_bound_kernel(self):
        """The cycle-skipping telemetry actually reports skipped idle
        cycles on a kernel that parks every warp on DRAM."""
        kernel = (
            KernelBuilder("parked")
            .block("entry").alu(0, 1)
            .block("loop")
            .load(2, stream=0, footprint=1 << 24)
            .fma(3, 2, 0, 3)
            .branch("loop", trip_count=16)
            .block("end").exit()
            .build()
        )
        config = GPUConfig(max_resident_warps=2, active_warps=2)
        sm = StreamingMultiprocessor(config, POLICIES["BL"], engine="event")
        result = sm.run(kernel)
        assert result.cycles_skipped > 0
        assert result.event_counts["memory_response"] > 0
        # Stores also miss but never deactivate, so L1 misses bound the
        # memory-response wake-ups from above.
        assert (result.event_counts["memory_response"]
                <= sm.memory.stats.l1_misses)

    @pytest.mark.parametrize("policy", ["RFC", "SHRF", "LTRF", "LTRF+"])
    def test_engines_count_the_same_wcb_drains(self, policy):
        """The dense oracle keeps no heap but counts every write-back
        drain the policies return, as the event engine pushes them."""
        kernel = get_kernel("backprop")
        drains = 0
        for latency in (1.0, 4.0):
            config = GPUConfig(
                max_resident_warps=8, active_warps=4,
                mrf_latency_multiple=latency,
            )
            event, dense = run_both(config, policy, kernel)
            assert (event.event_counts["wcb_drain"]
                    == dense.event_counts["wcb_drain"])
            drains += dense.event_counts["wcb_drain"]
        assert drains > 0


class CycleSkewedBaseline(BaselinePolicy):
    """Baseline whose operand reads cost one extra cycle on odd cycles."""

    name = "BL-cycleskew"

    def operand_read_latency(self, warp, instruction, cycle):
        base = super().operand_read_latency(warp, instruction, cycle)
        return base + (cycle & 1)


# -- latency rows ----------------------------------------------------------


class TestLatencyRowEquivalence:
    """Several latency points of one (kernel, policy) row, the shape a
    sweep runs, on a register-sensitive workload: each point shares the
    row's warm compile and trace caches and must still match the oracle."""

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_all_policies_across_a_latency_row(self, policy):
        kernel = get_kernel("backprop")
        for latency in (2.0, 4.0, 7.0):
            config = GPUConfig(
                max_resident_warps=8, active_warps=4,
                mrf_latency_multiple=latency,
            )
            event, dense = run_both(config, policy, kernel)
            assert event == dense


# -- property-based equivalence --------------------------------------------


@st.composite
def random_kernels(draw):
    """Small but structurally varied kernels: straight-line prologue,
    one or two loops mixing ALU/FMA/load/store/shared ops, optional
    probabilistic diamond exit."""
    builder = KernelBuilder("hypo")
    builder.block("entry")
    for _ in range(draw(st.integers(0, 3))):
        builder.alu(draw(st.integers(0, 7)), draw(st.integers(0, 7)))

    loops = draw(st.integers(1, 2))
    for loop_index in range(loops):
        builder.block(f"loop{loop_index}")
        body_ops = draw(st.integers(1, 4))
        for _ in range(body_ops):
            choice = draw(st.integers(0, 3))
            if choice == 0:
                builder.alu(draw(st.integers(0, 7)), draw(st.integers(0, 7)))
            elif choice == 1:
                builder.fma(
                    draw(st.integers(0, 7)), draw(st.integers(0, 7)),
                    draw(st.integers(0, 7)), draw(st.integers(0, 7)),
                )
            elif choice == 2:
                builder.load(
                    draw(st.integers(0, 7)),
                    stream=loop_index,
                    footprint=draw(st.sampled_from(
                        [1 << 12, 1 << 16, 1 << 20]
                    )),
                    shared=draw(st.booleans()),
                )
            else:
                builder.store(
                    draw(st.integers(0, 7)),
                    stream=2 + loop_index,
                    footprint=1 << 16,
                )
        if draw(st.booleans()):
            builder.branch(
                f"loop{loop_index}", trip_count=draw(st.integers(1, 6))
            )
        else:
            builder.branch(
                f"loop{loop_index}",
                taken_probability=draw(
                    st.sampled_from([0.0, 0.25, 0.5, 0.75])
                ),
            )
    builder.block("end")
    if draw(st.booleans()):
        builder.store(draw(st.integers(0, 7)), stream=7, footprint=1 << 14)
    builder.exit()
    return builder.build()


@st.composite
def random_configs(draw):
    active = draw(st.integers(2, 4))
    return GPUConfig(
        max_resident_warps=draw(st.integers(active, 8)),
        active_warps=active,
        mrf_latency_multiple=draw(
            st.sampled_from([1.0, 2.0, 3.5, 5.3, 7.0])
        ),
        regs_per_interval=draw(st.sampled_from([8, 16])),
        issue_width=draw(st.integers(1, 4)),
    )


class TestPropertyEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        kernel=random_kernels(),
        config=random_configs(),
        policy=st.sampled_from(sorted(POLICIES)),
        seed=st.integers(0, 3),
    )
    def test_engines_identical_on_random_kernels(
        self, kernel, config, policy, seed
    ):
        event, dense = run_both(config, policy, kernel, seed=seed)
        assert event == dense

    @settings(max_examples=15, deadline=None)
    @given(
        kernel=random_kernels(),
        dram_latency=st.sampled_from([120, 400, 800]),
        policy=st.sampled_from(["BL", "RFC", "LTRF", "LTRF+"]),
    )
    def test_engines_identical_across_memory_latencies(
        self, kernel, dram_latency, policy
    ):
        from dataclasses import replace
        base = GPUConfig(max_resident_warps=6, active_warps=3)
        config = base.scaled(
            memory=replace(base.memory, dram_latency=dram_latency)
        )
        event, dense = run_both(config, policy, kernel)
        assert event == dense

    @settings(max_examples=15, deadline=None)
    @given(
        kernel=random_kernels(),
        active=st.integers(2, 4),
        latencies=st.lists(
            st.sampled_from([1.0, 2.0, 3.5, 5.3, 7.0]),
            min_size=2, max_size=3, unique=True,
        ),
        policy=st.sampled_from(sorted(POLICIES)),
        seed=st.integers(0, 3),
    )
    def test_engines_identical_across_random_latency_rows(
        self, kernel, active, latencies, policy, seed
    ):
        """One random kernel swept over a latency row: the event engine
        runs the row in order, the oracle in reverse, so neither order
        nor the caches warmed by earlier points can change a result."""
        configs = [
            GPUConfig(max_resident_warps=8, active_warps=active,
                      mrf_latency_multiple=multiple)
            for multiple in latencies
        ]
        events = [
            StreamingMultiprocessor(
                config, POLICIES[policy], engine="event"
            ).run(kernel, seed=seed)
            for config in configs
        ]
        denses = [
            StreamingMultiprocessor(
                config, POLICIES[policy], engine="dense"
            ).run(kernel, seed=seed)
            for config in reversed(configs)
        ]
        assert events == denses[::-1]
