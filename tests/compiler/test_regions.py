"""Tests for the RegionPartition invariant checker itself."""

import pytest

from repro.compiler import Region, RegionError, RegionPartition
from repro.ir import KernelBuilder


def two_block_cfg():
    return (
        KernelBuilder("k")
        .block("a").alu(0, 1)
        .block("b").alu(2, 3).exit()
        .build()
    ).cfg


def partition_of(cfg, assignment, regions, max_registers=16):
    return RegionPartition(
        kind="register-interval",
        regions=regions,
        block_to_region=assignment,
        max_registers=max_registers,
    )


class TestRegionValidation:
    def test_header_must_be_member(self):
        with pytest.raises(RegionError):
            Region(0, "a", frozenset({"b"}), frozenset())

    def test_valid_partition_passes(self):
        cfg = two_block_cfg()
        partition = partition_of(
            cfg,
            {"a": 0, "b": 0},
            [Region(0, "a", frozenset({"a", "b"}), frozenset({0, 1, 2, 3}))],
        )
        partition.validate(cfg)

    def test_missing_block_detected(self):
        cfg = two_block_cfg()
        partition = partition_of(
            cfg, {"a": 0},
            [Region(0, "a", frozenset({"a"}), frozenset({0, 1}))],
        )
        with pytest.raises(RegionError):
            partition.validate(cfg)

    def test_overlap_detected(self):
        cfg = two_block_cfg()
        partition = partition_of(
            cfg, {"a": 0, "b": 0},
            [
                Region(0, "a", frozenset({"a", "b"}), frozenset()),
                Region(1, "b", frozenset({"b"}), frozenset()),
            ],
        )
        with pytest.raises(RegionError):
            partition.validate(cfg)

    def test_oversized_working_set_detected(self):
        cfg = two_block_cfg()
        partition = partition_of(
            cfg, {"a": 0, "b": 0},
            [Region(0, "a", frozenset({"a", "b"}),
                    frozenset(range(20)))],
            max_registers=16,
        )
        with pytest.raises(RegionError):
            partition.validate(cfg)

    def test_non_header_entry_detected(self):
        cfg = (
            KernelBuilder("k")
            .block("a")
            .branch("c", taken_probability=0.5)
            .block("b").alu(0, 1)
            .block("c").exit()
            .build()
        ).cfg
        # Edge a->c enters region 1 at 'c', but region 1's header is 'b'.
        partition = partition_of(
            cfg, {"a": 0, "b": 1, "c": 1},
            [
                Region(0, "a", frozenset({"a"}), frozenset()),
                Region(1, "b", frozenset({"b", "c"}), frozenset({0, 1})),
            ],
        )
        with pytest.raises(RegionError):
            partition.validate(cfg)

    def test_region_of_unknown_block(self):
        partition = partition_of(two_block_cfg(), {}, [])
        with pytest.raises(RegionError):
            partition.region_of("a")

    def test_headers_in_region_order(self):
        partition = partition_of(
            two_block_cfg(), {"a": 0, "b": 1},
            [
                Region(0, "a", frozenset({"a"}), frozenset({0, 1})),
                Region(1, "b", frozenset({"b"}), frozenset({2, 3, 4, 5})),
            ],
        )
        assert partition.headers() == ["a", "b"]
        assert partition.region_of("b").working_set_size == 4
