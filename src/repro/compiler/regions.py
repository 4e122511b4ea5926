"""Region partitions: the common shape of prefetch subgraphs.

The paper's compiler support produces *prefetch subgraphs* -- single-entry
subgraphs of the CFG bounded by PREFETCH operations (Section 3.1).  Both
region formers we implement (register-intervals, Algorithms 1 and 2, and
strands, the SHRF baseline from Gebhart et al. MICRO'11) produce the same
kind of object: a :class:`RegionPartition` assigning every basic block to
exactly one :class:`Region` whose register working set is bounded by the
register-file-cache partition size N.

``RegionPartition.validate`` checks the three invariants the hardware
relies on:

1. *coverage* -- every block belongs to exactly one region;
2. *single entry* -- every CFG edge from outside a region targets the
   region's header block;
3. *bounded working set* -- ``len(region.registers) <= max_registers``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set

from repro.ir.cfg import CFG


class RegionError(ValueError):
    """Raised when a region partition violates its invariants."""


@dataclass(frozen=True)
class Region:
    """A single prefetch subgraph."""

    id: int
    header: str
    blocks: FrozenSet[str]
    registers: FrozenSet[int]

    def __post_init__(self) -> None:
        if self.header not in self.blocks:
            raise RegionError(
                f"region {self.id}: header {self.header!r} not a member"
            )

    @property
    def working_set_size(self) -> int:
        return len(self.registers)


@dataclass
class RegionPartition:
    """A complete assignment of CFG blocks to prefetch regions."""

    kind: str
    regions: List[Region] = field(default_factory=list)
    block_to_region: Dict[str, int] = field(default_factory=dict)
    max_registers: Optional[int] = None

    def region_of(self, label: str) -> Region:
        try:
            return self.regions[self.block_to_region[label]]
        except KeyError:
            raise RegionError(f"block {label!r} not in any region") from None

    def region_count(self) -> int:
        return len(self.regions)

    def headers(self) -> List[str]:
        return [region.header for region in self.regions]

    def validate(self, cfg: CFG) -> None:
        """Check coverage, single-entry, and working-set bound invariants."""
        assigned: Set[str] = set()
        for region in self.regions:
            overlap = assigned & region.blocks
            if overlap:
                raise RegionError(f"blocks in two regions: {sorted(overlap)}")
            assigned |= region.blocks
        missing = set(cfg.labels()) - assigned
        if missing:
            raise RegionError(f"blocks in no region: {sorted(missing)}")
        extra = assigned - set(cfg.labels())
        if extra:
            raise RegionError(f"regions name unknown blocks: {sorted(extra)}")

        for region in self.regions:
            if self.block_to_region.get(region.header) != region.id:
                raise RegionError(
                    f"region {region.id}: inconsistent block map at header"
                )
            for label in region.blocks:
                if self.block_to_region.get(label) != region.id:
                    raise RegionError(
                        f"region {region.id}: block map mismatch at {label}"
                    )
            if (
                self.max_registers is not None
                and region.working_set_size > self.max_registers
            ):
                raise RegionError(
                    f"region {region.id}: working set "
                    f"{region.working_set_size} > N={self.max_registers}"
                )

        # Single-entry: edges from outside must target the header.
        for label in cfg.labels():
            source_region = self.block_to_region[label]
            for succ in cfg.successors(label):
                target_region = self.block_to_region[succ]
                if source_region != target_region:
                    header = self.regions[target_region].header
                    if succ != header:
                        raise RegionError(
                            f"edge {label} -> {succ} enters region "
                            f"{target_region} away from its header {header}"
                        )
