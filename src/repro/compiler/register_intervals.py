"""Register-interval formation: Algorithms 1 and 2 of the paper.

A *register-interval* is a single-entry CFG subgraph whose register
working set fits in one register-file-cache partition (N registers,
default 16 -- Table 3).  Formation is a multi-pass algorithm:

* **Pass 1** (Algorithm 1) grows intervals block by block from the entry.
  A candidate block joins the current interval when (a) it is entered
  only from that interval and (b) the union of registers stays within N.
  TRAVERSE walks a block's instructions accumulating the register list
  and *splits the block* when the list would overflow N (Algorithm 1,
  lines 30-37); the tail seeds a new interval.  Loop headers always
  start new intervals because their back-edge predecessor is unassigned
  when they are first considered.

* **Pass 2** (Algorithm 2) reduces the interval graph: interval ``h``
  merges into interval ``ii`` when every inter-interval edge into ``h``
  comes from ``ii`` and the merged working set still fits in N.  Pass 2
  never splits; it repeats until a fixpoint, unwinding one level of loop
  nesting per repetition (the paper's nested-loop example, Figure 6).

We adopt the conservative working-set semantics: the bound N applies to
the *union* of registers referenced anywhere in the interval, which is
exactly the set the PREFETCH bit-vector must name and the cache
partition must hold (Section 3.2 sizes the partition by "the maximum
number of registers the warp can access throughout the execution of a
prefetch subgraph").
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.ir.cfg import CFG
from repro.ir.kernel import Kernel
from repro.compiler.regions import Region, RegionError, RegionPartition

#: Default register-interval working-set bound (Table 3: "Number of
#: registers in a register-interval: 16").
DEFAULT_MAX_REGISTERS = 16


def form_register_intervals(
    kernel: Kernel,
    max_registers: int = DEFAULT_MAX_REGISTERS,
    run_pass2: bool = True,
) -> RegionPartition:
    """Partition ``kernel``'s CFG into register-intervals.

    Mutates the kernel's CFG (pass 1 may split oversized blocks), so
    callers should operate on ``kernel.clone()`` -- the compile pipeline
    (:mod:`repro.compiler.pipeline`) does this automatically.

    ``run_pass2=False`` stops after Algorithm 1, exposing the pass-2
    ablation (``LTRF-pass1``; see ``benchmarks/test_ablations.py``).
    """
    if max_registers < 4:
        raise ValueError("max_registers must be at least 4 (one instruction)")
    partition = _pass1(kernel.cfg, max_registers)
    if run_pass2:
        while True:
            reduced = _pass2(kernel.cfg, partition, max_registers)
            if reduced.region_count() == partition.region_count():
                partition = reduced
                break
            partition = reduced
    partition.validate(kernel.cfg)
    return partition


# ---------------------------------------------------------------------------
# Pass 1 (Algorithm 1)
# ---------------------------------------------------------------------------

def _pass1(cfg: CFG, max_registers: int) -> RegionPartition:
    assignment: Dict[str, int] = {}
    interval_blocks: List[List[str]] = []
    interval_regs: List[Set[int]] = []
    worklist: List[str] = [cfg.entry]
    seeded: Set[str] = {cfg.entry}
    split_counter = 0

    while worklist:
        header = worklist.pop(0)
        if header in assignment:
            continue
        interval_id = len(interval_blocks)
        interval_blocks.append([])
        interval_regs.append(set())
        split_counter = _traverse(
            cfg, header, interval_id, assignment, interval_blocks,
            interval_regs, worklist, seeded, max_registers, split_counter,
        )

        # Grow: add blocks entered only from this interval whose registers
        # keep the union within N (Algorithm 1, lines 13-17).
        grew = True
        while grew:
            grew = False
            # The predecessor map is recomputed per round because TRAVERSE
            # may split blocks, which rewires fall-through edges.
            preds = cfg.predecessors_map()
            for label in cfg.labels():
                if label in assignment:
                    continue
                pred_list = preds[label]
                if not pred_list:
                    continue
                if not all(assignment.get(p) == interval_id for p in pred_list):
                    continue
                first = cfg.block(label).instructions
                first_regs = first[0].registers() if first else frozenset()
                if len(interval_regs[interval_id] | first_regs) > max_registers:
                    continue   # cannot even host the first instruction
                split_counter = _traverse(
                    cfg, label, interval_id, assignment, interval_blocks,
                    interval_regs, worklist, seeded, max_registers,
                    split_counter,
                )
                grew = True
                break          # restart with a fresh predecessor map

        # Seed new intervals from this interval's outgoing edges
        # (Algorithm 1, lines 18-24).
        for label in interval_blocks[interval_id]:
            for succ in cfg.successors(label):
                if succ not in assignment and succ not in seeded:
                    seeded.add(succ)
                    worklist.append(succ)

    regions = [
        Region(
            id=i,
            header=blocks[0],
            blocks=frozenset(blocks),
            registers=frozenset(regs),
        )
        for i, (blocks, regs) in enumerate(zip(interval_blocks, interval_regs))
    ]
    return RegionPartition(
        kind="register-interval",
        regions=regions,
        block_to_region=assignment,
        max_registers=max_registers,
    )


def _traverse(
    cfg: CFG,
    label: str,
    interval_id: int,
    assignment: Dict[str, int],
    interval_blocks: List[List[str]],
    interval_regs: List[Set[int]],
    worklist: List[str],
    seeded: Set[str],
    max_registers: int,
    split_counter: int,
) -> int:
    """TRAVERSE (Algorithm 1, lines 26-39): add ``label`` to the interval,
    splitting it if its instructions overflow the register budget."""
    assignment[label] = interval_id
    interval_blocks[interval_id].append(label)
    seeded.discard(label)
    regs = interval_regs[interval_id]

    block = cfg.block(label)
    for index, instruction in enumerate(block.instructions):
        needed = instruction.registers()
        if len(regs | needed) <= max_registers:
            regs |= needed
            continue
        # Overflow: cut the block before this instruction (lines 30-37).
        if index == 0:
            # The block's first instruction alone overflows the interval.
            # This can only happen for a non-header join (the grow step
            # guards headers); it indicates a single instruction larger
            # than N, which the max_registers >= 4 precondition excludes.
            raise RegionError(
                f"{label}: instruction needs {len(needed)} registers, "
                f"interval bound N={max_registers} cannot host it"
            )
        split_counter += 1
        tail_label = f"{label}.ri{split_counter}"
        cfg.split_block(label, index, tail_label)
        seeded.add(tail_label)
        worklist.append(tail_label)
        break
    return split_counter


# ---------------------------------------------------------------------------
# Pass 2 (Algorithm 2)
# ---------------------------------------------------------------------------

def _pass2(
    cfg: CFG, partition: RegionPartition, max_registers: int
) -> RegionPartition:
    """One reduction pass over the interval graph."""
    region_count = partition.region_count()
    # Inter-interval predecessor map.
    preds: Dict[int, Set[int]] = {i: set() for i in range(region_count)}
    for label in cfg.labels():
        a = partition.block_to_region[label]
        for succ in cfg.successors(label):
            b = partition.block_to_region[succ]
            if a != b:
                preds[b].add(a)

    entry_region = partition.block_to_region[cfg.entry]
    next_level: Dict[int, int] = {}
    groups: List[List[int]] = []
    group_regs: List[Set[int]] = []
    worklist: List[int] = [entry_region]
    seeded: Set[int] = {entry_region}

    while worklist:
        head = worklist.pop(0)
        if head in next_level:
            continue
        group_id = len(groups)
        groups.append([head])
        group_regs.append(set(partition.regions[head].registers))
        next_level[head] = group_id

        grew = True
        while grew:
            grew = False
            for candidate in range(region_count):
                if candidate in next_level:
                    continue
                if not preds[candidate]:
                    continue
                if not all(next_level.get(p) == group_id
                           for p in preds[candidate] - {candidate}):
                    continue
                merged = group_regs[group_id] | set(
                    partition.regions[candidate].registers
                )
                if len(merged) > max_registers:
                    continue
                next_level[candidate] = group_id
                groups[group_id].append(candidate)
                group_regs[group_id] = merged
                seeded.discard(candidate)
                grew = True

        for member in groups[group_id]:
            for label in partition.regions[member].blocks:
                for succ in cfg.successors(label):
                    succ_region = partition.block_to_region[succ]
                    if succ_region not in next_level and succ_region not in seeded:
                        seeded.add(succ_region)
                        worklist.append(succ_region)

    regions = []
    block_to_region: Dict[str, int] = {}
    for group_id, members in enumerate(groups):
        blocks: Set[str] = set()
        registers: Set[int] = set()
        for member in members:
            blocks |= partition.regions[member].blocks
            registers |= partition.regions[member].registers
        header = partition.regions[members[0]].header
        regions.append(Region(
            id=group_id,
            header=header,
            blocks=frozenset(blocks),
            registers=frozenset(registers),
        ))
        for label in blocks:
            block_to_region[label] = group_id
    return RegionPartition(
        kind="register-interval",
        regions=regions,
        block_to_region=block_to_region,
        max_registers=max_registers,
    )
