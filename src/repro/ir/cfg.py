"""Control-flow graphs over basic blocks.

The CFG owns block layout (the textual order of blocks, which defines
fall-through edges) and derives connectivity from block terminators:

* a conditional ``BRA`` yields two successors: the branch target and the
  next block in layout order;
* an unconditional ``BRA`` yields its target only;
* ``EXIT`` yields none;
* a block without a terminator falls through to its layout successor.

On top of connectivity the module provides the classic analyses the
compiler half of the paper needs: reverse post-order, dominators
(Cooper-Harvey-Kennedy iterative algorithm), back edges, natural loops,
and a reducibility check via T1/T2 reduction -- the property footnote 3
of the paper relies on ("compiler infrastructures only produce reducible
CFGs").
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.ir.basic_block import BasicBlock


class CFGError(ValueError):
    """Raised for malformed control-flow graphs."""


class CFG:
    """A control-flow graph with an entry block and layout order."""

    def __init__(self) -> None:
        self._blocks: Dict[str, BasicBlock] = {}
        self._layout: List[str] = []
        self.entry: Optional[str] = None

    # -- construction ----------------------------------------------------

    def add_block(self, block: BasicBlock, after: Optional[str] = None) -> None:
        """Add ``block``; the first block added becomes the entry.

        ``after`` inserts the block at a specific layout position, which
        matters because layout determines fall-through edges (used when
        block splitting must keep the tail adjacent to the head).
        """
        if block.label in self._blocks:
            raise CFGError(f"duplicate block label {block.label!r}")
        self._blocks[block.label] = block
        if after is None:
            self._layout.append(block.label)
        else:
            if after not in self._blocks:
                raise CFGError(f"unknown layout anchor {after!r}")
            self._layout.insert(self._layout.index(after) + 1, block.label)
        if self.entry is None:
            self.entry = block.label

    def block(self, label: str) -> BasicBlock:
        try:
            return self._blocks[label]
        except KeyError:
            raise CFGError(f"unknown block {label!r}") from None

    def blocks(self) -> Iterable[BasicBlock]:
        """Blocks in layout order."""
        return (self._blocks[label] for label in self._layout)

    def labels(self) -> List[str]:
        return list(self._layout)

    def __len__(self) -> int:
        return len(self._blocks)

    # -- connectivity ------------------------------------------------------

    def layout_successor(self, label: str) -> Optional[str]:
        index = self._layout.index(label)
        if index + 1 < len(self._layout):
            return self._layout[index + 1]
        return None

    def successors(self, label: str) -> List[str]:
        """Successor labels of ``label`` (branch target first)."""
        block = self.block(label)
        result: List[str] = []
        target = block.branch_target
        if target is not None:
            if target not in self._blocks:
                raise CFGError(f"{label}: branch to unknown block {target!r}")
            result.append(target)
        if block.falls_through:
            nxt = self.layout_successor(label)
            if nxt is None:
                raise CFGError(f"{label}: falls through past end of kernel")
            if nxt not in result:
                result.append(nxt)
        return result

    def predecessors_map(self) -> Dict[str, List[str]]:
        preds: Dict[str, List[str]] = {label: [] for label in self._layout}
        for label in self._layout:
            for succ in self.successors(label):
                preds[succ].append(label)
        return preds

    def predecessors(self, label: str) -> List[str]:
        return self.predecessors_map()[label]

    def validate(self) -> None:
        """Check structural invariants; raise :class:`CFGError` if broken."""
        if self.entry is None:
            raise CFGError("empty CFG")
        for label in self._layout:
            self.successors(label)  # checks targets and fall-through
        unreachable = set(self._layout) - set(self.reverse_postorder())
        if unreachable:
            raise CFGError(f"unreachable blocks: {sorted(unreachable)}")

    # -- orderings ----------------------------------------------------------

    def reverse_postorder(self) -> List[str]:
        """Labels in reverse post-order from the entry (reachable only)."""
        if self.entry is None:
            return []
        visited: Set[str] = set()
        order: List[str] = []

        # Iterative DFS with an explicit stack of (label, successor iterator)
        # so deep loop nests cannot overflow the Python stack.
        stack: List[Tuple[str, List[str], int]] = []
        visited.add(self.entry)
        stack.append((self.entry, self.successors(self.entry), 0))
        while stack:
            label, succs, index = stack.pop()
            if index < len(succs):
                stack.append((label, succs, index + 1))
                nxt = succs[index]
                if nxt not in visited:
                    visited.add(nxt)
                    stack.append((nxt, self.successors(nxt), 0))
            else:
                order.append(label)
        order.reverse()
        return order

    # -- dominators -----------------------------------------------------------

    def dominators(self) -> Dict[str, Optional[str]]:
        """Immediate dominator per reachable label (entry maps to None).

        Cooper-Harvey-Kennedy iterative algorithm on reverse post-order.
        """
        rpo = self.reverse_postorder()
        position = {label: index for index, label in enumerate(rpo)}
        preds = self.predecessors_map()
        idom: Dict[str, Optional[str]] = {self.entry: self.entry}

        def intersect(a: str, b: str) -> str:
            while a != b:
                while position[a] > position[b]:
                    a = idom[a]  # type: ignore[assignment]
                while position[b] > position[a]:
                    b = idom[b]  # type: ignore[assignment]
            return a

        changed = True
        while changed:
            changed = False
            for label in rpo[1:]:
                candidates = [p for p in preds[label] if p in idom]
                if not candidates:
                    continue
                new_idom = candidates[0]
                for other in candidates[1:]:
                    new_idom = intersect(new_idom, other)
                if idom.get(label) != new_idom:
                    idom[label] = new_idom
                    changed = True
        result: Dict[str, Optional[str]] = dict(idom)
        result[self.entry] = None  # type: ignore[index]
        return result

    def dominates(self, a: str, b: str) -> bool:
        """True when ``a`` dominates ``b`` (reflexive)."""
        idom = self.dominators()
        node: Optional[str] = b
        while node is not None:
            if node == a:
                return True
            node = idom.get(node)
        return False

    # -- loops -------------------------------------------------------------

    def back_edges(self) -> List[Tuple[str, str]]:
        """Edges ``(tail, head)`` where ``head`` dominates ``tail``."""
        edges = []
        for label in self.reverse_postorder():
            for succ in self.successors(label):
                if self.dominates(succ, label):
                    edges.append((label, succ))
        return edges

    def natural_loop(self, tail: str, head: str) -> FrozenSet[str]:
        """Blocks of the natural loop for back edge ``tail -> head``."""
        preds = self.predecessors_map()
        body: Set[str] = {head, tail}
        stack = [tail] if tail != head else []
        while stack:
            node = stack.pop()
            for pred in preds[node]:
                if pred not in body:
                    body.add(pred)
                    stack.append(pred)
        return frozenset(body)

    def natural_loops(self) -> Dict[str, FrozenSet[str]]:
        """Map loop header -> union of its natural loop bodies."""
        loops: Dict[str, Set[str]] = {}
        for tail, head in self.back_edges():
            loops.setdefault(head, set()).update(self.natural_loop(tail, head))
        return {head: frozenset(body) for head, body in loops.items()}

    def is_reducible(self) -> bool:
        """T1/T2 reducibility test.

        Repeatedly remove self-loops (T1) and merge nodes with a unique
        predecessor into that predecessor (T2); the CFG is reducible iff
        the graph collapses to a single node.
        """
        succs: Dict[str, Set[str]] = {
            label: set(self.successors(label))
            for label in self.reverse_postorder()
        }
        # Restrict to reachable subgraph.
        nodes = set(succs)
        for label in succs:
            succs[label] &= nodes
        changed = True
        while changed and len(nodes) > 1:
            changed = False
            for node in list(nodes):
                if node in succs[node]:        # T1: drop self-loop
                    succs[node].discard(node)
                    changed = True
            for node in list(nodes):
                if node == self.entry:
                    continue
                preds = [p for p in nodes if node in succs[p]]
                if len(preds) == 1:            # T2: merge into predecessor
                    (pred,) = preds
                    succs[pred].discard(node)
                    succs[pred] |= succs[node] - {node}
                    nodes.discard(node)
                    del succs[node]
                    changed = True
        return len(nodes) == 1

    # -- mutation used by compiler passes --------------------------------

    def split_block(self, label: str, index: int, new_label: str) -> BasicBlock:
        """Split ``label`` before instruction ``index``.

        The tail becomes a new block placed immediately after the head in
        layout order, so the head falls through to it; any branch edges of
        the original block move with the tail automatically (the tail now
        holds the terminator).
        """
        if new_label in self._blocks:
            raise CFGError(f"duplicate block label {new_label!r}")
        head = self.block(label)
        tail = head.split_at(index, new_label)
        self._blocks[new_label] = tail
        self._layout.insert(self._layout.index(label) + 1, new_label)
        return tail

    def __str__(self) -> str:
        lines = []
        for block in self.blocks():
            succs = ", ".join(self.successors(block.label))
            lines.append(f"{block}\n  ; succs: [{succs}]")
        return "\n".join(lines)
