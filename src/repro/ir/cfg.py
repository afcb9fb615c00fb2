"""Control-flow graphs over procedures.

Two views are provided:

* an instruction-level successor map, and
* basic blocks (used by the evaluation harness to report program sizes in
  "CFG nodes", the unit of Figures 11/12).

The dataflow analyses find their own blocks in the one walk over a body
(:func:`~repro.ir.dataflow.analyze_body`).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Set

from .instructions import Instruction, Jcc, Jmp, LabelPseudo, Ret
from .program import Procedure


def successors(procedure: Procedure) -> Dict[int, List[int]]:
    """Instruction-index successor map (labels are transparent pseudo-instructions)."""
    result: Dict[int, List[int]] = {}
    count = len(procedure.instructions)
    for index, instruction in enumerate(procedure.instructions):
        succs: List[int] = []
        if isinstance(instruction, Ret):
            pass
        elif isinstance(instruction, Jmp):
            target = procedure.label_target(instruction.target)
            if target is not None:
                succs.append(target)
        elif isinstance(instruction, Jcc):
            if index + 1 < count:
                succs.append(index + 1)
            target = procedure.label_target(instruction.target)
            if target is not None:
                succs.append(target)
        else:
            if index + 1 < count:
                succs.append(index + 1)
        result[index] = succs
    return result


@dataclass
class BasicBlock:
    start: int
    end: int  # inclusive index of the last instruction
    successors: List[int] = dc_field(default_factory=list)  # start indices of successor blocks

    def __len__(self) -> int:
        return self.end - self.start + 1


@dataclass
class ControlFlowGraph:
    procedure: Procedure
    blocks: Dict[int, BasicBlock] = dc_field(default_factory=dict)

    @property
    def entry(self) -> int:
        return 0

    def __len__(self) -> int:
        return len(self.blocks)


def build_cfg(procedure: Procedure) -> ControlFlowGraph:
    """Partition a procedure into basic blocks."""
    count = len(procedure.instructions)
    if count == 0:
        return ControlFlowGraph(procedure, {0: BasicBlock(0, 0)})
    succ_map = successors(procedure)

    leaders: Set[int] = {0}
    for index, instruction in enumerate(procedure.instructions):
        if isinstance(instruction, (Jmp, Jcc, Ret)):
            if index + 1 < count:
                leaders.add(index + 1)
            for succ in succ_map[index]:
                leaders.add(succ)
        if isinstance(instruction, LabelPseudo):
            leaders.add(index)

    ordered = sorted(leaders)
    blocks: Dict[int, BasicBlock] = {}
    for position, start in enumerate(ordered):
        end = (ordered[position + 1] - 1) if position + 1 < len(ordered) else count - 1
        blocks[start] = BasicBlock(start, end)

    starts = set(blocks)
    for block in blocks.values():
        last = block.end
        for succ in succ_map.get(last, []):
            # Find the block containing the successor instruction (it is a leader).
            if succ in starts:
                block.successors.append(succ)
            else:
                candidates = [s for s in starts if s <= succ]
                if candidates:
                    block.successors.append(max(candidates))
    return ControlFlowGraph(procedure, blocks)


def cfg_node_count(procedure: Procedure) -> int:
    """Number of basic blocks; the program-size unit used in Figures 11 and 12.

    Counted once, when the procedure was built (``Procedure.cfg_nodes``): the
    block leaders :func:`build_cfg` would split at.
    """
    return procedure.cfg_nodes
