"""Control-flow graphs over procedures.

Three views are provided:

* an instruction-level successor map,
* the straight-line blocks the dataflow analyses (stack tracking, reaching
  definitions) run over, split from that map, and
* basic blocks (used by the evaluation harness to report program sizes in
  "CFG nodes", the unit of Figures 11/12).
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


def flow_blocks(succ_map: Dict[int, List[int]], count: int) -> List[int]:
    """Start indices of the straight-line blocks of ``count`` instructions.

    An instruction continues its predecessor's block exactly when it is that
    instruction's only successor and has no other predecessor, so control
    inside a block is straight-line and every successor of a block's last
    instruction starts a block.  Block ``b`` spans ``starts[b]`` up to (not
    including) ``starts[b + 1]``, the last one up to ``count``.
    """
    if count == 0:
        return []
    pred_count = [0] * count
    for succs in succ_map.values():
        for succ in succs:
            pred_count[succ] += 1
    starts = [0]
    for index in range(1, count):
        if pred_count[index] != 1 or succ_map[index - 1] != [index]:
            starts.append(index)
    return starts


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

    Counts the block leaders :func:`build_cfg` would split at, without
    building the blocks or the successor map.
    """
    instructions = procedure.instructions
    count = len(instructions)
    leaders: Set[int] = {0}
    for index, instruction in enumerate(instructions):
        if isinstance(instruction, LabelPseudo):
            leaders.add(index)
        elif isinstance(instruction, (Jmp, Jcc, Ret)):
            if index + 1 < count:
                leaders.add(index + 1)
            if not isinstance(instruction, Ret):
                target = procedure.label_target(instruction.target)
                if target is not None:
                    leaders.add(target)
    return len(leaders)
