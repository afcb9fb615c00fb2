"""Reaching-definitions analysis for registers and stack slots.

Constraint generation (Appendix A) regains flow sensitivity by pairing the
type abstract interpretation with reaching definitions: every definition site
of a register or stack slot gets its own type variable, and a use generates
constraints from all reaching definitions (Example A.2).  This module computes
those reaching-definition sets: the fixpoint runs over basic blocks and keeps
an environment only at each block's entry; a query for one instruction is
answered from the definitions earlier in its block, falling back to the
block's entry environment.  Within a block control is straight-line, so this
gives exactly the instruction-level fixpoint's (unique, least) solution.

Tracked locations:

* every general-purpose register except ``esp``/``ebp`` (which are handled by
  the stack analysis), and
* every resolvable stack frame slot, identified by its offset relative to the
  entry ``esp``.

A definition is a pair ``(location, index)`` where ``index`` is the defining
instruction's position, or ``ENTRY`` (-1) for the value live on entry.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, Union

from .cfg import successors
from .instructions import WORD_SIZE, BinaryOp, Compare, Instruction, Mem, Mov, Push
from .program import Procedure
from .stackanalysis import StackState, analyze_stack, frame_offset

ENTRY = -1

#: A tracked location: a register name or a stack frame offset.
Location = Union[str, int]
Definition = Tuple[Location, int]

_TRACKED_REGISTERS = ("eax", "ebx", "ecx", "edx", "esi", "edi")

_ENTRY_ONLY: FrozenSet[int] = frozenset({ENTRY})

#: A location -> definition-sites environment; a missing location holds only
#: its entry value.
Environment = Dict[Location, FrozenSet[int]]


@dataclass
class ReachingDefinitions:
    """Result of the analysis, kept per basic block.

    An instruction no path reaches sees only ``ENTRY`` for every location.
    """

    procedure: Procedure
    stack_states: Dict[int, StackState]
    #: per instruction index: its block's number, or -1 when unreachable.
    block_of: List[int]
    #: per block: the reaching-definition environment on block entry.
    entry: List[Optional[Environment]]
    #: per block: location -> indices defining it inside the block, ascending.
    local: List[Optional[Dict[Location, List[int]]]]

    def reaching(self, index: int, location: Location) -> FrozenSet[int]:
        """Definition sites of ``location`` reaching instruction ``index``."""
        block = self.block_of[index] if 0 <= index < len(self.block_of) else -1
        if block < 0:
            return _ENTRY_ONLY
        sites = self.local[block].get(location)
        if sites:
            position = bisect_left(sites, index)
            if position:
                return frozenset((sites[position - 1],))
        return self.entry[block].get(location, _ENTRY_ONLY)

    def state(self, index: int) -> StackState:
        return self.stack_states.get(index, StackState(None, None))

    def slot_for(self, index: int, memory: Mem) -> Optional[int]:
        """Frame offset addressed by a memory operand at ``index`` (or None)."""
        return frame_offset(memory, self.state(index))


def definitions_of(
    instruction: Instruction, index: int, state: StackState
) -> Set[Location]:
    """Locations written by an instruction."""
    defs: Set[Location] = set()
    for register in instruction.register_defs():
        if register in _TRACKED_REGISTERS:
            defs.add(register)
    if isinstance(instruction, Mov) and isinstance(instruction.dst, Mem):
        offset = frame_offset(instruction.dst, state)
        if offset is not None:
            defs.add(offset)
    if isinstance(instruction, Push):
        if state.esp is not None:
            defs.add(state.esp - WORD_SIZE)
    return defs


def uses_of(
    instruction: Instruction, index: int, state: StackState
) -> Set[Location]:
    """Locations read by an instruction (registers and stack slots)."""
    uses: Set[Location] = set()
    for register in instruction.register_uses():
        if register in _TRACKED_REGISTERS:
            uses.add(register)
    for operand in _memory_operands_read(instruction):
        offset = frame_offset(operand, state)
        if offset is not None:
            uses.add(offset)
    return uses


def _memory_operands_read(instruction: Instruction) -> List[Mem]:
    read: List[Mem] = []
    if isinstance(instruction, Mov) and isinstance(instruction.src, Mem):
        read.append(instruction.src)
    if isinstance(instruction, Push) and isinstance(instruction.src, Mem):
        read.append(instruction.src)
    if isinstance(instruction, BinaryOp) and isinstance(instruction.src, Mem):
        read.append(instruction.src)
    if isinstance(instruction, Compare):
        for operand in (instruction.left, instruction.right):
            if isinstance(operand, Mem):
                read.append(operand)
    return read


def analyze_reaching_definitions(procedure: Procedure) -> ReachingDefinitions:
    """Forward may-analysis computing reaching definitions, one basic block at a time."""
    stack_states = analyze_stack(procedure)
    instructions = procedure.instructions
    count = len(instructions)
    if count == 0:
        return ReachingDefinitions(procedure, stack_states, [], [], [])
    succ_map = successors(procedure)

    # Basic blocks: an instruction continues its predecessor's block exactly
    # when it is that instruction's only successor and has no other
    # predecessor, so every successor of a block's last instruction starts a
    # block.
    pred_count = [0] * count
    for succs in succ_map.values():
        for succ in succs:
            pred_count[succ] += 1
    starts = [0]
    for index in range(1, count):
        if pred_count[index] != 1 or succ_map[index - 1] != [index]:
            starts.append(index)
    block_at = {start: block for block, start in enumerate(starts)}
    ends = starts[1:] + [count]

    entry: List[Optional[Environment]] = [None] * len(starts)
    local: List[Optional[Dict[Location, List[int]]]] = [None] * len(starts)
    gen: List[Environment] = [{}] * len(starts)
    entry[0] = {}
    worklist: List[int] = [0]
    unknown = StackState(None, None)
    while worklist:
        block = worklist.pop()
        if local[block] is None:
            sites: Dict[Location, List[int]] = {}
            for index in range(starts[block], ends[block]):
                state = stack_states.get(index, unknown)
                for location in definitions_of(instructions[index], index, state):
                    sites.setdefault(location, []).append(index)
            local[block] = sites
            gen[block] = {location: frozenset((at[-1],)) for location, at in sites.items()}
        out_env = dict(entry[block])
        out_env.update(gen[block])
        for succ in succ_map[ends[block] - 1]:
            target = block_at[succ]
            existing = entry[target]
            merged = _merge(existing, out_env)
            if existing is None or merged != existing:
                entry[target] = merged
                worklist.append(target)

    block_of = [-1] * count
    for block, start in enumerate(starts):
        if entry[block] is not None:
            block_of[start:ends[block]] = [block] * (ends[block] - start)
    return ReachingDefinitions(procedure, stack_states, block_of, entry, local)


def _merge(
    existing: Optional[Dict[Location, FrozenSet[int]]],
    incoming: Dict[Location, FrozenSet[int]],
) -> Dict[Location, FrozenSet[int]]:
    if existing is None:
        return dict(incoming)
    merged = dict(existing)
    for location, defs in incoming.items():
        merged[location] = merged.get(location, frozenset()) | defs
    for location in existing:
        if location not in incoming:
            # The other path may leave the location at its entry value.
            merged[location] = merged[location] | frozenset({ENTRY})
    for location in incoming:
        if location not in existing:
            merged[location] = merged[location] | frozenset({ENTRY})
    return merged
