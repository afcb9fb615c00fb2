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
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from .cfg import flow_blocks, successors
from .instructions import (
    WORD_SIZE,
    BinaryOp,
    Call,
    Compare,
    Lea,
    Mem,
    Mov,
    Operand,
    Pop,
    Push,
    Reg,
    Ret,
)
from .program import Procedure
from .stackanalysis import UNKNOWN, StackState, block_stack_states, frame_offset

ENTRY = -1

#: A tracked location: a register name or a stack frame offset.
Location = Union[str, int]
Definition = Tuple[Location, int]

_TRACKED_REGISTERS = ("eax", "ebx", "ecx", "edx", "esi", "edi")
_TRACKED = frozenset(_TRACKED_REGISTERS)

_ENTRY_ONLY: FrozenSet[int] = frozenset({ENTRY})

#: A location -> definition-sites environment; a missing location holds only
#: its entry value.
Environment = Dict[Location, FrozenSet[int]]


@dataclass
class ReachingDefinitions:
    """Result of the analysis, kept per basic block, plus each instruction's
    recorded facts: its stack state and the locations it defines and uses.

    An instruction no path reaches has the unknown stack state and sees only
    ``ENTRY`` for every location.
    """

    procedure: Procedure
    #: per instruction index: the stack state before it.
    states: List[StackState]
    #: per instruction index: the tracked locations it writes, and reads.
    defs: List[Sequence[Location]]
    uses: List[Sequence[Location]]
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
        return self.states[index] if 0 <= index < len(self.states) else UNKNOWN

    @property
    def stack_states(self) -> Dict[int, StackState]:
        """State before each reachable instruction (what ``analyze_stack`` returns)."""
        return {index: self.states[index] for index, block in enumerate(self.block_of) if block >= 0}


def _operand_reads(operand: Operand, state: StackState, uses: List[Location]) -> None:
    """Registers an operand reads; for memory, also the stack slot it loads."""
    if type(operand) is Reg:
        if operand.name in _TRACKED:
            uses.append(operand.name)
    elif type(operand) is Mem:
        _address_reads(operand, uses)
        offset = frame_offset(operand, state)
        if offset is not None:
            uses.append(offset)


def _address_reads(memory: Mem, uses: List[Location]) -> None:
    if memory.base in _TRACKED:
        uses.append(memory.base)
    if memory.index in _TRACKED:
        uses.append(memory.index)


def _mov_facts(instruction: Mov, state: StackState):
    uses: List[Location] = []
    _operand_reads(instruction.src, state, uses)
    dst = instruction.dst
    if type(dst) is Reg:
        return ((dst.name,) if dst.name in _TRACKED else ()), uses
    if type(dst) is Mem:
        _address_reads(dst, uses)
        offset = frame_offset(dst, state)
        if offset is not None:
            return (offset,), uses
    return (), uses


def _lea_facts(instruction: Lea, state: StackState):
    uses: List[Location] = []
    _address_reads(instruction.src, uses)
    name = instruction.dst.name
    return ((name,) if name in _TRACKED else ()), uses


def _binop_facts(instruction: BinaryOp, state: StackState):
    name = instruction.dst.name
    defs = (name,) if name in _TRACKED else ()
    src = instruction.src
    if instruction.op == "xor" and type(src) is Reg and src.name == name:
        return defs, ()  # xor reg, reg zeroes the register without reading it
    uses: List[Location] = [name] if defs else []
    _operand_reads(src, state, uses)
    return defs, uses


def _compare_facts(instruction: Compare, state: StackState):
    uses: List[Location] = []
    _operand_reads(instruction.left, state, uses)
    _operand_reads(instruction.right, state, uses)
    return (), uses


def _push_facts(instruction: Push, state: StackState):
    uses: List[Location] = []
    _operand_reads(instruction.src, state, uses)
    esp = state.esp
    return ((esp - WORD_SIZE,) if esp is not None else ()), uses


def _pop_facts(instruction: Pop, state: StackState):
    name = instruction.dst.name
    return ((name,) if name in _TRACKED else ()), ()


_CALL_DEFS = ("eax", "ecx", "edx")


def _call_facts(instruction: Call, state: StackState):
    target = instruction.target
    uses = (target.name,) if type(target) is Reg and target.name in _TRACKED else ()
    return _CALL_DEFS, uses


def _ret_facts(instruction: Ret, state: StackState):
    return (), ("eax",)


#: per instruction type: ``(defs, uses)``, the tracked locations it writes
#: and reads given its stack state.  Registers are those
#: ``Instruction.register_defs``/``register_uses`` name, less esp/ebp (the
#: stack analysis owns them); stack slots are the frame offsets a written or
#: read memory operand resolves to; ``uses`` may repeat a location.  Labels,
#: jumps, ``nop`` and ``leave`` (which touches only esp/ebp) have neither.
_FACTS = {
    Mov: _mov_facts,
    Lea: _lea_facts,
    BinaryOp: _binop_facts,
    Compare: _compare_facts,
    Push: _push_facts,
    Pop: _pop_facts,
    Call: _call_facts,
    Ret: _ret_facts,
}


def analyze_reaching_definitions(procedure: Procedure) -> ReachingDefinitions:
    """One pass over a procedure: successors and blocks, stack states, each
    instruction's defs and uses, then the reaching-definitions fixpoint one
    basic block at a time."""
    instructions = procedure.instructions
    count = len(instructions)
    if count == 0:
        return ReachingDefinitions(procedure, [], [], [], [], [], [])
    succ_map = successors(procedure)
    starts = flow_blocks(succ_map, count)
    reached = block_stack_states(instructions, succ_map, starts)

    states: List[StackState] = []
    defs: List[Sequence[Location]] = []
    uses: List[Sequence[Location]] = []
    for instruction, state in zip(instructions, reached):
        if state is None:
            state = UNKNOWN
        states.append(state)
        facts = _FACTS.get(type(instruction))
        if facts is None:
            defs.append(())
            uses.append(())
        else:
            written, read = facts(instruction, state)
            defs.append(written)
            uses.append(read)

    block_at = {start: block for block, start in enumerate(starts)}
    ends = starts[1:] + [count]
    entry: List[Optional[Environment]] = [None] * len(starts)
    local: List[Optional[Dict[Location, List[int]]]] = [None] * len(starts)
    gen: List[Environment] = [{}] * len(starts)
    entry[0] = {}
    worklist: List[int] = [0]
    while worklist:
        block = worklist.pop()
        if local[block] is None:
            sites: Dict[Location, List[int]] = {}
            for index in range(starts[block], ends[block]):
                for location in defs[index]:
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
    return ReachingDefinitions(procedure, states, defs, uses, block_of, entry, local)


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
