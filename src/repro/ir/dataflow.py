"""One walk per procedure body: blocks, stack states, defs and uses, reaching
definitions, and the interface they imply.

Constraint generation (Appendix A) regains flow sensitivity by pairing the
type abstract interpretation with reaching definitions: every definition site
of a register or stack slot gets its own type variable, and a use generates
constraints from all reaching definitions (Example A.2).  Interface discovery
(Appendix A.4) reads the same facts.  :func:`analyze_body` computes all of
them in one walk over a body's basic blocks and keeps them in a
:class:`BodyFacts`:

1. block starts: index 0, every jump target, and the instruction after each
   ``ret``, ``jmp`` and resolved ``jcc``; successors are computed for block
   ends only;
2. per block, the stack state on entry (section 6.1's esp/ebp tracking).  The
   walk through a block records each instruction's state and the tracked
   locations it defines and uses, the block's last definition of each
   location, the stack slots a ``lea`` takes the address of, and the uses no
   earlier definition in the block covers.  A block is walked again only
   when its entry state changes;
3. the reaching-definitions environment on each block's entry, from the
   blocks' last definitions.  Within a block control is straight-line, so
   this gives exactly the instruction-level fixpoint's (unique, least)
   solution;
4. the interface: the stack slots (offset >= 4) and parameter registers some
   use reads with the entry value reaching it, and whether a definition of
   ``eax`` reaches a ``ret``.

The record never names its procedure: it depends on the instruction sequence
and its labels alone, so procedures whose bodies are the same machine code
can share one.

Tracked locations:

* every general-purpose register except ``esp``/``ebp`` (which are handled by
  the stack analysis), and
* every resolvable stack frame slot, identified by its offset relative to the
  entry ``esp``.

A definition site is the defining instruction's index, or ``ENTRY`` (-1) for
the value live on entry.  An environment maps a location to its sites: one
int when a single definition reaches, else a sorted tuple of two or more; a
missing location holds only ``ENTRY``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, List, Mapping, Optional, Sequence, Set, Tuple, Union

from .instructions import (
    WORD_SIZE,
    BinaryOp,
    Call,
    Compare,
    Instruction,
    Jcc,
    Jmp,
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
from .stackanalysis import _TRANSFERS, ENTRY_STATE, UNKNOWN, StackState, frame_offset

ENTRY = -1

#: A tracked location: a register name or a stack frame offset.
Location = Union[str, int]
#: The definition sites of one location: an index, or two or more sorted.
Sites = Union[int, Tuple[int, ...]]
Environment = Dict[Location, Sites]

_TRACKED_REGISTERS = ("eax", "ebx", "ecx", "edx", "esi", "edi")
_TRACKED = frozenset(_TRACKED_REGISTERS)

#: registers that may carry arguments when a register-parameter convention is used
REGISTER_PARAM_CANDIDATES = ("ecx", "edx", "ebx", "esi", "edi")
_CANDIDATES = frozenset(REGISTER_PARAM_CANDIDATES)

_ENTRY_ONLY: FrozenSet[int] = frozenset({ENTRY})


@dataclass(eq=False)
class BodyFacts:
    """What one walk over a procedure body found; no procedure name in it.

    An instruction no path reaches has the unknown stack state and sees only
    ``ENTRY`` for every location; its block's ``entry`` is None.
    """

    #: block ``b`` spans ``starts[b]`` up to ``starts[b + 1]`` (the last one
    #: up to the end of the body).
    starts: List[int]
    #: per block: the reaching-definition environment on entry, or None.
    entry: List[Optional[Environment]]
    #: per instruction index: the stack state before it.
    states: List[StackState]
    #: per instruction index: the tracked locations it writes, and reads.
    defs: List[Sequence[Location]]
    uses: List[Sequence[Location]]
    #: reachable frame offsets a ``lea`` takes the address of, sorted.
    address_taken: Tuple[int, ...]
    #: the interface: stack argument offsets (4 = the first), register
    #: parameters (both sorted), and whether some definition of ``eax``
    #: reaches a ``ret``.
    stack_args: Tuple[int, ...]
    register_args: Tuple[str, ...]
    has_return: bool

    def reaching(self, index: int, location: Location) -> FrozenSet[int]:
        """Definition sites of ``location`` reaching instruction ``index``."""
        if not 0 <= index < len(self.states):
            return _ENTRY_ONLY
        block = bisect_right(self.starts, index) - 1
        env = self.entry[block]
        if env is None:
            return _ENTRY_ONLY
        for earlier in range(index - 1, self.starts[block] - 1, -1):
            if location in self.defs[earlier]:
                return frozenset((earlier,))
        sites = env.get(location, ENTRY)
        return frozenset((sites,)) if type(sites) is int else frozenset(sites)

    def state(self, index: int) -> StackState:
        return self.states[index] if 0 <= index < len(self.states) else UNKNOWN

    @property
    def stack_states(self) -> Dict[int, StackState]:
        """State before each reachable instruction (what ``analyze_stack`` returns)."""
        ends = self.starts[1:] + [len(self.states)]
        return {
            index: self.states[index]
            for start, end, env in zip(self.starts, ends, self.entry)
            if env is not None
            for index in range(start, end)
        }


# ---------------------------------------------------------------------------
# Per-instruction defs and uses
# ---------------------------------------------------------------------------


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


_RET_USES = ("eax",)


def _ret_facts(instruction: Ret, state: StackState):
    return (), _RET_USES


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


# ---------------------------------------------------------------------------
# The walk
# ---------------------------------------------------------------------------

#: One instruction's effect at one stack state: the locations it defines
#: and uses, the uses interface discovery reads (pushing a register spills
#: the caller's value, so a ``push`` contributes only the stack slots it
#: reads), the state after it, the frame offset a ``lea`` takes the address
#: of, and whether it is a ``ret``.
Step = Tuple[
    Sequence[Location], Tuple[Location, ...], Tuple[Location, ...], StackState, Optional[int], bool
]


def _step(instruction: Instruction, state: StackState) -> Step:
    kind = type(instruction)
    facts = _FACTS.get(kind)
    written, read = facts(instruction, state) if facts is not None else ((), ())
    read = tuple(read)
    probe = tuple(loc for loc in read if type(loc) is int) if kind is Push else read
    transfer = _TRANSFERS.get(kind)
    after = transfer(instruction, state) if transfer is not None else state
    address = frame_offset(instruction.src, state) if kind is Lea else None
    return written, read, probe, after, address, kind is Ret


def analyze_body(
    procedure: Procedure, steps: Optional[Dict[Tuple[int, StackState], Step]] = None
) -> BodyFacts:
    """Blocks, stack states, defs and uses, reaching definitions and the
    interface of ``procedure``'s body, in one walk over its blocks.

    ``steps`` memoizes each instruction's effect per stack state, keyed by
    the instruction's id: the bodies of one parsed program share their
    instruction objects, so a memo kept across them (never longer than the
    instructions live) computes most effects once.
    """
    instructions = procedure.instructions
    count = len(instructions)
    if not count:
        return BodyFacts([], [], [], [], [], (), (), (), False)
    if steps is None:
        steps = {}
    starts, succs = _blocks(instructions, procedure.labels)
    ends = starts[1:]
    ends.append(count)
    block_count = len(starts)

    states: List[StackState] = [UNKNOWN] * count
    defs: List[Sequence[Location]] = [()] * count
    uses: List[Sequence[Location]] = [()] * count
    #: per block: what :func:`_walk_block` found in it.
    walked: List[Optional[_Walked]] = [None] * block_count

    # The stack states: a block is walked again when its entry state changes,
    # so its facts come from its final entry state.
    entry_state: List[Optional[StackState]] = [None] * block_count
    entry_state[0] = ENTRY_STATE
    worklist = [0]
    while worklist:
        block = worklist.pop()
        found = walked[block] = _walk_block(
            instructions, starts[block], ends[block], entry_state[block], True,
            steps, states, defs, uses,
        )
        state = found[0]
        for succ in succs[block]:
            existing = entry_state[succ]
            merged = state if existing is None else existing.merge(state)
            if merged != existing:
                entry_state[succ] = merged
                worklist.append(succ)
    for block in range(block_count):
        if entry_state[block] is None:
            # Unreachable: only entry values reach, so every use is exposed.
            walked[block] = _walk_block(
                instructions, starts[block], ends[block], UNKNOWN, False,
                steps, states, defs, uses,
            )

    # Reaching definitions over the same blocks, from the last definitions.
    entry: List[Optional[Environment]] = [None] * block_count
    entry[0] = {}
    worklist = [0]
    while worklist:
        block = worklist.pop()
        out = entry[block]
        last = walked[block][1]
        if last:
            out = dict(out)
            out.update(last)
        for succ in succs[block]:
            existing = entry[succ]
            merged = out if existing is None else _merge(existing, out)
            if merged is not existing:
                entry[succ] = merged
                worklist.append(succ)

    # The interface: uses the entry value reaches, and eax at each ret.
    stack_args: Set[int] = set()
    register_args: Set[str] = set()
    address_taken: Set[int] = set()
    has_return = False
    for env, (_, _, reads, addresses, ret) in zip(entry, walked):
        if env is not None:
            reads = [location for location in reads if _has_entry(env.get(location, ENTRY))]
            address_taken.update(addresses)
            if ret == 2 or (ret == 1 and env.get("eax", ENTRY) != ENTRY):
                has_return = True
        for location in reads:
            if type(location) is int:
                if location >= WORD_SIZE:
                    stack_args.add(location)
            elif location in _CANDIDATES:
                register_args.add(location)
    return BodyFacts(
        starts,
        entry,
        states,
        defs,
        uses,
        tuple(sorted(address_taken)),
        tuple(sorted(stack_args)),
        tuple(sorted(register_args)),
        has_return,
    )


#: What a block's walk found: the state after it, its last definition of
#: each location, the interface reads no earlier definition in it covers,
#: its address-taken slots, and whether a ``ret`` in it reads the
#: block-entry eax (1) or a local one (2).
_Walked = Tuple[StackState, Dict[Location, int], Set[Location], List[int], int]


def _walk_block(
    instructions: Sequence[Instruction],
    start: int,
    end: int,
    state: StackState,
    reached: bool,
    steps: Dict[Tuple[int, StackState], Step],
    states: List[StackState],
    defs: List[Sequence[Location]],
    uses: List[Sequence[Location]],
) -> _Walked:
    """Record one block's per-instruction facts.

    An unreachable block (``reached`` false) records no definitions, so
    every use in it is exposed.
    """
    last: Dict[Location, int] = {}
    exposed: Set[Location] = set()
    addresses: List[int] = []
    ret = 0
    for index in range(start, end):
        instruction = instructions[index]
        states[index] = state
        key = (id(instruction), state)
        step = steps.get(key)
        if step is None:
            step = steps[key] = _step(instruction, state)
        written, read, probe, state, address, is_ret = step
        defs[index] = written
        uses[index] = read
        for location in probe:
            if location not in last:
                exposed.add(location)
        if reached:
            for location in written:
                last[location] = index
        if is_ret and not ret:
            ret = 2 if "eax" in last else 1
        if address is not None:
            addresses.append(address)
    return state, last, exposed, addresses, ret


def _blocks(
    instructions: Sequence[Instruction], labels: Mapping[str, int]
) -> Tuple[List[int], List[Tuple[int, ...]]]:
    """Block starts, and each block's successor blocks."""
    count = len(instructions)
    cuts = {0}
    for index, instruction in enumerate(instructions):
        kind = type(instruction)
        if kind in _BRANCHES:
            target = labels.get(instruction.target) if kind is not Ret else None
            if target is not None:
                cuts.add(target)
            elif kind is Jcc:
                continue  # an unresolved jcc only falls through
            if index + 1 < count:
                cuts.add(index + 1)
    starts = sorted(cuts)
    block_at = {start: block for block, start in enumerate(starts)}
    succs: List[Tuple[int, ...]] = []
    for block, end in enumerate(starts[1:] + [count]):
        last = instructions[end - 1]
        kind = type(last)
        if kind is Ret:
            succs.append(())
            continue
        target = labels.get(last.target) if kind is Jmp or kind is Jcc else None
        jump = (block_at[target],) if target is not None else ()
        succs.append(jump if kind is Jmp else ((block + 1,) if end < count else ()) + jump)
    return starts, succs


_BRANCHES = frozenset({Ret, Jmp, Jcc})


def _has_entry(sites: Sites) -> bool:
    return sites == ENTRY or (type(sites) is tuple and sites[0] == ENTRY)


def _join(left: Sites, right: Sites) -> Sites:
    if left == right:
        return left
    union = {left} if type(left) is int else set(left)
    if type(right) is int:
        union.add(right)
    else:
        union.update(right)
    return tuple(sorted(union))


def _merge(existing: Environment, incoming: Environment) -> Environment:
    """``existing`` joined with ``incoming`` (a missing location holds only
    ``ENTRY``); ``existing`` itself when that adds nothing."""
    merged: Optional[Environment] = None
    for location, sites in incoming.items():
        old = existing.get(location, ENTRY)
        joined = _join(old, sites)
        if joined != old:
            if merged is None:
                merged = dict(existing)
            merged[location] = joined
    for location, old in existing.items():
        if location not in incoming:
            joined = _join(old, ENTRY)
            if joined != old:
                if merged is None:
                    merged = dict(existing)
                merged[location] = joined
    return existing if merged is None else merged


def body_key(procedure: Procedure) -> Hashable:
    """Equal for procedures whose bodies are the same instruction objects
    under the same labels, so their :class:`BodyFacts` are equal.

    The parser shares one instruction object per distinct line, so parsed
    procedures with identical machine code get equal keys.  A key holds
    object ids: it is valid only while the procedure is alive.
    """
    return tuple(map(id, procedure.instructions)), tuple(procedure.labels.items())


def analyze_reaching_definitions(procedure: Procedure) -> BodyFacts:
    """The body's record, queried through :meth:`BodyFacts.reaching`."""
    return analyze_body(procedure)


def analyze_stack(procedure: Procedure) -> Dict[int, StackState]:
    """State *before* each instruction index a path from the entry reaches."""
    return analyze_body(procedure).stack_states
