"""Stack-pointer tracking (the "affine relations between esp and ebp" of section 6.1).

Retypd deliberately avoids full points-to analysis; the only memory facts it
needs are which accesses address the current activation record.  This module
holds the domain -- the offset of ``esp`` and ``ebp`` relative to the value of
``esp`` on procedure entry (0 = the return address slot) -- and its per-type
transfer; :func:`~repro.ir.dataflow.analyze_body` runs it over a body's blocks
and records the state before every instruction.  Stack memory operands can
then be resolved to *frame offsets*:

* offsets ``>= 4``  : incoming arguments (``4`` is the first cdecl argument);
* offset ``0``      : the return address;
* offsets ``< 0``   : locals and outgoing argument slots.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .instructions import WORD_SIZE, BinaryOp, Imm, Leave, Mem, Mov, Pop, Push, Reg


class StackState(NamedTuple):
    """Offsets of esp and ebp relative to the entry esp; ``None`` = unknown."""

    esp: Optional[int] = 0
    ebp: Optional[int] = None

    def merge(self, other: "StackState") -> "StackState":
        esp = self.esp if self.esp == other.esp else None
        ebp = self.ebp if self.ebp == other.ebp else None
        return StackState(esp, ebp)


#: the state on procedure entry, and the state of an instruction no path reaches.
ENTRY_STATE = StackState(0, None)
UNKNOWN = StackState(None, None)


def _push(instruction: Push, state: StackState) -> StackState:
    esp = state.esp
    return state if esp is None else StackState(esp - WORD_SIZE, state.ebp)


def _pop(instruction: Pop, state: StackState) -> StackState:
    esp, ebp = state
    register = instruction.dst.name
    if register == "esp":
        return StackState(None, ebp)
    if register == "ebp":
        ebp = None
    return StackState(esp + WORD_SIZE if esp is not None else None, ebp)


def _leave(instruction: Leave, state: StackState) -> StackState:
    ebp = state.ebp
    return StackState(ebp + WORD_SIZE if ebp is not None else None, None)


def _mov(instruction: Mov, state: StackState) -> StackState:
    dst, src = instruction.dst, instruction.src
    if type(dst) is not Reg:
        return state
    if dst.name == "ebp":
        is_esp = type(src) is Reg and src.name == "esp"
        return StackState(state.esp, state.esp if is_esp else None)
    if dst.name == "esp":
        is_ebp = type(src) is Reg and src.name == "ebp"
        return StackState(state.ebp if is_ebp else None, state.ebp)
    return state


def _binop(instruction: BinaryOp, state: StackState) -> StackState:
    register = instruction.dst.name
    if register == "ebp":
        return StackState(state.esp, None)
    if register != "esp":
        return state
    esp, src = state.esp, instruction.src
    if type(src) is not Imm or esp is None or instruction.op not in ("add", "sub"):
        return StackState(None, state.ebp)
    delta = src.value if instruction.op == "add" else -src.value
    return StackState(esp + delta, state.ebp)


#: per instruction type: the state after it, given the state before (the
#: same object when esp and ebp keep their offsets).  A cdecl call's net esp
#: change is zero from the caller's view; every type not listed leaves both
#: alone.
_TRANSFERS = {Push: _push, Pop: _pop, Leave: _leave, Mov: _mov, BinaryOp: _binop}


def frame_offset(memory: Mem, state: StackState) -> Optional[int]:
    """Offset of a stack memory operand relative to the entry esp, if resolvable."""
    if memory.index is not None:
        return None
    if memory.base == "esp":
        return state.esp + memory.offset if state.esp is not None else None
    if memory.base == "ebp":
        return state.ebp + memory.offset if state.ebp is not None else None
    return None


def is_argument_offset(offset: int) -> bool:
    return offset >= WORD_SIZE


def argument_location(offset: int) -> str:
    """Formal-in location name for an argument frame offset (4 -> ``stack0``)."""
    return f"stack{offset - WORD_SIZE}"
