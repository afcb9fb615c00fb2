"""The body walk against the IR passes it replaced.

:func:`repro.ir.dataflow.analyze_body` finds a body's blocks, stack states,
each instruction's defs and uses, reaching definitions and the interface in
one walk.  ``tests/core/naive_reference.py`` keeps two generations of what it
replaced: the instruction-level stack worklist with the per-query
``definitions_of``/``uses_of``, and the per-block pass
(``block_reaching_definitions``: a successor map, flow blocks, block stack
states) with interface discovery as a second walk querying ``reaching`` per
use (``block_discover_interface``).  All must give the same stack state at
every index, the same defs and uses per instruction, the same address-taken
slots and the same discovered interface -- unreachable instructions included
(unknown stack state, only ``ENTRY`` reaches).
"""

import os
import sys

from hypothesis import given, settings, strategies as st

from repro.ir import (
    Lea,
    analyze_body,
    analyze_reaching_definitions,
    analyze_stack,
    discover_interface,
    parse_program,
)
from repro.ir.stackanalysis import UNKNOWN, frame_offset

from test_reaching_blocks import _LINES, _procedure

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "core"))

from naive_reference import (  # noqa: E402
    block_discover_interface,
    block_reaching_definitions,
    naive_analyze_stack,
    naive_definitions_of,
    naive_discover_interface,
    naive_uses_of,
)

#: forms ``_LINES`` lacks: zeroing, indirect calls, indexed and global
#: memory, stack-pointer arithmetic that loses track, immediates.
_MORE_LINES = [
    "xor eax, eax",
    "call ecx",
    "mov [eax+4], ecx",
    "mov [ecx+edx], eax",
    "lea esi, [eax+8]",
    "and eax, 3",
    "sub esp, eax",
    "add ebp, 4",
    "mov esp, ebp",
    "pop esp",
    "nop",
    "push 5",
    "push [esp+4]",
    "test [ebp-4], ecx",
    "mov ebp, eax",
    "mov [esp+8], 7",
    "imul edx, [esp+4]",
    "mov eax, [g_x+4]",
    "push ecx",
    "pop ecx",
]


@st.composite
def procedures(draw):
    lines = draw(st.lists(st.sampled_from(_LINES + _MORE_LINES), max_size=30))
    # A label may be defined once per procedure.
    seen = set()
    unique = []
    for line in lines:
        if line.endswith(":"):
            if line in seen:
                continue
            seen.add(line)
        unique.append(line)
    return _procedure(unique)


def _assert_same_facts(procedure):
    naive_states = naive_analyze_stack(procedure)
    assert analyze_stack(procedure) == naive_states
    reaching = analyze_reaching_definitions(procedure)
    assert reaching.stack_states == naive_states
    for index, instruction in enumerate(procedure.instructions):
        state = naive_states.get(index, UNKNOWN)
        assert reaching.state(index) == state, index
        defs = reaching.defs[index]
        assert len(set(defs)) == len(defs), (index, defs)
        assert set(defs) == naive_definitions_of(instruction, index, state), index
        assert set(reaching.uses[index]) == naive_uses_of(instruction, index, state), index
    assert discover_interface(procedure, reaching) == naive_discover_interface(procedure)

    # The per-block pass and its second walk, recorded the same.
    facts = analyze_body(procedure)
    replaced = block_reaching_definitions(procedure)
    assert facts.states == replaced.states
    assert [tuple(d) for d in facts.defs] == [tuple(d) for d in replaced.defs]
    assert [tuple(u) for u in facts.uses] == [tuple(u) for u in replaced.uses]
    interface = block_discover_interface(procedure, replaced)
    assert (facts.stack_args, facts.register_args, facts.has_return) == (
        interface.stack_args,
        interface.register_args,
        interface.has_return,
    )
    assert discover_interface(procedure, facts) == interface
    # Address-taken slots: the lea frame offsets of reachable instructions.
    taken = {
        frame_offset(instruction.src, naive_states[index])
        for index, instruction in enumerate(procedure.instructions)
        if isinstance(instruction, Lea) and index in naive_states
    }
    assert facts.address_taken == tuple(sorted(taken - {None}))


@settings(max_examples=300, deadline=None)
@given(procedures())
def test_recorded_facts_match_instruction_level_analyses(procedure):
    _assert_same_facts(procedure)


def test_register_reads_in_unreachable_code_are_entry_uses():
    procedure = _procedure(["mov eax, [esp+4]", "ret", "mov eax, ecx", "mov edx, [esp+8]", "ret"])
    _assert_same_facts(procedure)
    reaching = analyze_reaching_definitions(procedure)
    assert reaching.state(2) == UNKNOWN
    assert list(reaching.uses[2]) == ["ecx"]
    # The stack read after ``ret`` resolves to no slot; the register read
    # sees only its entry value, so it counts as a register parameter.
    interface = discover_interface(procedure, reaching)
    assert interface.register_args == ("ecx",)
    assert interface.stack_args == (4,)


def test_leave_and_pop_ebp_frames():
    for epilogue in (["leave"], ["mov esp, ebp", "pop ebp"]):
        procedure = _procedure(
            ["push ebp", "mov ebp, esp", "sub esp, 8", "mov eax, [ebp+8]", "mov [ebp-4], eax"]
            + epilogue
            + ["ret"]
        )
        _assert_same_facts(procedure)
        states = analyze_stack(procedure)
        assert states[3] == (-12, -4)
        assert states[len(procedure.instructions) - 1] == (0, None)
        reaching = analyze_reaching_definitions(procedure)
        assert reaching.defs[4] == (-8,)
        interface = discover_interface(procedure, reaching)
        assert interface.stack_args == (4,)
        assert interface.has_return


def test_empty_procedure():
    procedure = parse_program("p:\n").procedure("p")
    _assert_same_facts(procedure)
    assert analyze_stack(procedure) == {}
    reaching = analyze_reaching_definitions(procedure)
    assert reaching.state(0) == UNKNOWN
    assert discover_interface(procedure, reaching).arity == 0
