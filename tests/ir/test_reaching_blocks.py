"""Per-block reaching definitions against the fixpoints they replaced.

:func:`repro.ir.dataflow.analyze_body` keeps environments only at block
entries.  ``reaching(i, loc)`` answers from the definitions earlier in
``i``'s block, and the constraint generator reads the same answers from a
running environment: the block's entry environment, updated past each
instruction's definitions.  The instruction-level fixpoint
(``naive_reaching_definitions``) and the per-block pass the body walk
replaced (``block_reaching_definitions``) are kept in
``tests/core/naive_reference.py``; the solution is unique, so all must answer
every query identically -- for every instruction index (unreachable ones
included) and every location.
"""

import os
import sys

from hypothesis import given, settings, strategies as st

from repro.ir import analyze_body, analyze_reaching_definitions, parse_program
from repro.ir.dataflow import ENTRY, _TRACKED_REGISTERS

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "core"))

from naive_reference import (  # noqa: E402
    block_reaching_definitions,
    naive_reaching,
    naive_reaching_definitions,
)

_LINES = [
    "mov eax, [esp+4]",
    "mov ecx, [esp+8]",
    "mov [esp-4], eax",
    "mov [esp-8], ecx",
    "mov edx, [esp-4]",
    "mov ecx, [ecx]",
    "add eax, ecx",
    "sub esp, 8",
    "add esp, 8",
    "push eax",
    "push ebp",
    "mov ebp, esp",
    "mov [ebp-4], edx",
    "mov esi, [ebp-4]",
    "pop ebx",
    "pop ebp",
    "leave",
    "lea edi, [esp-12]",
    "call f",
    "test ecx, ecx",
    "cmp eax, [esp-4]",
    "ret",
    "jmp .a",
    "jmp .b",
    "jz .a",
    "jnz .b",
    "jz .missing",
    ".a:",
    ".b:",
]


def _procedure(lines):
    return parse_program("p:\n" + "".join(f"    {line}\n" for line in lines)).procedure("p")


def _locations(stack_states):
    offsets = {state.esp for state in stack_states.values() if state.esp is not None}
    slots = {offset + delta for offset in offsets for delta in (-12, -8, -4, 0, 4, 8)}
    return list(_TRACKED_REGISTERS) + sorted(slots) + [-1000, "esp"]


def _as_set(sites):
    return frozenset((sites,)) if type(sites) is int else frozenset(sites)


def _running_answers(facts, locations):
    """``answers[i][loc]``: what the generator's running environment holds
    for ``loc`` while it visits instruction ``i``."""
    answers = []
    ends = facts.starts[1:] + [len(facts.states)]
    for start, end, entry in zip(facts.starts, ends, facts.entry):
        env = dict(entry) if entry is not None else {}
        for index in range(start, end):
            answers.append({loc: _as_set(env.get(loc, ENTRY)) for loc in locations})
            if entry is not None:
                for location in facts.defs[index]:
                    env[location] = index
    return answers


def _assert_same_answers(procedure):
    fast = analyze_reaching_definitions(procedure)
    stack_states, before = naive_reaching_definitions(procedure)
    replaced = block_reaching_definitions(procedure)
    assert fast.stack_states == stack_states == replaced.stack_states
    locations = _locations(stack_states)
    running = _running_answers(analyze_body(procedure), locations)
    for index in range(-1, len(procedure.instructions) + 1):
        assert fast.state(index) == stack_states.get(index, fast.state(-1))
        for location in locations:
            expected = naive_reaching(before, index, location)
            assert fast.reaching(index, location) == expected, (index, location)
            assert replaced.reaching(index, location) == expected, (index, location)
            if 0 <= index < len(procedure.instructions):
                assert running[index][location] == expected, (index, location)
    # Environments are canonical: one site as an int, more as a sorted tuple.
    for env in fast.entry:
        for sites in (env or {}).values():
            assert type(sites) is int or (len(sites) >= 2 and list(sites) == sorted(set(sites)))


@st.composite
def procedures(draw):
    lines = draw(st.lists(st.sampled_from(_LINES), max_size=30))
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


@settings(max_examples=300, deadline=None)
@given(procedures())
def test_block_answers_match_instruction_fixpoint(procedure):
    _assert_same_answers(procedure)


def test_unreachable_code_after_ret_and_jmp():
    procedure = _procedure(
        ["mov eax, [esp+4]", "ret", "mov eax, ecx", "jmp .a", "mov ecx, eax", ".a:", "mov edx, eax", "ret"]
    )
    _assert_same_answers(procedure)
    reaching = analyze_reaching_definitions(procedure)
    # Everything after the first ``ret`` is unreachable: only entry values.
    assert reaching.reaching(2, "eax") == frozenset({ENTRY})
    assert reaching.reaching(6, "eax") == frozenset({ENTRY})
    assert reaching.reaching(1, "eax") == frozenset({0})


def test_back_edge_to_index_zero():
    procedure = _procedure([".a:", "mov ecx, [ecx]", "test ecx, ecx", "jnz .a", "mov eax, ecx", "ret"])
    _assert_same_answers(procedure)
    reaching = analyze_reaching_definitions(procedure)
    assert reaching.reaching(1, "ecx") == frozenset({ENTRY, 1})
    assert reaching.reaching(4, "ecx") == frozenset({1})


def test_jcc_as_the_last_instruction():
    procedure = _procedure([".a:", "mov eax, [esp+4]", "push eax", "jz .a"])
    _assert_same_answers(procedure)


def test_empty_procedure():
    procedure = parse_program("p:\n").procedure("p")
    _assert_same_answers(procedure)
    reaching = analyze_reaching_definitions(procedure)
    assert reaching.reaching(0, "eax") == frozenset({ENTRY})
