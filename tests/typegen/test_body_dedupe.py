"""One body record per distinct procedure body, and none kept afterwards.

Per-struct getters, setters and list walkers compile to identical machine
code, and the parser shares one instruction object per distinct line, so
such procedures have the same instruction sequence.
:func:`~repro.typegen.abstract_interp.generate_program_constraints` walks
each distinct body once (:func:`~repro.ir.dataflow.analyze_body`), gives
every procedure its own interface under its own name, and drops the record
once the last procedure with that body is generated.
"""

import copy
import weakref

import pytest

import repro.typegen.abstract_interp as abstract_interp
from repro.frontend import compile_c
from repro.gen import GenProfile, generate_program
from repro.ir import Procedure, Program, discover_interface, parse_program
from repro.ir.dataflow import body_key
from repro.typegen import generate_program_constraints

TWINS_ASM = """
twin_a:
    mov eax, [esp+4]
.loop:
    mov ecx, [eax+8]
    test ecx, ecx
    jz .done
    mov eax, ecx
    jmp .loop
.done:
    mov edx, [eax]
    ret

twin_b:
    mov eax, [esp+4]
.loop:
    mov ecx, [eax+8]
    test ecx, ecx
    jz .done
    mov eax, ecx
    jmp .loop
.done:
    mov edx, [eax]
    ret

caller:
    push ebx
    mov ebx, [esp+8]
    push ebx
    call twin_a
    add esp, 4
    push eax
    call twin_b
    add esp, 4
    pop ebx
    ret
"""


@pytest.fixture
def walks(monkeypatch):
    """Every body record built while the test runs, as ``(name, record)``."""
    built = []
    real = abstract_interp.analyze_body

    def recording(procedure, *args):
        facts = real(procedure, *args)
        built.append((procedure.name, facts))
        return facts

    monkeypatch.setattr(abstract_interp, "analyze_body", recording)
    return built


def _renamed(typing_input, old, new):
    constraints = typing_input.constraints
    return (
        sorted(str(c).replace(old, new) for c in constraints.subtype),
        sorted(str(c).replace(old, new) for c in constraints.additive),
        [str(v).replace(old, new) for v in typing_input.formal_ins],
        [str(v).replace(old, new) for v in typing_input.formal_outs],
        [(c.callee, c.base.replace(old, new)) for c in typing_input.callsites],
    )


def _unshared(program):
    """``program`` with fresh instruction objects in every procedure."""
    copied = Program(externs=set(program.externs), globals=dict(program.globals))
    for procedure in program:
        copied.add_procedure(
            Procedure(procedure.name, [copy.copy(i) for i in procedure.instructions])
        )
    return copied


def test_identical_bodies_share_one_walk_and_differ_only_in_name(walks):
    program = parse_program(TWINS_ASM)
    twin_a, twin_b = program.procedure("twin_a"), program.procedure("twin_b")
    assert body_key(twin_a) == body_key(twin_b) != body_key(program.procedure("caller"))

    generated = generate_program_constraints(program)

    assert sorted(name for name, _ in walks) == ["caller", "twin_a"]
    interface_a = discover_interface(twin_a)
    interface_b = discover_interface(twin_b)
    assert interface_b.name == "twin_b"
    assert (interface_a.stack_args, interface_a.register_args, interface_a.has_return) == (
        interface_b.stack_args,
        interface_b.register_args,
        interface_b.has_return,
    )
    assert interface_a.stack_args == (4,) and interface_a.has_return
    assert generated["twin_a"].constraints.subtype
    assert _renamed(generated["twin_b"], "twin_b", "twin_a") == _renamed(
        generated["twin_a"], "twin_a", "twin_a"
    )
    # Each twin's own name, never the other's.
    assert "twin_a" not in str(generated["twin_b"].constraints)
    assert "twin_b" not in str(generated["twin_a"].constraints)


@pytest.mark.parametrize("seed", [3, 8])
def test_sharing_leaves_every_table_unchanged(walks, seed):
    generated = generate_program(seed, GenProfile.stress(), name="dd")
    program = parse_program(str(compile_c(generated.source).program))
    distinct = {body_key(procedure) for procedure in program}
    assert len(distinct) < len(program.procedures), "the stress profile repeats bodies"

    shared = generate_program_constraints(program)
    assert len(walks) == len(distinct)
    walks.clear()
    alone = generate_program_constraints(_unshared(program))
    assert len(walks) == len(program.procedures)

    assert list(shared) == list(alone)
    for name, typing_input in shared.items():
        other = alone[name]
        assert typing_input.constraints == other.constraints, name
        assert typing_input.formal_ins == other.formal_ins, name
        assert typing_input.formal_outs == other.formal_outs, name
        assert typing_input.callsites == other.callsites, name


def test_no_record_outlives_generation(walks):
    generated = generate_program(5, GenProfile.stress(), name="wr")
    program = parse_program(str(compile_c(generated.source).program))
    result = generate_program_constraints(program)
    assert result and walks
    records = [weakref.ref(facts) for _, facts in walks]
    walks.clear()
    assert [ref for ref in records if ref() is not None] == []
