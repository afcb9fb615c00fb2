"""Tests for the IR analyses: CFG, stack tracking, reaching definitions, interfaces."""

from hypothesis import given, settings, strategies as st

from repro.ir import (
    ENTRY,
    CallGraph,
    Mem,
    analyze_reaching_definitions,
    analyze_stack,
    build_cfg,
    cfg_node_count,
    discover_interface,
    frame_offset,
    parse_program,
)
from repro.ir.instructions import Imm, Jcc, Jmp, LabelPseudo, Mov, Nop, Reg, Ret
from repro.ir.program import Procedure


EXAMPLE = """
.extern malloc

leaf:
    mov eax, [esp+4]
    add eax, ecx
    ret

caller:
    push ebp
    mov ebp, esp
    sub esp, 8
    mov eax, [ebp+8]
    mov [ebp-4], eax
    push 12
    call malloc
    add esp, 4
    mov [ebp-8], eax
    mov eax, [ebp-8]
    leave
    ret

looper:
    mov ecx, [esp+4]
.head:
    test ecx, ecx
    jz .done
    mov ecx, [ecx]
    jmp .head
.done:
    mov eax, ecx
    ret
"""


def _program():
    return parse_program(EXAMPLE)


def test_stack_analysis_tracks_ebp_frame():
    program = _program()
    proc = program.procedure("caller")
    states = analyze_stack(proc)
    # After push ebp; mov ebp, esp; sub esp, 8 the state before "mov eax,[ebp+8]"
    idx = 3
    assert states[idx].esp == -12
    assert states[idx].ebp == -4
    # [ebp+8] therefore addresses frame offset 4: the first argument.
    assert frame_offset(Mem("ebp", 8), states[idx]) == 4
    assert frame_offset(Mem("ebp", -4), states[idx]) == -8


def test_stack_analysis_esp_restored_before_ret():
    program = _program()
    proc = program.procedure("caller")
    states = analyze_stack(proc)
    ret_index = len(proc.instructions) - 1
    assert states[ret_index].esp == 0


def test_reaching_definitions_for_loop_variable():
    program = _program()
    proc = program.procedure("looper")
    reaching = analyze_reaching_definitions(proc)
    # At "mov eax, ecx" (the .done block) ecx may come from the initial load or
    # from the loop body load.
    done_index = next(
        i for i, ins in enumerate(proc.instructions) if str(ins) == "mov eax, ecx"
    )
    defs = reaching.reaching(done_index, "ecx")
    assert len(defs) == 2
    assert ENTRY not in defs


def test_interface_discovery_stack_and_register_args():
    program = _program()
    leaf = discover_interface(program.procedure("leaf"))
    assert leaf.stack_args == (4,)
    assert leaf.register_args == ("ecx",)
    assert leaf.has_return
    assert leaf.input_locations == ["stack0", "ecx"]

    caller = discover_interface(program.procedure("caller"))
    assert caller.stack_args == (4,)
    assert caller.register_args == ()
    assert caller.has_return


def test_interface_callee_saved_push_is_not_a_parameter():
    program = parse_program(
        """
        f:
            push ebx
            mov ebx, [esp+8]
            mov eax, ebx
            pop ebx
            ret
        """
    )
    interface = discover_interface(program.procedure("f"))
    assert interface.register_args == ()
    assert interface.stack_args == (4,)


def test_cfg_block_structure():
    program = _program()
    proc = program.procedure("looper")
    cfg = build_cfg(proc)
    assert cfg_node_count(proc) == len(cfg.blocks)
    assert len(cfg.blocks) >= 3


def test_callgraph_sccs():
    program = parse_program(
        """
        a:
            call b
            ret
        b:
            call a
            ret
        c:
            call a
            ret
        """
    )
    graph = CallGraph.from_program(program)
    sccs = graph.sccs_bottom_up()
    assert ["c"] == sccs[-1] or ["c"] in sccs  # c depends on the a/b component
    ab = next(s for s in sccs if set(s) == {"a", "b"})
    assert set(ab) == {"a", "b"}
    assert graph.callers("a") == {"b", "c"}


_TARGETS = [".a", ".b", ".c", ".missing"]
_INSTRUCTIONS = st.one_of(
    st.sampled_from([Nop(), Ret(), Mov(Reg("eax"), Imm(1))]),
    st.builds(Jmp, st.sampled_from(_TARGETS)),
    st.builds(Jcc, st.sampled_from(["z", "nz"]), st.sampled_from(_TARGETS)),
    st.builds(LabelPseudo, st.sampled_from(_TARGETS[:3])),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_INSTRUCTIONS, max_size=24))
def test_cfg_node_count_counts_the_blocks_build_cfg_builds(instructions):
    """Figures 11/12 size programs in CFG nodes: the leader count must agree
    with the full basic-block partition (labels, fall-throughs, jumps to
    undefined labels and empty procedures included)."""
    procedure = Procedure("p", list(instructions))
    assert cfg_node_count(procedure) == len(build_cfg(procedure))
