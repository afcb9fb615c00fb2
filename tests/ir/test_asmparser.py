"""Tests for the assembly parser and the basic IR data structures."""

import pytest

from repro.ir import (
    AsmSyntaxError,
    BinaryOp,
    Call,
    Compare,
    Imm,
    Jcc,
    Jmp,
    Mem,
    Mov,
    Push,
    Reg,
    Ret,
    parse_instruction,
    parse_operand,
    parse_program,
)


def test_parse_registers_and_immediates():
    assert parse_operand("eax") == Reg("eax")
    assert parse_operand("42") == Imm(42)
    assert parse_operand("-8") == Imm(-8)
    assert parse_operand("0x10") == Imm(16)


def test_parse_memory_operands():
    assert parse_operand("[esp+4]") == Mem("esp", 4, 4)
    assert parse_operand("[ebp-8]") == Mem("ebp", -8, 4)
    assert parse_operand("[edx]") == Mem("edx", 0, 4)
    assert parse_operand("byte [eax+3]") == Mem("eax", 3, 1)
    assert parse_operand("[counter]") == Mem("counter", 0, 4)
    assert parse_operand("[eax+ebx]") == Mem("eax", 0, 4, index="ebx")


def test_parse_instructions():
    assert parse_instruction("mov eax, [esp+4]") == Mov(Reg("eax"), Mem("esp", 4, 4))
    assert parse_instruction("add esp, 8") == BinaryOp("add", Reg("esp"), Imm(8))
    assert parse_instruction("push eax") == Push(Reg("eax"))
    assert parse_instruction("call close") == Call("close")
    assert parse_instruction("jnz .loop") == Jcc("nz", ".loop")
    assert parse_instruction("jmp .exit") == Jmp(".exit")
    assert parse_instruction("ret") == Ret()
    assert parse_instruction("test eax, eax") == Compare("test", Reg("eax"), Reg("eax"))


def test_parse_program_structure():
    program = parse_program(
        """
        .extern malloc
        .global_var counter 4

        main:
            push 16
            call malloc
            add esp, 4
            mov [counter], eax
            ret

        helper:
            mov eax, [counter]
            ret
        """
    )
    assert set(program.procedures) == {"main", "helper"}
    assert program.externs == {"malloc"}
    assert program.globals == {"counter": 4}
    assert program.procedure("main").direct_callees() == ["malloc"]
    assert program.instruction_count == 7


def test_local_labels_resolve():
    program = parse_program(
        """
        f:
            jmp .end
        .end:
            ret
        """
    )
    proc = program.procedure("f")
    assert proc.label_target(".end") == 1


def test_parse_error_reports_line():
    with pytest.raises(AsmSyntaxError):
        parse_program("f:\n    bogus eax, ebx\n")


def test_instruction_outside_procedure_rejected():
    with pytest.raises(AsmSyntaxError):
        parse_program("    mov eax, ebx\n")


def test_comments_and_blank_lines_ignored():
    program = parse_program(
        """
        ; a comment
        f:
            mov eax, 1   ; inline comment
            # another comment style
            ret
        """
    )
    assert program.procedure("f").size == 2


def test_roundtrip_str_reparses():
    text = """
    f:
        push ebp
        mov ebp, esp
        mov eax, [ebp+8]
        leave
        ret
    """
    program = parse_program(text)
    reparsed = parse_program(str(program))
    assert reparsed.procedure("f").size == program.procedure("f").size


REPEATED = """
f:
    push ebp
    mov ebp, esp
    mov eax, [ebp+8]   ; repeated verbatim below
.again:
    mov eax, [ebp+8]   ; repeated verbatim below
    add eax, 1
    jnz .again
    leave
    ret
g:
    push ebp
    mov ebp, esp
    mov eax, [ebp+8]   ; repeated verbatim below
    add eax, 1
    leave
    ret
"""


def test_repeated_lines_parse_like_line_by_line():
    program = parse_program(REPEATED)
    expected = {
        "f": ["push ebp", "mov ebp, esp", "mov eax, [ebp+8]", None, "mov eax, [ebp+8]",
              "add eax, 1", "jnz .again", "leave", "ret"],
        "g": ["push ebp", "mov ebp, esp", "mov eax, [ebp+8]", "add eax, 1", "leave", "ret"],
    }
    for name, lines in expected.items():
        instructions = program.procedure(name).instructions
        assert len(instructions) == len(lines)
        for instruction, line in zip(instructions, lines):
            if line is not None:
                assert instruction == parse_instruction(line)
    assert str(parse_program(str(program))) == str(program)


def test_repeated_bad_line_reports_its_first_occurrence():
    text = "f:\n    mov eax, 1\n    bogus eax\n    ret\ng:\n    bogus eax\n"
    with pytest.raises(AsmSyntaxError) as info:
        parse_program(text)
    assert info.value.line_number == 3
    assert info.value.line == "    bogus eax"

