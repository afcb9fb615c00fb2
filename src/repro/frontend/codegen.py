"""Code generation: mini-C to the machine-code IR, erasing all types.

The generated code follows the conventions of a 32-bit cdecl compiler:

* ``push ebp; mov ebp, esp; sub esp, N`` prologues, ``leave; ret`` epilogues;
* arguments pushed right-to-left, caller cleans the stack;
* parameters at ``[ebp+8+4i]``, locals at negative ``ebp`` offsets;
* expression temporaries spilled with ``push``/``pop``;
* ``xor eax, eax`` for zero/NULL constants (the semi-syntactic constant idiom
  of section 2.1) when :class:`CodegenOptions.xor_zero` is set;
* optional stack-slot reuse between locals of disjoint scopes
  (:class:`CodegenOptions.reuse_stack_slots`, the idiom of Figure 2).

No type information survives into the emitted instructions -- only sizes and
offsets -- which is precisely the situation machine-code type inference faces.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Tuple, Union

from ..core.ctype import CType, IntType, PointerType, StructRef, StructType, VoidType
from ..ir.instructions import (
    BinaryOp,
    Call as IRCall,
    Compare,
    Imm,
    Instruction,
    Jcc,
    Jmp,
    LabelPseudo,
    Lea,
    Leave,
    Mem,
    Mov,
    Pop,
    Push,
    Reg,
    Ret,
)
from ..ir.program import Procedure, Program
from .ast import (
    Assign,
    Binary,
    Block,
    Call,
    Cast,
    Declaration,
    Expr,
    ExprStmt,
    FieldAccess,
    FunctionDecl,
    If,
    Index,
    IntLit,
    Name,
    NullLit,
    Return,
    SizeOf,
    StructLayout,
    TranslationUnit,
    Unary,
    While,
    type_size,
)
from .typecheck import CheckedUnit, EXTERN_C_SIGNATURES

EAX = Reg("eax")
EBX = Reg("ebx")
ECX = Reg("ecx")
EBP = Reg("ebp")
ESP = Reg("esp")


@dataclass
class CodegenOptions:
    """Compiler behaviours that create the idioms of section 2."""

    xor_zero: bool = True
    reuse_stack_slots: bool = True


class CodegenError(ValueError):
    pass


@dataclass
class DirectMem:
    """An lvalue addressed directly through ebp or a global symbol."""

    mem: Mem


@dataclass
class RegMem:
    """An lvalue whose base address has been computed into eax."""

    offset: int
    size: int


Lvalue = Union[DirectMem, RegMem]


class FunctionCodegen:
    def __init__(
        self,
        function: FunctionDecl,
        checked: CheckedUnit,
        options: CodegenOptions,
    ) -> None:
        self.function = function
        self.checked = checked
        self.options = options
        self.instructions: List[Instruction] = []
        self._labels = itertools.count()
        self.param_offsets: Dict[str, int] = {}
        self.param_types: Dict[str, CType] = {}
        self.local_offsets: Dict[str, int] = {}
        self.local_types: Dict[str, CType] = {}
        self.frame_size = 0
        self.return_label = ".Lreturn"

    # -- small helpers -------------------------------------------------------------------

    def emit(self, instruction: Instruction) -> None:
        self.instructions.append(instruction)

    def new_label(self) -> str:
        return f".L{next(self._labels)}"

    def _size_of(self, ctype: Optional[CType]) -> int:
        if ctype is None:
            return 4
        size = type_size(ctype, self.checked.struct_layouts)
        return size if size in (1, 2, 4) else 4

    def _struct_layout(self, ctype: CType) -> StructLayout:
        if isinstance(ctype, StructRef):
            return self.checked.struct_layouts[ctype.name]
        if isinstance(ctype, StructType):
            return self.checked.struct_layouts[ctype.name]
        raise CodegenError(f"not a struct type: {ctype}")

    # -- frame layout ----------------------------------------------------------------------

    def _allocate_locals(self) -> None:
        for index, param in enumerate(self.function.params):
            self.param_offsets[param.name] = 8 + 4 * index
            self.param_types[param.name] = param.ctype

        def walk(statements: List, offset: int) -> int:
            """Assign offsets to declarations; returns the maximum frame extent."""
            deepest = offset
            for statement in statements:
                if isinstance(statement, Declaration):
                    size = type_size(statement.ctype, self.checked.struct_layouts)
                    size = (size + 3) // 4 * 4
                    offset += size
                    self.local_offsets[statement.name] = -offset
                    self.local_types[statement.name] = statement.ctype
                    deepest = max(deepest, offset)
                elif isinstance(statement, If):
                    if self.options.reuse_stack_slots:
                        # Locals of the two (disjoint) branches share stack slots.
                        then_extent = walk(statement.then_body, offset)
                        else_extent = walk(statement.else_body, offset)
                        deepest = max(deepest, then_extent, else_extent)
                    else:
                        then_extent = walk(statement.then_body, offset)
                        else_extent = walk(statement.else_body, then_extent)
                        deepest = max(deepest, else_extent)
                        offset = else_extent
                elif isinstance(statement, While):
                    extent = walk(statement.body, offset)
                    deepest = max(deepest, extent)
                    if not self.options.reuse_stack_slots:
                        offset = extent
                elif isinstance(statement, Block):
                    extent = walk(statement.body, offset)
                    deepest = max(deepest, extent)
                    if not self.options.reuse_stack_slots:
                        offset = extent
            return deepest

        self.frame_size = walk(self.function.body or [], 0)

    def _variable_lvalue(self, name: str, size: int) -> Lvalue:
        if name in self.local_offsets:
            return DirectMem(Mem("ebp", self.local_offsets[name], size))
        if name in self.param_offsets:
            return DirectMem(Mem("ebp", self.param_offsets[name], size))
        if name in self.checked.globals:
            return DirectMem(Mem(f"g_{name}", 0, size))
        raise CodegenError(f"unknown variable {name!r}")

    # -- lvalues ------------------------------------------------------------------------------

    def gen_lvalue(self, expr: Expr) -> Lvalue:
        size = self._size_of(getattr(expr, "ctype", None))
        if isinstance(expr, Name):
            return self._variable_lvalue(expr.ident, size)
        if isinstance(expr, Unary) and expr.op == "*":
            self.gen_expr(expr.operand)
            return RegMem(0, size)
        if isinstance(expr, FieldAccess):
            if expr.arrow:
                obj_type = expr.obj.ctype
                layout = self._struct_layout(obj_type.pointee)  # type: ignore[union-attr]
                self.gen_expr(expr.obj)
                return RegMem(layout.field_offset(expr.field_name), size)
            layout = self._struct_layout(expr.obj.ctype)
            inner = self.gen_lvalue(expr.obj)
            delta = layout.field_offset(expr.field_name)
            if isinstance(inner, DirectMem):
                mem = inner.mem
                return DirectMem(Mem(mem.base, mem.offset + delta, size, mem.index))
            return RegMem(inner.offset + delta, size)
        if isinstance(expr, Index):
            element = expr.base.ctype.pointee if isinstance(expr.base.ctype, PointerType) else None
            scale = type_size(element, self.checked.struct_layouts) if element else 4
            self.gen_expr(expr.index)
            if scale != 1:
                self.emit(BinaryOp("imul", EAX, Imm(scale)))
            self.emit(Push(EAX))
            self.gen_expr(expr.base)
            self.emit(Pop(EBX))
            self.emit(BinaryOp("add", EAX, EBX))
            return RegMem(0, self._size_of(element) if element else 4)
        raise CodegenError(f"expression is not an lvalue: {expr}")

    def _load_lvalue(self, lvalue: Lvalue) -> None:
        if isinstance(lvalue, DirectMem):
            self.emit(Mov(EAX, lvalue.mem))
        else:
            self.emit(Mov(EAX, Mem("eax", lvalue.offset, lvalue.size)))

    # -- expressions -----------------------------------------------------------------------------

    def gen_expr(self, expr: Expr) -> None:
        """Emit code leaving the expression value in eax."""
        if isinstance(expr, (IntLit, NullLit)):
            value = expr.value if isinstance(expr, IntLit) else 0
            if value == 0 and self.options.xor_zero:
                self.emit(BinaryOp("xor", EAX, EAX))
            else:
                self.emit(Mov(EAX, Imm(value)))
            return
        if isinstance(expr, SizeOf):
            self.emit(Mov(EAX, Imm(type_size(expr.target, self.checked.struct_layouts))))
            return
        if isinstance(expr, (Name, FieldAccess, Index)):
            self._load_lvalue(self.gen_lvalue(expr))
            return
        if isinstance(expr, Unary):
            self._gen_unary(expr)
            return
        if isinstance(expr, Binary):
            self._gen_binary(expr)
            return
        if isinstance(expr, Assign):
            self._gen_assign(expr)
            return
        if isinstance(expr, Call):
            self._gen_call(expr)
            return
        if isinstance(expr, Cast):
            self.gen_expr(expr.value)
            return
        raise CodegenError(f"cannot generate code for {expr!r}")

    def _gen_unary(self, expr: Unary) -> None:
        if expr.op == "*":
            self._load_lvalue(self.gen_lvalue(expr))
            return
        if expr.op == "&":
            target = self.gen_lvalue(expr.operand)
            if isinstance(target, DirectMem):
                if target.mem.base == "ebp":
                    self.emit(Lea(EAX, target.mem))
                else:
                    raise CodegenError("cannot take the address of a global in this subset")
            else:
                if target.offset:
                    self.emit(BinaryOp("add", EAX, Imm(target.offset)))
            return
        if expr.op == "-":
            self.gen_expr(expr.operand)
            self.emit(BinaryOp("imul", EAX, Imm(-1)))
            return
        if expr.op == "!":
            self.gen_expr(expr.operand)
            true_label, end_label = self.new_label(), self.new_label()
            self.emit(Compare("test", EAX, EAX))
            self.emit(Jcc("z", true_label))
            self.emit(Mov(EAX, Imm(0)))
            self.emit(Jmp(end_label))
            self.emit(LabelPseudo(true_label))
            self.emit(Mov(EAX, Imm(1)))
            self.emit(LabelPseudo(end_label))
            return
        raise CodegenError(f"unknown unary operator {expr.op!r}")

    def _gen_binary(self, expr: Binary) -> None:
        if expr.op in ("==", "!=", "<", "<=", ">", ">="):
            self._gen_comparison_value(expr)
            return
        left_type, right_type = expr.left.ctype, expr.right.ctype
        scale_right = 1
        scale_left = 1
        if expr.op in ("+", "-") and isinstance(left_type, PointerType) and not isinstance(
            right_type, PointerType
        ):
            scale_right = type_size(left_type.pointee, self.checked.struct_layouts)
        if expr.op == "+" and isinstance(right_type, PointerType) and not isinstance(
            left_type, PointerType
        ):
            scale_left = type_size(right_type.pointee, self.checked.struct_layouts)

        self.gen_expr(expr.right)
        if scale_right != 1:
            self.emit(BinaryOp("imul", EAX, Imm(scale_right)))
        self.emit(Push(EAX))
        self.gen_expr(expr.left)
        if scale_left != 1:
            self.emit(BinaryOp("imul", EAX, Imm(scale_left)))
        self.emit(Pop(EBX))
        if expr.op == "+":
            self.emit(BinaryOp("add", EAX, EBX))
        elif expr.op == "-":
            self.emit(BinaryOp("sub", EAX, EBX))
        else:  # * / % -- integral results; exact semantics are irrelevant here
            self.emit(BinaryOp("imul", EAX, EBX))

    def _gen_comparison_value(self, expr: Binary) -> None:
        self.gen_expr(expr.right)
        self.emit(Push(EAX))
        self.gen_expr(expr.left)
        self.emit(Pop(EBX))
        self.emit(Compare("cmp", EAX, EBX))
        condition = {"==": "e", "!=": "ne", "<": "l", "<=": "le", ">": "g", ">=": "ge"}[expr.op]
        true_label, end_label = self.new_label(), self.new_label()
        self.emit(Jcc(condition, true_label))
        self.emit(Mov(EAX, Imm(0)))
        self.emit(Jmp(end_label))
        self.emit(LabelPseudo(true_label))
        self.emit(Mov(EAX, Imm(1)))
        self.emit(LabelPseudo(end_label))

    def _gen_assign(self, expr: Assign) -> None:
        target = expr.target
        size = self._size_of(target.ctype)
        if isinstance(target, Name) or (
            isinstance(target, FieldAccess) and not target.arrow
        ):
            lvalue = self.gen_lvalue(target)
            if isinstance(lvalue, DirectMem):
                self.gen_expr(expr.value)
                self.emit(Mov(lvalue.mem, EAX))
                return
        # General case: compute the address first, hold it on the stack.
        lvalue = self.gen_lvalue(target)
        if isinstance(lvalue, DirectMem):
            self.gen_expr(expr.value)
            self.emit(Mov(lvalue.mem, EAX))
            return
        self.emit(Push(EAX))
        self.gen_expr(expr.value)
        self.emit(Pop(EBX))
        self.emit(Mov(Mem("ebx", lvalue.offset, lvalue.size), EAX))

    def _gen_call(self, expr: Call) -> None:
        for argument in reversed(expr.args):
            self.gen_expr(argument)
            self.emit(Push(EAX))
        self.emit(IRCall(expr.func))
        if expr.args:
            self.emit(BinaryOp("add", ESP, Imm(4 * len(expr.args))))

    # -- conditions ----------------------------------------------------------------------------------

    _NEGATED = {"==": "ne", "!=": "e", "<": "ge", "<=": "g", ">": "le", ">=": "l"}

    def gen_condition(self, cond: Expr, false_label: str) -> None:
        """Emit code that jumps to ``false_label`` when the condition is false."""
        if isinstance(cond, Binary) and cond.op in self._NEGATED:
            self.gen_expr(cond.right)
            self.emit(Push(EAX))
            self.gen_expr(cond.left)
            self.emit(Pop(EBX))
            self.emit(Compare("cmp", EAX, EBX))
            self.emit(Jcc(self._NEGATED[cond.op], false_label))
            return
        if isinstance(cond, Unary) and cond.op == "!":
            self.gen_expr(cond.operand)
            self.emit(Compare("test", EAX, EAX))
            self.emit(Jcc("nz", false_label))
            return
        self.gen_expr(cond)
        self.emit(Compare("test", EAX, EAX))
        self.emit(Jcc("z", false_label))

    # -- statements -----------------------------------------------------------------------------------

    def gen_statement(self, statement) -> None:
        if isinstance(statement, Declaration):
            if statement.init is not None:
                size = self._size_of(statement.ctype)
                self.gen_expr(statement.init)
                self.emit(Mov(Mem("ebp", self.local_offsets[statement.name], size), EAX))
        elif isinstance(statement, ExprStmt):
            self.gen_expr(statement.expr)
        elif isinstance(statement, If):
            else_label = self.new_label()
            end_label = self.new_label() if statement.else_body else else_label
            self.gen_condition(statement.cond, else_label)
            for inner in statement.then_body:
                self.gen_statement(inner)
            if statement.else_body:
                self.emit(Jmp(end_label))
                self.emit(LabelPseudo(else_label))
                for inner in statement.else_body:
                    self.gen_statement(inner)
            self.emit(LabelPseudo(end_label))
        elif isinstance(statement, While):
            head_label, end_label = self.new_label(), self.new_label()
            self.emit(LabelPseudo(head_label))
            self.gen_condition(statement.cond, end_label)
            for inner in statement.body:
                self.gen_statement(inner)
            self.emit(Jmp(head_label))
            self.emit(LabelPseudo(end_label))
        elif isinstance(statement, Return):
            if statement.value is not None:
                self.gen_expr(statement.value)
            self.emit(Jmp(self.return_label))
        elif isinstance(statement, Block):
            for inner in statement.body:
                self.gen_statement(inner)
        else:  # pragma: no cover - defensive
            raise CodegenError(f"unknown statement {statement!r}")

    # -- whole function ------------------------------------------------------------------------------------

    def generate(self) -> Procedure:
        self._allocate_locals()
        self.emit(Push(EBP))
        self.emit(Mov(EBP, ESP))
        if self.frame_size:
            self.emit(BinaryOp("sub", ESP, Imm(self.frame_size)))
        for statement in self.function.body or []:
            self.gen_statement(statement)
        self.emit(LabelPseudo(self.return_label))
        self.emit(Leave())
        self.emit(Ret())
        return Procedure(self.function.name, self.instructions)


class CodeGenerator:
    def __init__(self, checked: CheckedUnit, options: Optional[CodegenOptions] = None) -> None:
        self.checked = checked
        self.options = options or CodegenOptions()

    def compile(self) -> Program:
        program = Program()
        for name, ctype in self.checked.globals.items():
            program.globals[f"g_{name}"] = type_size(ctype, self.checked.struct_layouts)
        defined = {f.name for f in self.checked.unit.functions if f.is_definition}
        for function in self.checked.unit.functions:
            if not function.is_definition:
                program.externs.add(function.name)
                continue
            generator = FunctionCodegen(function, self.checked, self.options)
            program.add_procedure(generator.generate())
        # Calls to modelled libc functions are externs as well.
        for procedure in program.procedures.values():
            for callee in procedure.direct_callees():
                if callee not in defined:
                    program.externs.add(callee)
        return program
