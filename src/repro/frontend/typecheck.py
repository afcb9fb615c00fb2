"""Type checker / annotator for the mini-C frontend.

Besides rejecting malformed programs, the checker records the declared type of
every expression (needed by the code generator for pointer scaling, field
offsets and access sizes) and assembles the *ground truth* tables that the
evaluation compares inferred types against.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Tuple

from ..core.ctype import (
    CType,
    FunctionType,
    IntType,
    PointerType,
    StructRef,
    StructType,
    TypedefType,
    UnknownType,
    VoidType,
)
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
    GlobalVar,
    If,
    Index,
    IntLit,
    Name,
    NullLit,
    Param,
    Return,
    SizeOf,
    StructDecl,
    StructLayout,
    TranslationUnit,
    Unary,
    While,
    type_size,
)


class TypeCheckError(TypeError):
    pass


#: C-level signatures of the modelled libc functions (return type, parameter types).
EXTERN_C_SIGNATURES: Dict[str, Tuple[CType, Tuple[CType, ...]]] = {
    "malloc": (PointerType(VoidType()), (IntType(32, False),)),
    "calloc": (PointerType(VoidType()), (IntType(32, False), IntType(32, False))),
    "realloc": (PointerType(VoidType()), (PointerType(VoidType()), IntType(32, False))),
    "free": (VoidType(), (PointerType(VoidType()),)),
    "memcpy": (
        PointerType(VoidType()),
        (PointerType(VoidType()), PointerType(VoidType()), IntType(32, False)),
    ),
    "memset": (
        PointerType(VoidType()),
        (PointerType(VoidType()), IntType(32, True), IntType(32, False)),
    ),
    "strlen": (IntType(32, False), (PointerType(IntType(8, True), const=True),)),
    "strcpy": (
        PointerType(IntType(8, True)),
        (PointerType(IntType(8, True)), PointerType(IntType(8, True), const=True)),
    ),
    "strcmp": (
        IntType(32, True),
        (PointerType(IntType(8, True), const=True), PointerType(IntType(8, True), const=True)),
    ),
    "strdup": (PointerType(IntType(8, True)), (PointerType(IntType(8, True), const=True),)),
    "fopen": (
        PointerType(TypedefType("FILE", UnknownType(32))),
        (PointerType(IntType(8, True), const=True), PointerType(IntType(8, True), const=True)),
    ),
    "fclose": (IntType(32, True), (PointerType(TypedefType("FILE", UnknownType(32))),)),
    "fread": (
        IntType(32, False),
        (
            PointerType(VoidType()),
            IntType(32, False),
            IntType(32, False),
            PointerType(TypedefType("FILE", UnknownType(32))),
        ),
    ),
    "fwrite": (
        IntType(32, False),
        (
            PointerType(VoidType()),
            IntType(32, False),
            IntType(32, False),
            PointerType(TypedefType("FILE", UnknownType(32))),
        ),
    ),
    "printf": (IntType(32, True), (PointerType(IntType(8, True), const=True),)),
    "puts": (IntType(32, True), (PointerType(IntType(8, True), const=True),)),
    "open": (IntType(32, True), (PointerType(IntType(8, True), const=True), IntType(32, True))),
    "close": (IntType(32, True), (IntType(32, True),)),
    "read": (IntType(32, True), (IntType(32, True), PointerType(VoidType()), IntType(32, False))),
    "write": (
        IntType(32, True),
        (IntType(32, True), PointerType(VoidType(), const=True), IntType(32, False)),
    ),
    "signal": (PointerType(VoidType()), (IntType(32, True), PointerType(VoidType()))),
    "socket": (IntType(32, True), (IntType(32, True), IntType(32, True), IntType(32, True))),
    "exit": (VoidType(), (IntType(32, True),)),
    "abort": (VoidType(), ()),
    "atoi": (IntType(32, True), (PointerType(IntType(8, True), const=True),)),
    "rand": (IntType(32, True), ()),
}


@dataclass
class FunctionSignature:
    name: str
    return_type: CType
    params: Tuple[CType, ...]
    variadic: bool = False
    is_extern: bool = False


@dataclass
class CheckedUnit:
    """Result of type checking: the annotated AST plus symbol information."""

    unit: TranslationUnit
    struct_layouts: Dict[str, StructLayout]
    signatures: Dict[str, FunctionSignature]
    globals: Dict[str, CType]

    def layout(self, name: str) -> StructLayout:
        return self.struct_layouts[name]


class TypeChecker:
    def __init__(self, unit: TranslationUnit) -> None:
        self.unit = unit
        self.struct_layouts: Dict[str, StructLayout] = {}
        self.signatures: Dict[str, FunctionSignature] = {}
        self.globals: Dict[str, CType] = {}
        self._scopes: List[Dict[str, CType]] = []

    # -- entry point -----------------------------------------------------------------

    def check(self) -> CheckedUnit:
        self._collect_structs()
        self._collect_signatures()
        for var in self.unit.globals:
            self.globals[var.name] = var.ctype
        for function in self.unit.functions:
            if function.is_definition:
                self._check_function(function)
        return CheckedUnit(self.unit, self.struct_layouts, self.signatures, self.globals)

    # -- declarations ----------------------------------------------------------------------

    def _collect_structs(self) -> None:
        for decl in self.unit.structs:
            # Two-pass layout so self-referential structs (via pointers) work.
            self.struct_layouts[decl.name] = StructLayout(decl.name, [], 4)
        for decl in self.unit.structs:
            self.struct_layouts[decl.name] = decl.layout(self.struct_layouts)

    def _collect_signatures(self) -> None:
        for name, (return_type, params) in EXTERN_C_SIGNATURES.items():
            self.signatures[name] = FunctionSignature(
                name, return_type, tuple(params), variadic=name == "printf", is_extern=True
            )
        for function in self.unit.functions:
            self.signatures[function.name] = FunctionSignature(
                function.name,
                function.return_type,
                tuple(param.ctype for param in function.params),
                is_extern=not function.is_definition,
            )

    # -- scoping -----------------------------------------------------------------------------

    def _push_scope(self) -> None:
        self._scopes.append({})

    def _pop_scope(self) -> None:
        self._scopes.pop()

    def _declare(self, name: str, ctype: CType) -> None:
        self._scopes[-1][name] = ctype

    def _lookup(self, name: str) -> CType:
        for scope in reversed(self._scopes):
            if name in scope:
                return scope[name]
        if name in self.globals:
            return self.globals[name]
        raise TypeCheckError(f"undeclared identifier {name!r}")

    # -- functions ---------------------------------------------------------------------------

    def _check_function(self, function: FunctionDecl) -> None:
        self._push_scope()
        self._current_return = function.return_type
        for param in function.params:
            if isinstance(param.ctype, (StructRef, StructType)):
                raise TypeCheckError(
                    f"{function.name}: struct parameters must be passed by pointer"
                )
            self._declare(param.name, param.ctype)
        self._check_block(function.body or [])
        self._pop_scope()

    def _check_block(self, body: List) -> None:
        self._push_scope()
        for statement in body:
            self._check_statement(statement)
        self._pop_scope()

    def _check_statement(self, statement) -> None:
        if isinstance(statement, Declaration):
            self._declare(statement.name, statement.ctype)
            if statement.init is not None:
                self._check_expr(statement.init)
        elif isinstance(statement, ExprStmt):
            self._check_expr(statement.expr)
        elif isinstance(statement, If):
            self._check_expr(statement.cond)
            self._check_block(statement.then_body)
            self._check_block(statement.else_body)
        elif isinstance(statement, While):
            self._check_expr(statement.cond)
            self._check_block(statement.body)
        elif isinstance(statement, Return):
            if statement.value is not None:
                self._check_expr(statement.value)
        elif isinstance(statement, Block):
            self._check_block(statement.body)
        else:  # pragma: no cover - defensive
            raise TypeCheckError(f"unknown statement {statement!r}")

    # -- expressions --------------------------------------------------------------------------

    def _resolve_struct(self, ctype: CType) -> StructLayout:
        if isinstance(ctype, StructRef):
            if ctype.name not in self.struct_layouts:
                raise TypeCheckError(f"unknown struct {ctype.name!r}")
            return self.struct_layouts[ctype.name]
        if isinstance(ctype, StructType):
            return self.struct_layouts[ctype.name]
        raise TypeCheckError(f"expected a struct type, got {ctype}")

    def _check_expr(self, expr: Expr) -> CType:
        ctype = self._infer(expr)
        expr.ctype = ctype
        return ctype

    def _infer(self, expr: Expr) -> CType:
        if isinstance(expr, IntLit):
            return IntType(32, True)
        if isinstance(expr, NullLit):
            return PointerType(VoidType())
        if isinstance(expr, SizeOf):
            return IntType(32, False)
        if isinstance(expr, Name):
            return self._lookup(expr.ident)
        if isinstance(expr, Unary):
            operand = self._check_expr(expr.operand)
            if expr.op == "*":
                if not isinstance(operand, PointerType):
                    raise TypeCheckError("cannot dereference a non-pointer")
                return operand.pointee
            if expr.op == "&":
                return PointerType(operand)
            return IntType(32, True)
        if isinstance(expr, Binary):
            left = self._check_expr(expr.left)
            right = self._check_expr(expr.right)
            if expr.op in ("+", "-"):
                if isinstance(left, PointerType) and not isinstance(right, PointerType):
                    return left
                if isinstance(right, PointerType) and expr.op == "+":
                    return right
                if isinstance(left, PointerType) and isinstance(right, PointerType):
                    return IntType(32, True)
                return IntType(32, True)
            return IntType(32, True)
        if isinstance(expr, Assign):
            target = self._check_expr(expr.target)
            self._check_expr(expr.value)
            if not self._is_lvalue(expr.target):
                raise TypeCheckError("assignment target is not an lvalue")
            return target
        if isinstance(expr, FieldAccess):
            obj = self._check_expr(expr.obj)
            if expr.arrow:
                if not isinstance(obj, PointerType):
                    raise TypeCheckError("'->' applied to a non-pointer")
                layout = self._resolve_struct(obj.pointee)
            else:
                layout = self._resolve_struct(obj)
            try:
                return layout.field_type(expr.field_name)
            except KeyError:
                raise TypeCheckError(
                    f"struct {layout.name} has no field {expr.field_name!r}"
                ) from None
        if isinstance(expr, Index):
            base = self._check_expr(expr.base)
            self._check_expr(expr.index)
            if not isinstance(base, PointerType):
                raise TypeCheckError("indexing a non-pointer")
            return base.pointee
        if isinstance(expr, Call):
            signature = self.signatures.get(expr.func)
            if signature is None:
                raise TypeCheckError(f"call to undeclared function {expr.func!r}")
            for argument in expr.args:
                self._check_expr(argument)
            if not signature.variadic and len(expr.args) != len(signature.params):
                raise TypeCheckError(
                    f"{expr.func} expects {len(signature.params)} arguments,"
                    f" got {len(expr.args)}"
                )
            return signature.return_type
        if isinstance(expr, Cast):
            self._check_expr(expr.value)
            return expr.target
        raise TypeCheckError(f"unknown expression {expr!r}")

    def _is_lvalue(self, expr: Expr) -> bool:
        if isinstance(expr, Name):
            return True
        if isinstance(expr, Unary) and expr.op == "*":
            return True
        if isinstance(expr, (FieldAccess, Index)):
            return True
        return False


def typecheck(unit: TranslationUnit) -> CheckedUnit:
    return TypeChecker(unit).check()
