"""Abstract syntax and source-level types for the mini-C frontend.

The frontend exists to manufacture *realistic, type-erased machine code with
known ground truth*: the paper evaluates against DWARF/PDB debug information
from real compilers; we evaluate against the declared types that this
compiler records before erasing them during code generation.

The language is a small C subset: global struct declarations, global scalar
variables, functions with ``int``/``unsigned``/``char``/pointer/struct-pointer
parameters, locals (including local structs), assignments, ``if``/``while``/
``return``, pointer and field accesses, array indexing on pointers, casts,
``sizeof``, and calls (including the modelled libc externs).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Tuple

from ..core.ctype import (
    CType,
    IntType,
    PointerType,
    StructField,
    StructRef,
    StructType,
    TypedefType,
    VoidType,
)

# ---------------------------------------------------------------------------
# Source-level types.  We reuse the core C type model; the frontend adds a
# little structure around struct declaration and layout.
# ---------------------------------------------------------------------------

INT = IntType(32, True)
UINT = IntType(32, False)
CHAR = IntType(8, True)
VOID = VoidType()


@dataclass
class StructDecl:
    """A source-level struct declaration (before layout)."""

    name: str
    fields: List[Tuple[str, CType]] = dc_field(default_factory=list)

    def layout(self, struct_table: Dict[str, "StructLayout"]) -> "StructLayout":
        offset = 0
        placed: List[Tuple[str, int, CType]] = []
        for field_name, ctype in self.fields:
            size = type_size(ctype, struct_table)
            align = min(4, size) or 1
            if offset % align:
                offset += align - offset % align
            placed.append((field_name, offset, ctype))
            offset += size
        total = offset if offset % 4 == 0 else offset + (4 - offset % 4)
        return StructLayout(self.name, placed, max(total, 4))


@dataclass
class StructLayout:
    """A struct with resolved field offsets and total size."""

    name: str
    fields: List[Tuple[str, int, CType]]
    size: int

    def field_offset(self, name: str) -> int:
        for field_name, offset, _ in self.fields:
            if field_name == name:
                return offset
        raise KeyError(f"struct {self.name} has no field {name!r}")

    def field_type(self, name: str) -> CType:
        for field_name, _, ctype in self.fields:
            if field_name == name:
                return ctype
        raise KeyError(f"struct {self.name} has no field {name!r}")

    def to_ctype(self) -> StructType:
        return StructType(
            self.name,
            tuple(
                StructField(offset, ctype, field_name)
                for field_name, offset, ctype in self.fields
            ),
        )


def type_size(ctype: CType, struct_table: Optional[Dict[str, StructLayout]] = None) -> int:
    """Size of a value of ``ctype`` in bytes (pointers are 4 bytes)."""
    if isinstance(ctype, PointerType):
        return 4
    if isinstance(ctype, (StructRef, StructType)):
        if isinstance(ctype, StructRef) and struct_table and ctype.name in struct_table:
            return struct_table[ctype.name].size
        if isinstance(ctype, StructType):
            return max(4, (ctype.size_bits or 32) // 8)
        return 4
    if isinstance(ctype, TypedefType):
        return type_size(ctype.underlying, struct_table)
    if ctype.size_bits:
        return max(1, ctype.size_bits // 8)
    return 4


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Expr:
    """Base class; ``ctype`` is filled in by the type checker."""

    def __post_init__(self) -> None:
        self.ctype: Optional[CType] = None


@dataclass
class IntLit(Expr):
    value: int


@dataclass
class NullLit(Expr):
    pass


@dataclass
class SizeOf(Expr):
    target: CType


@dataclass
class Name(Expr):
    ident: str


@dataclass
class Unary(Expr):
    op: str  # '*', '&', '-', '!'
    operand: Expr


@dataclass
class Binary(Expr):
    op: str  # + - * / % < > <= >= == !=
    left: Expr
    right: Expr


@dataclass
class Assign(Expr):
    target: Expr
    value: Expr


@dataclass
class FieldAccess(Expr):
    obj: Expr
    field_name: str
    arrow: bool  # True for '->', False for '.'


@dataclass
class Index(Expr):
    base: Expr
    index: Expr


@dataclass
class Call(Expr):
    func: str
    args: List[Expr]


@dataclass
class Cast(Expr):
    target: CType
    value: Expr


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Stmt:
    pass


@dataclass
class Declaration(Stmt):
    name: str
    ctype: CType
    init: Optional[Expr] = None


@dataclass
class ExprStmt(Stmt):
    expr: Expr


@dataclass
class If(Stmt):
    cond: Expr
    then_body: List[Stmt]
    else_body: List[Stmt] = dc_field(default_factory=list)


@dataclass
class While(Stmt):
    cond: Expr
    body: List[Stmt]


@dataclass
class Return(Stmt):
    value: Optional[Expr] = None


@dataclass
class Block(Stmt):
    body: List[Stmt]


# ---------------------------------------------------------------------------
# Top level
# ---------------------------------------------------------------------------


@dataclass
class Param:
    name: str
    ctype: CType
    is_const: bool = False  # declared as a pointer-to-const


@dataclass
class FunctionDecl:
    name: str
    return_type: CType
    params: List[Param]
    body: Optional[List[Stmt]] = None  # None for prototypes

    @property
    def is_definition(self) -> bool:
        return self.body is not None


@dataclass
class GlobalVar:
    name: str
    ctype: CType


@dataclass
class TranslationUnit:
    structs: List[StructDecl] = dc_field(default_factory=list)
    globals: List[GlobalVar] = dc_field(default_factory=list)
    functions: List[FunctionDecl] = dc_field(default_factory=list)

    def function(self, name: str) -> FunctionDecl:
        for function in self.functions:
            if function.name == name:
                return function
        raise KeyError(name)
