"""The core Retypd reproduction: type system, constraint solving, display.

The public surface re-exported here is what examples, the evaluation harness
and downstream users are expected to import::

    from repro.core import (
        ConstraintSet, SubtypeConstraint, DerivedTypeVariable,
        Solver, ProcedureTypingInput, Callsite,
        TypeLattice, default_lattice, TypeDisplay,
    )
"""

from .labels import (
    COVARIANT,
    CONTRAVARIANT,
    FieldLabel,
    InLabel,
    Label,
    LoadLabel,
    OutLabel,
    StoreLabel,
    Variance,
    LOAD,
    STORE,
    field,
    in_label,
    out_label,
    parse_label,
    parse_label_word,
    path_variance,
)
from .variables import DerivedTypeVariable, fresh_var, parse_dtv
from .constraints import (
    AddConstraint,
    ConstraintSet,
    SubConstraint,
    SubtypeConstraint,
    parse_constraint,
    parse_constraints,
)
from .lattice import BOTTOM, TOP, TypeLattice, default_lattice
from .graph import ConstraintGraph
from .saturation import saturate, saturated
from .simplify import derive_constant_bounds, derives, proves, simplify_constraints
from .sketches import Sketch, SketchNode, top_sketch
from .shapes import ShapeInference, infer_shapes
from .schemes import TypeScheme, monomorphic_scheme
from .solver import (
    Callsite,
    ProcedureResult,
    ProcedureTypingInput,
    SolveStats,
    Solver,
    SolverConfig,
    scheme_from_shapes,
    tarjan_sccs,
)
from .ctype import (
    ArrayType,
    BoolType,
    CType,
    CodeType,
    FloatType,
    FunctionType,
    IntType,
    PointerType,
    StructField,
    StructRef,
    StructType,
    TypedefType,
    UnionType,
    UnknownType,
    VoidType,
    render_function,
)
from .display import TypeDisplay

__all__ = [
    "AddConstraint",
    "ArrayType",
    "BOTTOM",
    "BoolType",
    "COVARIANT",
    "CONTRAVARIANT",
    "CType",
    "Callsite",
    "CodeType",
    "ConstraintGraph",
    "ConstraintSet",
    "DerivedTypeVariable",
    "FieldLabel",
    "FloatType",
    "FunctionType",
    "InLabel",
    "IntType",
    "LOAD",
    "Label",
    "LoadLabel",
    "OutLabel",
    "PointerType",
    "ProcedureResult",
    "ProcedureTypingInput",
    "STORE",
    "Sketch",
    "SketchNode",
    "SolveStats",
    "ShapeInference",
    "Solver",
    "SolverConfig",
    "StoreLabel",
    "StructField",
    "StructRef",
    "StructType",
    "SubConstraint",
    "SubtypeConstraint",
    "TOP",
    "TypeDisplay",
    "TypeLattice",
    "TypeScheme",
    "TypedefType",
    "UnionType",
    "UnknownType",
    "Variance",
    "VoidType",
    "default_lattice",
    "derive_constant_bounds",
    "derives",
    "field",
    "fresh_var",
    "in_label",
    "infer_shapes",
    "monomorphic_scheme",
    "out_label",
    "parse_constraint",
    "parse_constraints",
    "parse_dtv",
    "parse_label",
    "parse_label_word",
    "path_variance",
    "proves",
    "render_function",
    "saturate",
    "saturated",
    "scheme_from_shapes",
    "simplify_constraints",
    "tarjan_sccs",
    "top_sketch",
]
