"""Constraint generation from the machine-code IR (the Appendix A abstract interpreter)."""

from .externs import (
    STANDARD_EXTERNS,
    ExternSignature,
    ensure_lattice_tags,
    extern_schemes,
    standard_externs,
)
from .abstract_interp import (
    CalleeInfo,
    ProcedureConstraintGenerator,
    generate_program_constraints,
)

__all__ = [
    "CalleeInfo",
    "ExternSignature",
    "ProcedureConstraintGenerator",
    "STANDARD_EXTERNS",
    "ensure_lattice_tags",
    "extern_schemes",
    "generate_program_constraints",
    "standard_externs",
]
