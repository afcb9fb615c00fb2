"""A unification-based type-inference baseline (SecondWrite / REWARDS family).

Characteristics reproduced from the family:

* value assignments unify types instead of constraining them (the whole
  program becomes one Steensgaard-style quotient);
* calls are monomorphic -- all callsites of a function share one type, so a
  single polymorphic helper (``memcpy`` wrappers, user allocators) merges the
  types of all of its callers (section 2.2);
* lattice information is attached per equivalence class with no notion of
  direction, so an upper bound discovered for one member leaks to every
  comparable variable (the over-unification hazard of section 2.5).

Structure (pointers, fields) is still recovered where the quotient supports
it, which matches SecondWrite's behaviour of recovering structure when its
points-to analysis cooperates.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from ..core.lattice import TypeLattice
from ..core.schemes import TypeScheme
from ..core.shapes import infer_shapes
from ..core.solver import ProcedureResult
from ..core.constraints import ConstraintSet
from ..ir.program import Program
from ..pipeline import ProgramTypes
from .common import TypeInferenceEngine, results_to_program_types, whole_program_constraints


class UnificationEngine(TypeInferenceEngine):
    name = "unification"

    def analyze(self, program: Program) -> ProgramTypes:
        start = time.perf_counter()
        inputs, combined, lattice = whole_program_constraints(program)
        shapes = infer_shapes(combined, lattice)
        shapes.release_encoding()

        results: Dict[str, ProcedureResult] = {}
        for name, proc in inputs.items():
            result = ProcedureResult(
                name=name,
                scheme=TypeScheme(proc=name, constraints=ConstraintSet()),
                shapes=shapes,
            )
            for dtv in proc.formal_ins:
                if shapes.lookup(dtv) is not None:
                    result.formal_in_sketches[dtv] = shapes.sketch_for(dtv)
            for dtv in proc.formal_outs:
                if shapes.lookup(dtv) is not None:
                    result.formal_out_sketches[dtv] = shapes.sketch_for(dtv)
            results[name] = result
        elapsed = time.perf_counter() - start
        return results_to_program_types(
            program, inputs, results, lattice, {"total_seconds": elapsed}
        )
