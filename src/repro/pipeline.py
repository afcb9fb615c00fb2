"""The end-to-end analysis pipeline: assembly text (or an IR program) to C types.

This is the user-facing entry point of the reproduction::

    from repro import analyze_program

    types = analyze_program(asm_text)
    print(types.signature("close_last"))
    print(types.scheme("close_last"))

Internally it mirrors the architecture of section 4: IR recovery (already done
if a :class:`~repro.ir.program.Program` is passed), constraint generation per
procedure, bottom-up type-scheme inference over call-graph SCCs, sketch
solving, and the final heuristic conversion to C types.

Since the service layer landed, :func:`analyze_program` routes through
:class:`repro.service.AnalysisService`: the call graph's SCCs are solved one
at a time, bottom-up, via
:meth:`Solver.solve_scc <repro.core.solver.Solver.solve_scc>`, and -- when a
:class:`~repro.service.ServiceConfig` enables it -- per-SCC summaries are
cached in a content-addressed store and re-analysis after an edit re-solves
only the invalidation cone.  The default configuration (no cache, serial)
reproduces the historical single-shot behaviour exactly.  For many programs at once, see
:func:`repro.analyze_corpus`; for repeated re-analysis of an edited program,
see :class:`repro.service.IncrementalSession`.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Mapping, Optional, Union

from .core.ctype import (
    ArrayType,
    CType,
    FunctionType,
    PointerType,
    StructRef,
    StructType,
    TypedefType,
    UnionType,
    ctype_to_json,
    render_function,
)
from .core.display import TypeDisplay, location_sort_key
from .core.labels import InLabel, OutLabel
from .core.lattice import TypeLattice
from .core.schemes import TypeScheme
from .core.solver import ProcedureResult, SolverConfig
from .ir.program import Program
from .typegen.abstract_interp import Formals
from .typegen.externs import ExternSignature


@dataclass
class FunctionTypes:
    """The inferred typing of one procedure.

    Bundles the displayed C view (``function_type``, ``param_names``) with
    the underlying solver output (``result``: type scheme, formal sketches,
    shapes).  Instances are obtained from :class:`ProgramTypes`, never built
    directly.
    """

    name: str
    function_type: FunctionType
    param_names: List[str]
    param_locations: List[str]
    result: ProcedureResult

    @property
    def scheme(self) -> TypeScheme:
        """The procedure's polymorphic type scheme (Definition 3.4)."""
        return self.result.scheme

    def signature(self) -> str:
        """The rendered C declaration, e.g. ``int get_x(const int * arg_stack0);``."""
        return render_function(self.name, self.function_type, self.param_names)

    def param_type(self, index: int):
        """The displayed C type of the ``index``-th parameter."""
        return self.function_type.params[index]

    @property
    def return_type(self):
        """The displayed C return type (``void`` when nothing is returned)."""
        return self.function_type.ret

    def to_json(self) -> Dict[str, object]:
        """A JSON-able, per-procedure payload for remote queries.

        Everything a client needs about one procedure: the rendered C
        signature, the displayed C types (parameters in display order plus the
        return type), the polymorphic type scheme, and the formal sketches --
        each using the established JSON round-trips (:func:`~repro.core.ctype.
        ctype_to_json`, :meth:`TypeScheme.to_json <repro.core.schemes.
        TypeScheme.to_json>`, :meth:`Sketch.to_json <repro.core.sketches.
        Sketch.to_json>`).  Struct *definitions* live program-wide; see
        :meth:`ProgramTypes.procedure_structs`.
        """
        locations = sorted(self.param_locations, key=location_sort_key)
        return {
            "name": self.name,
            "signature": self.signature(),
            "params": [
                {
                    "name": pname,
                    "location": location,
                    "type": ctype_to_json(ptype),
                    "c": str(ptype),
                }
                for pname, location, ptype in zip(
                    self.param_names, locations, self.function_type.params
                )
            ],
            "return": {
                "type": ctype_to_json(self.function_type.ret),
                "c": str(self.function_type.ret),
            },
            "scheme": self.scheme.to_json(),
            "scheme_text": str(self.scheme),
            "formal_ins": [
                [str(dtv), sketch.to_json()]
                for dtv, sketch in self.result.formal_in_sketches.items()
            ],
            "formal_outs": [
                [str(dtv), sketch.to_json()]
                for dtv, sketch in self.result.formal_out_sketches.items()
            ],
        }


def _json_safe(value):
    """Coerce a stats-ish value to something ``json.dumps`` accepts as-is."""
    if isinstance(value, dict):
        return {str(key): _json_safe(entry) for key, entry in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value, key=str) if isinstance(value, (set, frozenset)) else value
        return [_json_safe(entry) for entry in items]
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    return str(value)


def _referenced_struct_names(ctype: CType, out: set) -> None:
    """Collect the names of every struct a displayed type mentions."""
    if isinstance(ctype, (StructRef, StructType)):
        if ctype.name:
            out.add(ctype.name)
        if isinstance(ctype, StructType):
            for field_ in ctype.fields:
                _referenced_struct_names(field_.ctype, out)
    elif isinstance(ctype, PointerType):
        _referenced_struct_names(ctype.pointee, out)
    elif isinstance(ctype, TypedefType):
        _referenced_struct_names(ctype.underlying, out)
    elif isinstance(ctype, UnionType):
        for member in ctype.members:
            _referenced_struct_names(member, out)
    elif isinstance(ctype, FunctionType):
        for param in ctype.params:
            _referenced_struct_names(param, out)
        _referenced_struct_names(ctype.ret, out)
    elif isinstance(ctype, ArrayType):
        _referenced_struct_names(ctype.element, out)


@dataclass
class ProgramTypes:
    """Whole-program inference results -- what :func:`analyze_program` returns.

    Addressable by procedure name (``types["main"]``, ``"main" in types``);
    ``stats`` carries solver/service accounting (cache hits, per-SCC seconds,
    per-stage timings -- see :attr:`stage_seconds` and docs/operations.md).
    """

    program: Program
    functions: Dict[str, FunctionTypes]
    display: TypeDisplay
    stats: Dict[str, float] = dc_field(default_factory=dict)

    def __contains__(self, name: str) -> bool:
        return name in self.functions

    def __getitem__(self, name: str) -> FunctionTypes:
        return self.functions[name]

    @property
    def stage_seconds(self) -> Dict[str, float]:
        """Per-stage core solver timings for this analysis.

        The :class:`~repro.core.solver.SolveStats` record (graph build,
        saturation, simplification queries, sketch construction) aggregated by
        the service over every SCC it actually solved; empty until a solve has
        run, all-zero when the whole program was served from the summary
        cache.  The server's ``stats`` verb returns this same record for a
        ``program_id``.
        """
        stage = self.stats.get("stage_seconds", {})
        return dict(stage) if isinstance(stage, dict) else {}

    def signature(self, name: str) -> str:
        """The rendered C declaration of procedure ``name``."""
        return self.functions[name].signature()

    def scheme(self, name: str) -> TypeScheme:
        """The polymorphic type scheme of procedure ``name``."""
        return self.functions[name].scheme

    def struct_definitions(self) -> Dict[str, StructType]:
        """Every struct layout the display layer recovered, by generated name."""
        return self.display.struct_definitions()

    def procedure_structs(self, name: str) -> Dict[str, StructType]:
        """The struct definitions reachable from one procedure's displayed type.

        This is the "struct layout" a remote ``query`` returns: starting from
        the function type, every named struct it mentions plus -- transitively
        -- every struct those definitions mention, so recursive layouts
        (``struct_0 *next``) always arrive with their definitions.
        """
        referenced: set = set()
        _referenced_struct_names(self.functions[name].function_type, referenced)
        definitions = self.display.struct_definitions()
        out: Dict[str, StructType] = {}
        worklist = sorted(referenced)
        while worklist:
            struct_name = worklist.pop()
            if struct_name in out or struct_name not in definitions:
                continue
            struct = definitions[struct_name]
            out[struct_name] = struct
            nested: set = set()
            _referenced_struct_names(struct, nested)
            worklist.extend(sorted(nested - set(out)))
        return out

    def to_json(self) -> Dict[str, object]:
        """A JSON-able payload of the whole analysis, addressable by procedure.

        The shape served by the type-query server's ``analyze``/``query``
        verbs and printed by ``python -m repro analyze --json``: per-procedure
        payloads (:meth:`FunctionTypes.to_json`), the program-wide struct
        table, the plain-text report and the solver statistics.
        """
        return {
            "functions": {name: fn.to_json() for name, fn in self.functions.items()},
            "structs": {
                name: {"type": ctype_to_json(struct), "c": f"{struct};"}
                for name, struct in sorted(self.display.struct_definitions().items())
            },
            "report": self.report(),
            "stats": _json_safe(self.stats),
        }

    def report(self) -> str:
        """A human-readable summary of every inferred signature."""
        lines = []
        for name in sorted(self.functions):
            lines.append(self.signature(name))
        if self.display.struct_definitions():
            lines.append("")
            for struct_name, struct in sorted(self.display.struct_definitions().items()):
                lines.append(f"{struct};")
        return "\n".join(lines)


def analyze_program(
    source: Union[str, Program],
    lattice: Optional[TypeLattice] = None,
    externs: Optional[Mapping[str, ExternSignature]] = None,
    config: Optional[SolverConfig] = None,
    service: Optional[object] = None,
) -> ProgramTypes:
    """Run the whole Retypd pipeline on assembly text or an IR program.

    ``service`` may be a :class:`repro.service.ServiceConfig` (a service is
    built from it) or a ready :class:`repro.service.AnalysisService` (its
    summary store is then shared across calls, enabling warm re-analysis).
    By default a one-shot service -- no cache, serial scheduling -- is used,
    which matches the historical behaviour of this function.
    """
    from dataclasses import replace

    from .service.incremental import AnalysisService, ServiceConfig

    if isinstance(service, AnalysisService):
        if config is not None and service.config.solver is not config:
            raise ValueError("pass the solver config inside the service, not separately")
        if lattice is not None or externs is not None:
            raise ValueError(
                "a ready AnalysisService carries its own lattice and externs; "
                "pass them to the service constructor instead"
            )
        return service.analyze(source)
    if isinstance(service, ServiceConfig):
        service_config = replace(service, solver=config) if config is not None else service
    else:
        service_config = ServiceConfig(solver=config or SolverConfig(), use_cache=False)
    return AnalysisService(service_config, lattice=lattice, externs=externs).analyze(source)


def _function_types(
    name: str,
    formals: Formals,
    result: ProcedureResult,
    display: TypeDisplay,
) -> FunctionTypes:
    """Display one procedure from its formals (a typing input, or the stored
    summary of a procedure the summary store served) and solved result."""
    in_sketches = []
    param_locations = []
    for dtv in formals.formal_ins:
        label = dtv.labels[0]
        location = label.location if isinstance(label, InLabel) else str(label)
        sketch = result.formal_in_sketches.get(dtv)
        if sketch is None and result.shapes is not None and result.shapes.lookup(dtv) is not None:
            sketch = result.shapes.sketch_for(dtv)
        if sketch is None:
            continue
        in_sketches.append((location, sketch))
        param_locations.append(location)
    out_sketches = []
    for dtv in formals.formal_outs:
        sketch = result.formal_out_sketches.get(dtv)
        if sketch is not None:
            out_label = next(
                (label for label in dtv.labels if isinstance(label, OutLabel)), None
            )
            location = out_label.location if out_label is not None else str(dtv)
            out_sketches.append((location, sketch))
    function_type, param_names = display.function_type(in_sketches, out_sketches)
    return FunctionTypes(
        name=name,
        function_type=function_type,
        param_names=param_names,
        param_locations=param_locations,
        result=result,
    )
