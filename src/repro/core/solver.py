"""The type-inference driver: INFERPROCTYPES / SOLVE over call-graph SCCs.

This module glues the pieces of the core together, following Algorithms F.1
and F.2:

1. Strongly-connected components of the call graph are processed bottom-up
   (the loop lives in ``repro.service.AnalysisService.solve_inputs``; this
   module solves one SCC at a time, :meth:`Solver.solve_scc`).
2. For every SCC the per-procedure constraint tables are merged; callsites to
   already-processed procedures instantiate the callee's *type scheme* with a
   callsite tag (polymorphism), calls within the SCC are linked monomorphically.
3. The combined constraint set is solved: shapes via the Steensgaard quotient
   (Theorem 3.1), lattice decorations via the saturated constraint graph
   (Appendix D.4).
4. Each procedure's formal-in/out sketches are read off the solution and
   serialized back into a compact type scheme (Figure 2 / Appendix H) to be
   instantiated by the procedure's callers.

The solver is intentionally independent of the machine-code IR: its input is a
:class:`ProcedureTypingInput` per procedure (constraints + formal variables +
callsite descriptors), which the :mod:`repro.typegen` package produces from
disassembly and which tests can construct by hand.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field as dc_field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple, Union

from ..obs.trace import checkpoint, get_tracer
from .constraints import ConstraintSet
from .graph import ConstraintGraph
from .intern import ConstraintTable, Part, TableConstraints
from .labels import Label, Variance, path_variance
from .lattice import BOTTOM, TOP, TypeLattice, default_lattice
from .saturation import saturate
from .schemes import TypeScheme
from .shapes import ShapeInference, infer_shapes
from .simplify import constant_bound_ids
from .sketches import Sketch
from .variables import DerivedTypeVariable


@dataclass
class SolveStats:
    """Per-stage timings and counters for one solve (or an aggregate of many).

    The stages mirror the core algorithm: ``shapes`` is the SCC's encoding
    plus the Steensgaard shape inference of Algorithm E.1, ``graph``
    constraint-graph construction, ``saturate`` the worklist fixpoint of
    Algorithm D.2, ``simplify`` the path queries over the saturated graph
    (the Appendix D.4 constant-bound derivation feeding lattice decorations),
    and ``sketch`` the scheme and formal-sketch serialization.  Instances
    merge, so the service can aggregate per-SCC records into one program-level
    record and the server can report where a live daemon spends its time.
    """

    shapes_seconds: float = 0.0
    graph_seconds: float = 0.0
    saturate_seconds: float = 0.0
    simplify_seconds: float = 0.0
    sketch_seconds: float = 0.0
    #: process-backend codec overhead: a corpus fan-out worker's encode of
    #: its reply (summaries and typing inputs).  Kept out of
    #: ``total_seconds`` -- it is transport overhead around the solve, not a
    #: solve stage -- but merged and serialized like the stages, so the
    #: per-worker records of the ``stats`` verb show where backend overhead
    #: actually goes.
    codec_seconds: float = 0.0
    graph_nodes: int = 0
    graph_edges: int = 0
    saturation_edges: int = 0
    constant_bounds: int = 0
    sccs_timed: int = 0
    #: SCCs solved on the in-process path because their program's corpus
    #: fan-out worker failed (always 0 on the serial path).
    worker_failed: int = 0

    @property
    def total_seconds(self) -> float:
        return (
            self.shapes_seconds
            + self.graph_seconds
            + self.saturate_seconds
            + self.simplify_seconds
            + self.sketch_seconds
        )

    def merge(self, other: "SolveStats") -> None:
        self.shapes_seconds += other.shapes_seconds
        self.graph_seconds += other.graph_seconds
        self.saturate_seconds += other.saturate_seconds
        self.simplify_seconds += other.simplify_seconds
        self.sketch_seconds += other.sketch_seconds
        self.codec_seconds += other.codec_seconds
        self.graph_nodes += other.graph_nodes
        self.graph_edges += other.graph_edges
        self.saturation_edges += other.saturation_edges
        self.constant_bounds += other.constant_bounds
        self.sccs_timed += other.sccs_timed
        self.worker_failed += other.worker_failed

    def to_json(self) -> Dict[str, float]:
        """A flat JSON-able record (the shape served by the server's ``stats`` verb)."""
        return {
            "shapes_seconds": self.shapes_seconds,
            "graph_seconds": self.graph_seconds,
            "saturate_seconds": self.saturate_seconds,
            "simplify_seconds": self.simplify_seconds,
            "sketch_seconds": self.sketch_seconds,
            "codec_seconds": self.codec_seconds,
            "total_seconds": self.total_seconds,
            "graph_nodes": self.graph_nodes,
            "graph_edges": self.graph_edges,
            "saturation_edges": self.saturation_edges,
            "constant_bounds": self.constant_bounds,
            "sccs_timed": self.sccs_timed,
            "worker_failed": self.worker_failed,
        }

    @classmethod
    def from_json(cls, data: Mapping[str, float]) -> "SolveStats":
        """Rebuild a record serialized by :meth:`to_json` (used by the process
        backend to carry per-SCC worker timings back across the pipe)."""
        out = cls()
        for field_name in (
            "shapes_seconds",
            "graph_seconds",
            "saturate_seconds",
            "simplify_seconds",
            "sketch_seconds",
            "codec_seconds",
            "graph_nodes",
            "graph_edges",
            "saturation_edges",
            "constant_bounds",
            "sccs_timed",
            "worker_failed",
        ):
            if field_name in data:
                setattr(out, field_name, data[field_name])
        return out


@dataclass(frozen=True)
class Callsite:
    """One call instruction: the callee's name and the base variable used for it."""

    callee: str
    base: str


class ProcedureTypingInput:
    """Everything the solver needs to know about one procedure.

    The constraints live in a sealed :class:`~repro.core.intern.
    ConstraintTable` (``table``); constraint generation builds one directly,
    and a :class:`ConstraintSet` given here is encoded once.
    ``constraints`` is a read-only view decoded on first use: its ``len``
    (distinct subtype constraints) is free, and the solver never reads it.
    """

    __slots__ = ("name", "table", "formal_ins", "formal_outs", "callsites", "_view")

    def __init__(
        self,
        name: str,
        constraints: Union[ConstraintSet, ConstraintTable],
        formal_ins: Sequence[DerivedTypeVariable] = (),
        formal_outs: Sequence[DerivedTypeVariable] = (),
        callsites: Sequence[Callsite] = (),
    ) -> None:
        self.name = name
        if not isinstance(constraints, ConstraintTable):
            constraints = ConstraintTable.from_constraints(constraints)
        self.table: ConstraintTable = constraints
        self.formal_ins: Tuple[DerivedTypeVariable, ...] = tuple(formal_ins)
        self.formal_outs: Tuple[DerivedTypeVariable, ...] = tuple(formal_outs)
        self.callsites: Tuple[Callsite, ...] = tuple(callsites)
        self._view: Optional[TableConstraints] = None

    @property
    def constraints(self) -> ConstraintSet:
        view = self._view
        if view is None:
            view = self._view = TableConstraints(self.table)
        return view


@dataclass
class ProcedureResult:
    """Inference output for one procedure."""

    name: str
    scheme: TypeScheme
    formal_in_sketches: Dict[DerivedTypeVariable, Sketch] = dc_field(default_factory=dict)
    formal_out_sketches: Dict[DerivedTypeVariable, Sketch] = dc_field(default_factory=dict)
    shapes: Optional[ShapeInference] = None

    def sketch_for(self, dtv: DerivedTypeVariable) -> Optional[Sketch]:
        if dtv in self.formal_in_sketches:
            return self.formal_in_sketches[dtv]
        if dtv in self.formal_out_sketches:
            return self.formal_out_sketches[dtv]
        if self.shapes is not None and self.shapes.lookup(dtv) is not None:
            return self.shapes.sketch_for(dtv)
        return None


#: maximum label depth explored when serializing schemes.
MAX_SCHEME_DEPTH = 6


@dataclass
class SolverConfig:
    """Tunable knobs for the inference pipeline."""

    #: use the saturated-graph queries of Appendix D.4 for lattice decorations
    #: (direction-aware); when False, the coarser per-class bounds of the
    #: Steensgaard quotient are kept.
    precise_bounds: bool = True
    #: run the REFINEPARAMETERS specialization pass (Algorithm F.3).
    refine_parameters: bool = True
    #: instantiate callee schemes polymorphically (fresh existentials per
    #: callsite).  The unification/TIE baselines set this to False.
    polymorphic: bool = True


class Solver:
    """Type inference for one call-graph SCC at a time (:meth:`solve_scc`)."""

    def __init__(
        self,
        lattice: Optional[TypeLattice] = None,
        extern_schemes: Optional[Mapping[str, TypeScheme]] = None,
        config: Optional[SolverConfig] = None,
    ) -> None:
        self.lattice = lattice or default_lattice()
        self.extern_schemes: Dict[str, TypeScheme] = dict(extern_schemes or {})
        self.config = config or SolverConfig()

    # -- per-SCC solving -----------------------------------------------------------------------

    def solve_scc(
        self,
        scc: Sequence[str],
        procedures: Mapping[str, ProcedureTypingInput],
        results: Mapping[str, ProcedureResult],
        stats: Optional[SolveStats] = None,
    ) -> Dict[str, ProcedureResult]:
        """Solve one SCC of the call graph given the results of its callees.

        ``results`` must already contain a :class:`ProcedureResult` for every
        callee outside ``scc`` (bottom-up discipline); the returned mapping
        covers exactly the members of ``scc``.  This is the unit of work the
        service layer schedules, caches and re-solves incrementally.  When
        ``stats`` is given, per-stage timings and counters are accumulated
        into it (callers aggregating across SCCs pass one shared record).
        """
        tracer = get_tracer()
        with tracer.span("solver.solve_scc", scc=",".join(scc)) as scc_span:
            scc_set = set(scc)
            parts: List[Part] = []
            for name in scc:
                proc = procedures[name]
                parts.append(proc.table)
                for callsite in proc.callsites:
                    part = self._callsite_part(callsite, scc_set, results)
                    if part is not None:
                        parts.append(part)

            shapes, graph, count = self._solve_constraints(parts, stats)
            scc_span.set("constraints", count)

            sketch_start = time.perf_counter()
            out: Dict[str, ProcedureResult] = {}
            with tracer.span("solver.sketch", scc=",".join(scc)):
                for name in scc:
                    # The first one also ends the last solve stage.
                    checkpoint()
                    proc = procedures[name]
                    scheme = scheme_from_shapes(
                        proc, shapes, self.lattice, max_depth=MAX_SCHEME_DEPTH
                    )
                    in_sketches = {
                        dtv: shapes.sketch_for(dtv)
                        for dtv in proc.formal_ins
                        if shapes.lookup(dtv) is not None
                    }
                    out_sketches = {
                        dtv: shapes.sketch_for(dtv)
                        for dtv in proc.formal_outs
                        if shapes.lookup(dtv) is not None
                    }
                    out[name] = ProcedureResult(
                        name=name,
                        scheme=scheme,
                        formal_in_sketches=in_sketches,
                        formal_out_sketches=out_sketches,
                        shapes=shapes,
                    )
            if stats is not None:
                stats.sketch_seconds += time.perf_counter() - sketch_start
                stats.sccs_timed += 1
            return out

    def _callsite_part(
        self,
        callsite: Callsite,
        scc_set: Set[str],
        results: Mapping[str, ProcedureResult],
    ) -> Optional[Part]:
        """The table part one callsite contributes (scheme instantiation)."""
        callee = callsite.callee
        if callee in results:
            scheme = results[callee].scheme
        elif callee in scc_set:
            # Monomorphic link within a recursive SCC: identify the callsite
            # base with the callee's own variable.
            link = ConstraintTable()
            here = link.var(callsite.base)
            there = link.var(callee)
            link.subtype.update(((here, there), (there, here)))
            return link.seal()
        elif callee in self.extern_schemes:
            scheme = self.extern_schemes[callee]
        else:
            return None  # unknown externals contribute nothing
        if self.config.polymorphic:
            return scheme.instance_as(callsite.base)
        return scheme.table(), {scheme.proc: callsite.base}

    def _solve_constraints(
        self, parts: Sequence[Part], stats: Optional[SolveStats] = None
    ) -> Tuple[ShapeInference, Optional[ConstraintGraph], int]:
        """Solve one SCC's parts; also returns its distinct subtype constraints."""
        timer = time.perf_counter
        tracer = get_tracer()

        start = timer()
        with tracer.span("solver.shapes"):
            shapes = infer_shapes(parts, self.lattice)
        shapes_seconds = timer() - start
        checkpoint()
        count = len(shapes.encoding.subtype)

        graph: Optional[ConstraintGraph] = None
        graph_seconds = saturate_seconds = simplify_seconds = 0.0
        saturation_edges = bound_count = 0
        if self.config.precise_bounds:
            start = timer()
            with tracer.span("solver.graph") as graph_span:
                graph = ConstraintGraph(encoding=shapes.encoding)
                graph_span.set("nodes", graph.num_nodes)
            graph_seconds = timer() - start
            checkpoint()

            start = timer()
            with tracer.span("solver.saturate") as saturate_span:
                saturation_edges = saturate(graph)
                saturate_span.set("edges_added", saturation_edges)
            saturate_seconds = timer() - start
            checkpoint()

            start = timer()
            with tracer.span("solver.simplify") as simplify_span:
                shapes.clear_bounds()
                bounds = constant_bound_ids(graph, self.lattice)
                checkpoint()
                bound_count = len(bounds)
                simplify_span.set("constant_bounds", bound_count)
                shapes.place_bounds(bounds, len(graph._labels) + 1)
            simplify_seconds = timer() - start
        # Results keep the quotient; the encoding must not ride along.
        shapes.release_encoding()
        if stats is not None:
            stats.shapes_seconds += shapes_seconds
            stats.graph_seconds += graph_seconds
            stats.saturate_seconds += saturate_seconds
            stats.simplify_seconds += simplify_seconds
            stats.saturation_edges += saturation_edges
            stats.constant_bounds += bound_count
            if graph is not None:
                stats.graph_nodes += graph.num_nodes
                stats.graph_edges += len(graph)
        return shapes, graph, count


# ---------------------------------------------------------------------------
# REFINEPARAMETERS pieces (Algorithm F.3), usable SCC-by-SCC
# ---------------------------------------------------------------------------
#
# The refinement pass is split in two so the service layer can cache the
# sketch *contributions* a caller makes to its callees' formals (computed from
# the caller's solved shapes, which are not serialized) and re-apply them as
# pure sketch arithmetic on warm runs.


@dataclass
class RefinementContribution:
    """One callsite's actual-parameter sketch feeding a callee's formal."""

    caller: str
    callee: str
    formal: DerivedTypeVariable
    kind: str  # "in" (actual argument) or "out" (use of the returned value)
    sketch: Sketch


def collect_caller_contributions(
    caller: ProcedureTypingInput,
    caller_result: Optional[ProcedureResult],
    results: Mapping[str, ProcedureResult],
) -> List[RefinementContribution]:
    """Actual-in / actual-out sketches ``caller`` contributes at its callsites.

    Requires the caller's solved shapes, so it must run while (or right after)
    the caller's SCC is solved; the callees' results only provide the *set* of
    formal variables, which is stable under refinement and caching.
    """
    out: List[RefinementContribution] = []
    if caller_result is None or caller_result.shapes is None:
        return out
    shapes = caller_result.shapes
    for callsite in caller.callsites:
        callee_result = results.get(callsite.callee)
        if callee_result is None:
            continue
        for formal in callee_result.formal_in_sketches:
            actual = formal.with_base(callsite.base)
            if shapes.lookup(actual) is not None:
                out.append(
                    RefinementContribution(
                        caller.name, callsite.callee, formal, "in", shapes.sketch_for(actual)
                    )
                )
        for formal in callee_result.formal_out_sketches:
            actual = formal.with_base(callsite.base)
            if shapes.lookup(actual) is not None:
                out.append(
                    RefinementContribution(
                        caller.name, callsite.callee, formal, "out", shapes.sketch_for(actual)
                    )
                )
    return out


#: ``apply_refinement`` calls ``checkpoint()`` once per this many refined
#: formals (a power of two, minus one).
_REFINE_CHECKPOINT_MASK = (1 << 5) - 1


def apply_refinement(
    results: Mapping[str, ProcedureResult],
    contributions: Iterable[RefinementContribution],
) -> None:
    """Fold callsite contributions into the callees' formal sketches.

    Formal-in sketches move down to the meet with the join of the actuals;
    formal-out sketches move up to the join with the meet of the observed
    uses.  Contribution order is preserved so results are deterministic.
    """
    actual_ins: Dict[Tuple[str, DerivedTypeVariable], List[Sketch]] = {}
    actual_outs: Dict[Tuple[str, DerivedTypeVariable], List[Sketch]] = {}
    for contribution in contributions:
        bucket = actual_ins if contribution.kind == "in" else actual_outs
        bucket.setdefault((contribution.callee, contribution.formal), []).append(
            contribution.sketch
        )

    for index, ((callee, formal), sketches) in enumerate(actual_ins.items(), 1):
        if not index & _REFINE_CHECKPOINT_MASK:
            checkpoint()
        result = results[callee]
        current = result.formal_in_sketches.get(formal)
        if current is None or not sketches:
            continue
        joined = sketches[0]
        for sketch in sketches[1:]:
            joined = joined.join(sketch)
        result.formal_in_sketches[formal] = current.meet(joined)
    for index, ((callee, formal), sketches) in enumerate(actual_outs.items(), 1):
        if not index & _REFINE_CHECKPOINT_MASK:
            checkpoint()
        result = results[callee]
        current = result.formal_out_sketches.get(formal)
        if current is None or not sketches:
            continue
        met = sketches[0]
        for sketch in sketches[1:]:
            met = met.meet(sketch)
        result.formal_out_sketches[formal] = current.join(met)


# ---------------------------------------------------------------------------
# Scheme serialization (Figure 2 / Appendix H)
# ---------------------------------------------------------------------------


def scheme_from_shapes(
    procedure: ProcedureTypingInput,
    shapes: ShapeInference,
    lattice: TypeLattice,
    max_depth: int = 6,
) -> TypeScheme:
    """Serialize the solved shapes of a procedure's formals into a type scheme.

    Existential variables are introduced for sketch nodes that are shared
    (in-degree >= 2) or recursive, which yields exactly the compact presentation
    of Figure 2: ``F.in_stack0 <= t``, ``t.load.sigma32@0 <= t``, bounds on the
    remaining paths.  Each reachable class's sorted children are read once and
    shared by the reachability, in-degree, cycle and emission passes; the
    variance of the path being emitted is carried down the walk.
    """
    constraints = ConstraintSet()

    formals: List[Tuple[DerivedTypeVariable, Variance]] = []
    for dtv in procedure.formal_ins:
        formals.append((dtv, Variance.CONTRAVARIANT))
    for dtv in procedure.formal_outs:
        formals.append((dtv, Variance.COVARIANT))

    roots: Dict[DerivedTypeVariable, int] = {}
    for dtv, _ in formals:
        cell = shapes.lookup(dtv)
        if cell is not None:
            roots[dtv] = cell

    # The classes reachable from the formals, each with its children.
    children: Dict[int, List[Tuple[Label, int]]] = {}
    worklist = list(roots.values())
    while worklist:
        cell = worklist.pop()
        if cell not in children:
            children[cell] = shapes.children(cell)
            worklist.extend(target for _, target in children[cell])

    # A class shared between several formals, or reachable both as a formal
    # root and through a capability path, must be named so the sharing is
    # expressible in the serialized constraints (e.g. ``id.in <= t <= id.out``);
    # so must every class on a cycle.
    shared = dict.fromkeys(children, 0)
    for cell in roots.values():
        shared[cell] += 1
    for kids in children.values():
        for _, target in kids:
            shared[target] += 1
    needs_var = _cyclic_classes(children)
    needs_var.update(cell for cell, count in shared.items() if count >= 2)
    var_dtvs: Dict[int, DerivedTypeVariable] = {
        cell: DerivedTypeVariable(f"τ{position}")
        for position, cell in enumerate(sorted(needs_var))
    }

    def bounds_constraints(expr: DerivedTypeVariable, cell: int) -> bool:
        lower, upper = shapes.bounds(cell)
        if lower != BOTTOM:
            constraints.add_subtype(DerivedTypeVariable(lower), expr)
        if upper != TOP:
            constraints.add_subtype(expr, DerivedTypeVariable(upper))
        return lower != BOTTOM or upper != TOP

    def emit_from(
        expr: DerivedTypeVariable, cell: int, variance: Variance, depth: int, seen: Set[int]
    ) -> None:
        emitted = bounds_constraints(expr, cell)
        if depth >= max_depth:
            return
        kids = children[cell]
        if not kids and not emitted and expr.labels:
            # Record the bare capability so the path is preserved by callers
            # (an unconstrained leaf still asserts VAR expr).
            constraints.add_subtype(expr, DerivedTypeVariable(TOP))
            return
        for label, target in kids:
            child_expr = expr.with_label(label)
            child_variance = variance * label.variance
            var_dtv = var_dtvs.get(target)
            if var_dtv is not None:
                if child_variance is Variance.COVARIANT:
                    constraints.add_subtype(child_expr, var_dtv)
                else:
                    constraints.add_subtype(var_dtv, child_expr)
            elif target not in seen:
                emit_from(child_expr, target, child_variance, depth + 1, seen | {target})

    # Formals first: either link to their existential or expand inline.
    for dtv, variance in formals:
        cell = roots.get(dtv)
        if cell is None:
            continue
        var_dtv = var_dtvs.get(cell)
        if var_dtv is None:
            emit_from(dtv, cell, path_variance(dtv.labels), 0, {cell})
        elif variance is Variance.CONTRAVARIANT:
            constraints.add_subtype(dtv, var_dtv)
        else:
            constraints.add_subtype(var_dtv, dtv)

    # Then each existential variable's own structure.
    for cell, var_dtv in var_dtvs.items():
        emit_from(var_dtv, cell, Variance.COVARIANT, 0, {cell})

    return TypeScheme(
        proc=procedure.name,
        constraints=constraints,
        quantified=frozenset(var_dtv.base for var_dtv in var_dtvs.values()),
        formal_ins=tuple(procedure.formal_ins),
        formal_outs=tuple(procedure.formal_outs),
    )


def _cyclic_classes(children: Mapping[int, List[Tuple[Label, int]]]) -> Set[int]:
    """Classes on a cycle of the quotient graph restricted to ``children``'s keys."""
    edges = {cell: [target for _, target in kids] for cell, kids in children.items()}
    cyclic: Set[int] = set()
    for component in tarjan_sccs(edges):
        if len(component) > 1 or component[0] in edges[component[0]]:
            cyclic.update(component)
    return cyclic


def tarjan_sccs(edges: Mapping) -> List[List]:
    """Iterative Tarjan SCC; returns components in callee-first (reverse topological) order."""
    index_counter = itertools.count()
    indices: Dict = {}
    lowlink: Dict = {}
    on_stack: Set = set()
    stack: List = []
    result: List[List] = []

    for root in edges:
        if root in indices:
            continue
        work = [(root, iter(list(edges.get(root, ()))))]
        indices[root] = lowlink[root] = next(index_counter)
        stack.append(root)
        on_stack.add(root)
        while work:
            node, iterator = work[-1]
            advanced = False
            for successor in iterator:
                if successor not in edges:
                    continue
                if successor not in indices:
                    indices[successor] = lowlink[successor] = next(index_counter)
                    stack.append(successor)
                    on_stack.add(successor)
                    work.append((successor, iter(list(edges.get(successor, ())))))
                    advanced = True
                    break
                if successor in on_stack:
                    lowlink[node] = min(lowlink[node], indices[successor])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == indices[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                result.append(component)
    return result
