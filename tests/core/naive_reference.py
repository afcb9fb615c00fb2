"""Reference implementations retained from the pre-worklist core (the seed).

These are the algorithms the worklist rewrite replaced, kept verbatim (modulo
defensive ``list(...)`` snapshots around the now-live adjacency lists) as
executable oracles:

* :func:`naive_saturate` -- the original Gauss-Seidel saturation: re-scan
  every node and edge until a whole round runs without change.  The worklist
  saturation must add exactly the same shortcut edges
  (``tests/core/test_worklist_equivalence.py`` property-tests this).
* :func:`naive_simplify_constraints` -- the original per-source recursive DFS
  over elementary paths with a global path budget.  The memoized state
  traversal must derive a superset: everything the DFS found, plus judgements
  the DFS's per-path node-visited set or budget truncation missed (each of
  which must itself be derivable).

They are also what the perf-smoke benchmark measures the new core against, so
the "2x faster than the seed" gate compares both implementations on the same
machine in the same process.

Two more references keep the construction paths the integer encoding
replaced:

* :class:`NaiveShapeInference` / :func:`naive_infer_shapes` -- INFERSHAPES
  over :class:`~repro.core.variables.DerivedTypeVariable` objects: every
  constraint endpoint walks its labels from the base cell, edges are keyed
  by :class:`~repro.core.labels.Label`.  The encoded quotient must be the
  same cell for cell (``tests/core/test_encoding_equivalence.py``).
* :func:`naive_constant_bounds` -- the Appendix D.4 bound queries keyed on
  materialized variables; the int-level canonical keys must produce the
  same list in the same order.
* :func:`naive_reaching_definitions` -- the instruction-level reaching
  definitions fixpoint, one environment per instruction.  The per-block
  analysis must answer every ``reaching(i, loc)`` query the same
  (``tests/ir/test_reaching_blocks.py``).

The per-procedure IR pass (successors and blocks once, block-level stack
states, each instruction's defs and uses recorded once) and the per-cell
scheme and bound work replaced these; ``tests/ir/test_procedure_pass.py``
and ``tests/core/test_scheme_placement_equivalence.py`` hold the new code to
them:

* :func:`naive_analyze_stack` / :func:`naive_transfer` -- the
  instruction-level stack-pointer worklist, one state per instruction;
* :func:`naive_definitions_of` / :func:`naive_uses_of` -- defs and uses
  re-derived from ``register_defs``/``register_uses`` on every query, and
  :func:`naive_discover_interface` reading them;
* :func:`naive_scheme_from_shapes` -- scheme serialization that re-reads a
  class's decoded capabilities in every pass and recomputes each child
  path's variance;
* :func:`naive_cell_at` -- one bound's label word walked from its
  variable's cell, with no memo.

The one walk per distinct body (:func:`repro.ir.dataflow.analyze_body`)
then replaced that per-procedure pass; it survives here too, and the same
two test files hold the walk's record to it:

* :func:`flow_blocks` / :func:`block_stack_states` /
  :func:`block_reaching_definitions` -- a successor map per instruction,
  split into straight-line blocks, stack states per block, defs and uses per
  instruction, and reaching definitions per block answered by ``bisect``;
* :func:`block_discover_interface` -- interface discovery as a second walk,
  querying ``reaching`` for every use.

Constraint generation now writes straight into per-procedure integer
tables, and each SCC's encoding merges them;
``tests/core/test_table_equivalence.py`` holds both to the object-level code
they replaced:

* :class:`NaiveConstraintGenerator` / :func:`naive_generate_program_constraints`
  -- one :class:`~repro.core.variables.DerivedTypeVariable` per definition
  site and use, constraints added to a ``ConstraintSet``;
* :class:`NaiveSccEncoding` -- the encoding re-collected from a constraint
  set: every mentioned variable, prefix-closed, sorted by ``str``.

The ``Node``/``Edge`` object view of a constraint graph lives here too
(:class:`GraphView`): the graph itself is ints only, and the seed
algorithms and the graph tests read it through these decoded objects.

Last, :class:`DeductionEngine` (and :func:`entails`) close a constraint set
under the deduction rules of Figure 3, bounded by label depth: the rules as
written in the paper, which ``tests/core/test_simplify_and_deduction.py``
holds :func:`repro.core.simplify.proves` to.
"""

import enum
import itertools
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.constraints import AddConstraint, ConstraintSet, SubConstraint, SubtypeConstraint
from repro.core.intern import InternPool
from repro.core.graph import K_FORGET, K_ORIGINAL, K_RECALL, K_SATURATION, ConstraintGraph
from repro.core.labels import (
    LOAD,
    STORE,
    FieldLabel,
    InLabel,
    Label,
    OutLabel,
    Variance,
    path_variance,
)
from repro.core.lattice import BOTTOM, TOP, TypeLattice
from repro.core.saturation import saturate
from repro.core.schemes import TypeScheme
from repro.core.shapes import ShapeInference
from repro.core.simplify import _decode_word
from repro.core.solver import Callsite, ProcedureTypingInput, tarjan_sccs
from repro.core.variables import DerivedTypeVariable
from repro.ir.callgraph import CallGraph
from repro.ir.cfg import successors
from repro.ir.dataflow import (
    _FACTS,
    _TRACKED_REGISTERS,
    ENTRY,
    REGISTER_PARAM_CANDIDATES,
    Location,
)
from repro.ir.instructions import (
    WORD_SIZE,
    BinaryOp,
    Call,
    Compare,
    Imm,
    Instruction,
    Lea,
    Leave,
    Mem,
    Mov,
    Pop,
    Push,
    Reg,
    Ret,
    Operand,
    is_zeroing_idiom,
)
from repro.ir.locators import ProcedureInterface
from repro.ir.program import Procedure, Program
from repro.ir.stackanalysis import (
    _TRANSFERS,
    ENTRY_STATE,
    UNKNOWN,
    StackState,
    argument_location,
    frame_offset,
    is_argument_offset,
)
from repro.typegen.abstract_interp import CalleeInfo
from repro.typegen.externs import ExternSignature, standard_externs


# ---------------------------------------------------------------------------
# The Node/Edge object view of a constraint graph
# ---------------------------------------------------------------------------
#
# The graph itself is ints only; the seed algorithms below walk objects.
# :class:`GraphView` decodes the graph's int records into them on demand.


@dataclass(frozen=True, order=True)
class Node:
    """A derived type variable tagged with the current variance of its context."""

    dtv: DerivedTypeVariable
    variance: Variance

    def __str__(self) -> str:
        tag = "+" if self.variance is Variance.COVARIANT else "-"
        return f"{self.dtv}.{tag}"


class EdgeKind(enum.Enum):
    ORIGINAL = "original"      # a constraint axiom (an empty stack operation)
    FORGET = "forget"          # push the final label onto the pending stack
    RECALL = "recall"          # pop a pending label / extend the source variable
    SATURATION = "saturation"  # shortcut added by Algorithm D.2


#: graph int edge kind -> EdgeKind, and back.
KIND_OBJS = {
    K_ORIGINAL: EdgeKind.ORIGINAL,
    K_SATURATION: EdgeKind.SATURATION,
    K_FORGET: EdgeKind.FORGET,
    K_RECALL: EdgeKind.RECALL,
}
KIND_IDS = {kind: ident for ident, kind in KIND_OBJS.items()}


@dataclass(frozen=True, order=True)
class Edge:
    source: Node
    target: Node
    kind: EdgeKind
    label: Optional[Label] = None

    @property
    def is_null(self) -> bool:
        """True for edges that do not touch the pending label stack."""
        return self.kind in (EdgeKind.ORIGINAL, EdgeKind.SATURATION)


class GraphView:
    """Decoded :class:`Node`/:class:`Edge` objects over a graph's int records
    (cached per node id; :meth:`add_edge` keeps the caches coherent)."""

    def __init__(self, graph: ConstraintGraph) -> None:
        self.graph = graph
        self._nodes: Dict[int, Node] = {}
        self._out: Dict[int, List[Edge]] = {}

    def node(self, nid: int) -> Node:
        node = self._nodes.get(nid)
        if node is None:
            variance = Variance.CONTRAVARIANT if nid & 1 else Variance.COVARIANT
            node = self._nodes[nid] = Node(self.graph.encoding.dtv(nid >> 1), variance)
        return node

    def nid(self, node: Node) -> Optional[int]:
        return self.graph.node_id(node.dtv, node.variance)

    def _edge(self, src: int, tgt: int, kind: int, lidp: int) -> Edge:
        label = None if lidp == 0 else self.graph._labels.items[lidp - 1]
        return Edge(self.node(src), self.node(tgt), KIND_OBJS[kind], label)

    @property
    def nodes(self) -> Set[Node]:
        return {self.node(nid) for nid in range(self.graph.num_nodes)}

    def edges(self) -> List[Edge]:
        """All edges in insertion order."""
        return [self._edge(*record) for record in self.graph._edge_list]

    def out_edges(self, node: Node) -> List[Edge]:
        nid = self.nid(node)
        if nid is None:
            return []
        edges = self._out.get(nid)
        if edges is None:
            edges = self._out[nid] = [
                self._edge(nid, tgt, kind, lidp) for kind, lidp, tgt in self.graph.out_records(nid)
            ]
        return edges

    def in_edges(self, node: Node) -> List[Edge]:
        nid = self.nid(node)
        return [self._edge(*record) for record in self.graph._edge_list if record[1] == nid]

    def null_out_edges(self, node: Node) -> List[Edge]:
        return [edge for edge in self.out_edges(node) if edge.is_null]

    def has_edge(
        self,
        source: Node,
        target: Node,
        kind: Optional[EdgeKind] = None,
        label: Optional[Label] = None,
    ) -> bool:
        return any(
            edge.target == target
            and (kind is None or edge.kind is kind)
            and (label is None or edge.label == label)
            for edge in self.out_edges(source)
        )

    def add_edge(self, edge: Edge) -> bool:
        """Add an edge between existing nodes; True if it was new."""
        if self.has_edge(edge.source, edge.target, edge.kind, edge.label):
            return False
        lidp = 0 if edge.label is None else self.graph._labels.ids[edge.label] + 1
        src = self.nid(edge.source)
        self._out.pop(src, None)
        return self.graph._add_edge_ids(src, self.nid(edge.target), KIND_IDS[edge.kind], lidp)


def naive_saturate(graph: ConstraintGraph, max_iterations: int = 10_000) -> int:
    """The seed's saturation: full re-scan Gauss-Seidel fixpoint."""
    graph = GraphView(graph)
    reaching: Dict[Node, Set[Tuple[Label, Node]]] = {node: set() for node in graph.nodes}

    # Seed from forget edges.
    for edge in list(graph.edges()):
        if edge.kind is EdgeKind.FORGET and edge.label is not None:
            reaching[edge.target].add((edge.label, edge.source))

    added = 0
    changed = True
    iterations = 0
    while changed:
        iterations += 1
        if iterations > max_iterations:  # pragma: no cover - defensive guard
            raise RuntimeError("saturation did not converge")
        changed = False

        # Propagate reaching-forget sets along null edges.
        for node in list(graph.nodes):
            for edge in list(graph.out_edges(node)):
                if not edge.is_null:
                    continue
                target_set = reaching.setdefault(edge.target, set())
                source_set = reaching.setdefault(node, set())
                before = len(target_set)
                target_set |= source_set
                if len(target_set) != before:
                    changed = True

        # Lazy S-POINTER: swap pending store/load between the contravariant node
        # and its covariant twin.
        for node in list(graph.nodes):
            if node.variance is not Variance.CONTRAVARIANT:
                continue
            twin = Node(node.dtv, Variance.COVARIANT)
            twin_set = reaching.setdefault(twin, set())
            for label, origin in list(reaching.get(node, ())):
                swapped = None
                if label == STORE:
                    swapped = LOAD
                elif label == LOAD:
                    swapped = STORE
                if swapped is None:
                    continue
                entry = (swapped, origin)
                if entry not in twin_set:
                    twin_set.add(entry)
                    changed = True

        # Discharge pending forgets at recall edges by adding shortcut edges.
        for node in list(graph.nodes):
            for edge in list(graph.out_edges(node)):
                if edge.kind is not EdgeKind.RECALL or edge.label is None:
                    continue
                for label, origin in list(reaching.get(node, ())):
                    if label != edge.label:
                        continue
                    new_edge = Edge(origin, edge.target, EdgeKind.SATURATION)
                    if graph.add_edge(new_edge):
                        reaching.setdefault(edge.target, set())
                        added += 1
                        changed = True
    return added


@dataclass(frozen=True)
class _PathState:
    """One point of a walk: current node, labels appended to the source
    (``alpha``) and the pending stack of forgotten labels (``beta``).

    The single-step semantics (:func:`_step`) of the per-path DFS below.
    """

    node: Node
    alpha: Tuple[Label, ...]
    beta: Tuple[Label, ...]


def _step(state: _PathState, edge: Edge) -> Optional[_PathState]:
    """Apply one edge to the bookkeeping state; ``None`` when the path is invalid."""
    if edge.is_null:
        return _PathState(edge.target, state.alpha, state.beta)
    if edge.kind is EdgeKind.FORGET:
        return _PathState(edge.target, state.alpha, state.beta + (edge.label,))
    # Recall edge.
    if state.beta:
        if state.beta[-1] != edge.label:
            return None
        return _PathState(edge.target, state.alpha, state.beta[:-1])
    return _PathState(edge.target, state.alpha + (edge.label,), state.beta)


def _constraint_from_state(
    source: Node, state: _PathState
) -> Optional[SubtypeConstraint]:
    """Read the subtype judgement witnessed by a finished path."""
    lhs = source.dtv.with_labels(state.alpha)
    rhs = state.node.dtv.with_labels(tuple(reversed(state.beta)))
    orientation = source.variance * path_variance(state.alpha)
    if orientation is Variance.COVARIANT:
        constraint = SubtypeConstraint(lhs, rhs)
    else:
        constraint = SubtypeConstraint(rhs, lhs)
    if constraint.left == constraint.right:
        return None
    return constraint


def naive_simplify_constraints(
    constraints: ConstraintSet,
    interesting: Iterable[str],
    graph: Optional[ConstraintGraph] = None,
    max_label_depth: int = 6,
    max_paths: int = 200_000,
) -> ConstraintSet:
    """The seed's simplification: per-source recursive elementary-path DFS."""
    interesting_bases = set(interesting)
    if graph is None:
        graph = ConstraintGraph(constraints)
        saturate(graph)
    graph = GraphView(graph)

    output = ConstraintSet()
    start_nodes = [
        node
        for node in sorted(graph.nodes, key=str)
        if node.dtv.base in interesting_bases
    ]

    budget = [max_paths]

    def explore(source: Node, state: _PathState, visited: Set[Node]) -> None:
        if budget[0] <= 0:
            return
        for edge in list(graph.out_edges(state.node)):
            next_state = _step(state, edge)
            if next_state is None:
                continue
            if len(next_state.alpha) > max_label_depth:
                continue
            if len(next_state.beta) > max_label_depth:
                continue
            target = next_state.node
            if target.dtv.base in interesting_bases:
                budget[0] -= 1
                constraint = _constraint_from_state(source, next_state)
                if constraint is not None:
                    output.add(constraint)
                continue  # elementary proofs stop at interesting variables
            if target in visited:
                continue
            visited.add(target)
            explore(source, next_state, visited)
            visited.discard(target)

    for source in start_nodes:
        initial = _PathState(source, (), ())
        explore(source, initial, {source})

    return output


class NaiveShapeInference:
    """The per-variable INFERSHAPES construction (Label-keyed edges, a label
    walk from the base cell for every constraint endpoint)."""

    def __init__(self, lattice: TypeLattice) -> None:
        self.lattice = lattice
        self._parent: List[int] = []
        self._rank: List[int] = []
        self._edges: Dict[int, Dict[Label, int]] = {}
        self._lower: Dict[int, str] = {}
        self._upper: Dict[int, str] = {}
        self._base_cells: Dict[str, int] = {}
        self._int_mark: Set[int] = set()
        self._ptr_mark: Set[int] = set()
        #: pairs of type constants (lower, upper) that must satisfy lower <: upper
        self.scalar_checks: List[Tuple[str, str]] = []

    # -- union-find --------------------------------------------------------------

    def _new_cell(self) -> int:
        ident = len(self._parent)
        self._parent.append(ident)
        self._rank.append(0)
        self._edges[ident] = {}
        self._lower[ident] = BOTTOM
        self._upper[ident] = TOP
        return ident

    def find(self, cell: int) -> int:
        root = cell
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[cell] != root:
            self._parent[cell], cell = root, self._parent[cell]
        return root

    def union(self, a: int, b: int) -> int:
        """Union with downward congruence closure (including load/store identification)."""
        worklist = [(a, b)]
        while worklist:
            x, y = worklist.pop()
            rx, ry = self.find(x), self.find(y)
            if rx == ry:
                continue
            if self._rank[rx] < self._rank[ry]:
                rx, ry = ry, rx
            if self._rank[rx] == self._rank[ry]:
                self._rank[rx] += 1
            self._parent[ry] = rx
            # merge bounds and marks
            self._lower[rx] = self.lattice.join(self._lower[rx], self._lower[ry])
            self._upper[rx] = self.lattice.meet(self._upper[rx], self._upper[ry])
            if ry in self._int_mark:
                self._int_mark.add(rx)
            if ry in self._ptr_mark:
                self._ptr_mark.add(rx)
            # merge outgoing edges, scheduling congruent unifications
            edges_x = self._edges[rx]
            for label, target in self._edges.pop(ry).items():
                if label in edges_x:
                    worklist.append((edges_x[label], target))
                else:
                    edges_x[label] = target
            # S-POINTER: load and store children of one class coincide
            if LOAD in edges_x and STORE in edges_x:
                worklist.append((edges_x[LOAD], edges_x[STORE]))
        return self.find(a)

    # -- derived type variables ----------------------------------------------------

    def is_constant(self, dtv: DerivedTypeVariable) -> bool:
        return dtv.is_base and self.lattice.is_constant(dtv.base)

    def cell_for(self, dtv: DerivedTypeVariable) -> Optional[int]:
        """Cell representing ``dtv``, creating intermediate cells as needed.

        Returns ``None`` for type constants, which live in the lattice rather
        than the shape graph.
        """
        if self.is_constant(dtv):
            return None
        if dtv.base not in self._base_cells:
            self._base_cells[dtv.base] = self._new_cell()
        cell = self.find(self._base_cells[dtv.base])
        for label in dtv.labels:
            edges = self._edges[cell]
            if label not in edges:
                edges[label] = self._new_cell()
            cell = self.find(edges[label])
        return cell

    def lookup(self, dtv: DerivedTypeVariable) -> Optional[int]:
        """Like :meth:`cell_for` but without creating missing cells."""
        if self.is_constant(dtv) or dtv.base not in self._base_cells:
            return None
        cell = self.find(self._base_cells[dtv.base])
        for label in dtv.labels:
            target = self._edges[cell].get(label)
            if target is None:
                # Respect the load/store identification when looking up.
                alt = STORE if label == LOAD else LOAD if label == STORE else None
                if alt is not None:
                    target = self._edges[cell].get(alt)
                if target is None:
                    return None
            cell = self.find(target)
        return cell

    # -- constraint processing --------------------------------------------------------

    def add_constraints(self, constraints: ConstraintSet) -> None:
        for constraint in constraints:
            self.add_subtype(constraint.left, constraint.right)
        self._close_pointer_children()
        self._apply_additive(constraints)

    def add_subtype(self, left: DerivedTypeVariable, right: DerivedTypeVariable) -> None:
        left_const = self.is_constant(left)
        right_const = self.is_constant(right)
        if left_const and right_const:
            self.scalar_checks.append((left.base, right.base))
            return
        if left_const:
            cell = self.cell_for(right)
            assert cell is not None
            self.apply_lower(cell, left.base)
            return
        if right_const:
            cell = self.cell_for(left)
            assert cell is not None
            self.apply_upper(cell, right.base)
            return
        a = self.cell_for(left)
        b = self.cell_for(right)
        assert a is not None and b is not None
        self.union(a, b)

    def _close_pointer_children(self) -> None:
        """Fixpoint pass unifying load/store children created before any union."""
        changed = True
        while changed:
            changed = False
            for cell in list(self._edges):
                if self.find(cell) != cell:
                    continue
                edges = self._edges[cell]
                if LOAD in edges and STORE in edges:
                    a, b = self.find(edges[LOAD]), self.find(edges[STORE])
                    if a != b:
                        self.union(a, b)
                        changed = True

    # -- lattice bounds ------------------------------------------------------------------

    def apply_lower(self, cell: int, element: str) -> None:
        rep = self.find(cell)
        self._lower[rep] = self.lattice.join(self._lower[rep], element)

    def apply_upper(self, cell: int, element: str) -> None:
        rep = self.find(cell)
        self._upper[rep] = self.lattice.meet(self._upper[rep], element)

    def bounds(self, cell: int) -> Tuple[str, str]:
        rep = self.find(cell)
        return self._lower[rep], self._upper[rep]

    def clear_bounds(self) -> None:
        """Reset all per-class bounds (used before a direction-aware recomputation)."""
        for rep in self._lower:
            self._lower[rep] = BOTTOM
            self._upper[rep] = TOP

    # -- ADD / SUB constraints (Figure 13) ----------------------------------------------------

    def mark_pointer(self, cell: int) -> None:
        self._ptr_mark.add(self.find(cell))

    def mark_integer(self, cell: int) -> None:
        self._int_mark.add(self.find(cell))

    def is_pointer(self, cell: int) -> bool:
        rep = self.find(cell)
        if rep in self._ptr_mark:
            return True
        edges = self._edges[rep]
        if LOAD in edges or STORE in edges:
            return True
        lower, upper = self._lower[rep], self._upper[rep]
        return self.lattice.leq("ptr", upper) and upper != TOP or lower == "ptr"

    def is_integer(self, cell: int) -> bool:
        rep = self.find(cell)
        if rep in self._int_mark:
            return True
        if self.is_pointer(rep):
            return False
        lower, upper = self._lower[rep], self._upper[rep]
        for bound in (lower, upper):
            if bound in (TOP, BOTTOM):
                continue
            if self.lattice.leq(bound, "num64") or self.lattice.leq("num64", bound):
                return True
        return False

    def _apply_additive(self, constraints: ConstraintSet) -> None:
        """Iterate the inference rules for ADD/SUB constraints (Figure 13)."""
        # Sorted, not set order: unions reparent by call order, and the
        # per-process hash seed must not leak into the quotient's shape.
        additive = sorted(constraints.additive, key=str)
        if not additive:
            return
        changed = True
        while changed:
            changed = False
            for constraint in additive:
                cells = [
                    self.cell_for(constraint.left),
                    self.cell_for(constraint.right),
                    self.cell_for(constraint.result),
                ]
                if any(c is None for c in cells):
                    continue
                x, y, z = cells
                is_add = isinstance(constraint, AddConstraint)
                changed |= self._additive_step(x, y, z, is_add)

    def _additive_step(self, x: int, y: int, z: int, is_add: bool) -> bool:
        """One application of the Figure 13 table; returns True if a mark was added.

        In addition to the pointer/integer marks of Figure 13, pointer
        arithmetic with an integer operand identifies the result with the
        pointer operand: ``p + i`` points into the same object as ``p``.  This
        is what lets array indexing (``values[i]``) attribute its loads and
        stores back to the array parameter.
        """
        before = (len(self._int_mark), len(self._ptr_mark))
        xi, yi, zi = self.is_integer(x), self.is_integer(y), self.is_integer(z)
        xp, yp, zp = self.is_pointer(x), self.is_pointer(y), self.is_pointer(z)
        unified = False
        if is_add:
            if xp and not yp and self.find(x) != self.find(z):
                self.union(x, z)
                unified = True
            elif yp and not xp and self.find(y) != self.find(z):
                self.union(y, z)
                unified = True
            elif zp and xi and not yp and self.find(y) != self.find(z):
                self.union(y, z)
                unified = True
            elif zp and yi and not xp and self.find(x) != self.find(z):
                self.union(x, z)
                unified = True
        else:
            if xp and not yp and self.find(x) != self.find(z):
                self.union(x, z)
                unified = True
            elif zp and not yp and self.find(x) != self.find(z):
                self.union(x, z)
                unified = True
        if unified:
            x, y, z = self.find(x), self.find(y), self.find(z)
        if is_add:
            if xi and yi:
                self.mark_integer(z)
            if xp:
                self.mark_integer(y)
                self.mark_pointer(z)
            if yp:
                self.mark_integer(x)
                self.mark_pointer(z)
            if zp and xi:
                self.mark_pointer(y)
            if zp and yi:
                self.mark_pointer(x)
            if zi:
                if xp:
                    pass  # inconsistent; leave for the union policy
                else:
                    if not (xp or yp):
                        self.mark_integer(x)
                        self.mark_integer(y)
        else:
            # SUB(X, Y; Z): Z = X - Y
            if xi and yi:
                self.mark_integer(z)
            if xp and yi:
                self.mark_pointer(z)
            if xp and yp:
                self.mark_integer(z)
            if xi:
                self.mark_integer(y)
                self.mark_integer(z)
            if zp:
                self.mark_pointer(x)
                self.mark_integer(y)
        after = (len(self._int_mark), len(self._ptr_mark))
        return unified or after != before


def naive_infer_shapes(constraints: ConstraintSet, lattice: TypeLattice) -> NaiveShapeInference:
    """INFERSHAPES over variable objects, in sorted-by-``str`` constraint order."""
    shapes = NaiveShapeInference(lattice)
    shapes.add_constraints(constraints)
    return shapes


def naive_constant_bounds(
    graph: ConstraintGraph,
    lattice: TypeLattice,
    max_pending: int = 6,
    max_states: int = 100_000,
) -> List[Tuple[DerivedTypeVariable, str, str]]:
    """The Appendix D.4 bound queries, deduplicated on materialized variables:
    every state's read-back :class:`DerivedTypeVariable` is built and used as
    the dedupe key."""
    results: List[Tuple[DerivedTypeVariable, str, str]] = []
    seen_results: Set[Tuple[DerivedTypeVariable, str, str]] = set()

    dtvs = [graph.encoding.dtv(did) for did in range(len(graph._names))]
    labels = graph._labels.items
    out_recs = graph._out_recs
    num_dtvs = len(dtvs)
    num_nodes = 2 * num_dtvs
    lp_base = len(labels) + 1
    is_constant = lattice.is_constant

    constant_dids = [
        did
        for did, dtv in enumerate(dtvs)
        if dtv.is_base and is_constant(dtv.base)
    ]

    #: shared decode memos: packed beta -> reversed label word, and
    #: ``beta * num_dtvs + did`` -> the derived variable it reads back as.
    word_cache: Dict[int, Tuple[Label, ...]] = {0: ()}
    dtv_cache: Dict[int, DerivedTypeVariable] = {}

    for did in constant_dids:
        for bit in (0, 1):
            start = did * 2 + bit
            kind = "lower" if bit == 0 else "upper"
            constant = dtvs[did].base
            visited: Set[int] = set()
            stack: List[Tuple[int, int, int]] = [(start, 0, 0)]
            states = 0
            while stack and states < max_states:
                nid, beta, beta_len = stack.pop()
                state = beta * num_nodes + nid
                if state in visited:
                    continue
                visited.add(state)
                states += 1
                for edge_kind, lidp, target in out_recs[nid]:
                    if edge_kind == K_FORGET:
                        if beta_len >= max_pending:
                            continue
                        new_beta = beta * lp_base + lidp
                        new_blen = beta_len + 1
                    elif edge_kind == K_RECALL:
                        # Constants have no capabilities of their own.
                        if not beta or beta % lp_base != lidp:
                            continue
                        new_beta = beta // lp_base
                        new_blen = beta_len - 1
                    else:
                        new_beta = beta
                        new_blen = beta_len
                    dtv_key = new_beta * num_dtvs + (target >> 1)
                    dtv = dtv_cache.get(dtv_key)
                    if dtv is None:
                        word = word_cache.get(new_beta)
                        if word is None:
                            word = _decode_word(new_beta, lp_base, labels)
                            word_cache[new_beta] = word
                        dtv = dtvs[target >> 1].with_labels(word)
                        dtv_cache[dtv_key] = dtv
                    if not (dtv.is_base and is_constant(dtv.base)):
                        entry = (dtv, kind, constant)
                        if entry not in seen_results:
                            seen_results.add(entry)
                            results.append(entry)
                    if new_beta * num_nodes + target not in visited:
                        stack.append((target, new_beta, new_blen))
    return results


def naive_reaching_definitions(
    procedure: Procedure,
) -> Tuple[Dict[int, StackState], Dict[int, Dict[Location, FrozenSet[int]]]]:
    """Instruction-level reaching definitions: ``(stack_states, before)``,
    where ``before[i]`` maps each location to its definition sites before
    instruction ``i`` (missing: only ``ENTRY``; unreached ``i``: absent)."""
    stack_states = naive_analyze_stack(procedure)
    succ_map = successors(procedure)
    count = len(procedure.instructions)

    before: Dict[int, Dict[Location, FrozenSet[int]]] = {}
    if count == 0:
        return stack_states, before

    entry_env: Dict[Location, FrozenSet[int]] = {}
    before[0] = entry_env

    worklist: List[int] = [0]
    while worklist:
        index = worklist.pop()
        env = before.get(index, {})
        state = stack_states.get(index, StackState(None, None))
        instruction = procedure.instructions[index]
        out_env = dict(env)
        for location in naive_definitions_of(instruction, index, state):
            out_env[location] = frozenset({index})
        for succ in succ_map.get(index, []):
            existing = before.get(succ)
            merged = _naive_merge(existing, out_env)
            if existing is None or merged != existing:
                before[succ] = merged
                worklist.append(succ)
    return stack_states, before


def naive_reaching(
    before: Dict[int, Dict[Location, FrozenSet[int]]], index: int, location: Location
) -> FrozenSet[int]:
    return before.get(index, {}).get(location, frozenset({ENTRY}))


def _naive_merge(
    existing: Optional[Dict[Location, FrozenSet[int]]],
    incoming: Dict[Location, FrozenSet[int]],
) -> Dict[Location, FrozenSet[int]]:
    if existing is None:
        return dict(incoming)
    merged = dict(existing)
    for location, defs in incoming.items():
        merged[location] = merged.get(location, frozenset()) | defs
    for location in existing:
        if location not in incoming:
            merged[location] = merged[location] | frozenset({ENTRY})
    for location in incoming:
        if location not in existing:
            merged[location] = merged[location] | frozenset({ENTRY})
    return merged


# ---------------------------------------------------------------------------
# The instruction-level stack analysis and per-query defs/uses
# ---------------------------------------------------------------------------


def naive_analyze_stack(procedure: Procedure) -> Dict[int, StackState]:
    """State *before* each instruction index: one worklist entry per instruction."""
    succ_map = successors(procedure)
    states: Dict[int, StackState] = {}
    if not procedure.instructions:
        return states
    worklist: List[int] = [0]
    states[0] = StackState(esp=0, ebp=None)
    while worklist:
        index = worklist.pop()
        state = states[index]
        after = naive_transfer(procedure.instructions[index], state)
        for succ in succ_map.get(index, []):
            merged = after if succ not in states else states[succ].merge(after)
            if succ not in states or merged != states[succ]:
                states[succ] = merged
                worklist.append(succ)
    return states


def naive_transfer(instruction: Instruction, state: StackState) -> StackState:
    esp, ebp = state.esp, state.ebp
    if isinstance(instruction, Push):
        esp = esp - WORD_SIZE if esp is not None else None
    elif isinstance(instruction, Pop):
        if instruction.dst.name == "ebp":
            ebp = None
        if instruction.dst.name == "esp":
            esp = None
        else:
            esp = esp + WORD_SIZE if esp is not None else None
    elif isinstance(instruction, Leave):
        esp = ebp + WORD_SIZE if ebp is not None else None
        ebp = None
    elif isinstance(instruction, Mov):
        if isinstance(instruction.dst, Reg) and instruction.dst.name == "ebp":
            if isinstance(instruction.src, Reg) and instruction.src.name == "esp":
                ebp = esp
            else:
                ebp = None
        elif isinstance(instruction.dst, Reg) and instruction.dst.name == "esp":
            if isinstance(instruction.src, Reg) and instruction.src.name == "ebp":
                esp = ebp
            else:
                esp = None
    elif isinstance(instruction, BinaryOp) and instruction.dst.name == "esp":
        if isinstance(instruction.src, Imm) and esp is not None:
            if instruction.op == "add":
                esp = esp + instruction.src.value
            elif instruction.op == "sub":
                esp = esp - instruction.src.value
            else:
                esp = None
        else:
            esp = None
    elif isinstance(instruction, BinaryOp) and instruction.dst.name == "ebp":
        ebp = None
    elif isinstance(instruction, Call):
        pass  # net esp change of a cdecl call is zero from the caller's view
    return StackState(esp, ebp)


def naive_definitions_of(
    instruction: Instruction, index: int, state: StackState
) -> Set[Location]:
    """Locations written by an instruction."""
    defs: Set[Location] = set()
    for register in instruction.register_defs():
        if register in _TRACKED_REGISTERS:
            defs.add(register)
    if isinstance(instruction, Mov) and isinstance(instruction.dst, Mem):
        offset = frame_offset(instruction.dst, state)
        if offset is not None:
            defs.add(offset)
    if isinstance(instruction, Push):
        if state.esp is not None:
            defs.add(state.esp - WORD_SIZE)
    return defs


def naive_uses_of(
    instruction: Instruction, index: int, state: StackState
) -> Set[Location]:
    """Locations read by an instruction (registers and stack slots)."""
    uses: Set[Location] = set()
    for register in instruction.register_uses():
        if register in _TRACKED_REGISTERS:
            uses.add(register)
    for operand in _memory_operands_read(instruction):
        offset = frame_offset(operand, state)
        if offset is not None:
            uses.add(offset)
    return uses


def _memory_operands_read(instruction: Instruction) -> List[Mem]:
    read: List[Mem] = []
    if isinstance(instruction, Mov) and isinstance(instruction.src, Mem):
        read.append(instruction.src)
    if isinstance(instruction, Push) and isinstance(instruction.src, Mem):
        read.append(instruction.src)
    if isinstance(instruction, BinaryOp) and isinstance(instruction.src, Mem):
        read.append(instruction.src)
    if isinstance(instruction, Compare):
        for operand in (instruction.left, instruction.right):
            if isinstance(operand, Mem):
                read.append(operand)
    return read


def naive_discover_interface(procedure: Procedure) -> ProcedureInterface:
    """Interface discovery over the instruction-level analyses, re-deriving
    each instruction's uses from its stack state."""
    stack_states, before = naive_reaching_definitions(procedure)
    unknown = StackState(None, None)
    stack_args: Set[int] = set()
    register_args: Set[str] = set()
    has_return = False
    for index, instruction in enumerate(procedure.instructions):
        state = stack_states.get(index, unknown)
        for location in naive_uses_of(instruction, index, state):
            if ENTRY not in naive_reaching(before, index, location):
                continue
            if isinstance(location, int):
                if location >= WORD_SIZE:
                    stack_args.add(location)
            elif location in REGISTER_PARAM_CANDIDATES:
                if not isinstance(instruction, Push):
                    register_args.add(location)
        if isinstance(instruction, Ret):
            if any(definition != ENTRY for definition in naive_reaching(before, index, "eax")):
                has_return = True
    return ProcedureInterface(
        name=procedure.name,
        stack_args=tuple(sorted(stack_args)),
        register_args=tuple(sorted(register_args)),
        has_return=has_return,
    )


# ---------------------------------------------------------------------------
# The per-block IR pass the body walk replaced
# ---------------------------------------------------------------------------


def flow_blocks(succ_map: Dict[int, List[int]], count: int) -> List[int]:
    """Start indices of the straight-line blocks of ``count`` instructions.

    An instruction continues its predecessor's block exactly when it is that
    instruction's only successor and has no other predecessor.
    """
    if count == 0:
        return []
    pred_count = [0] * count
    for succs in succ_map.values():
        for succ in succs:
            pred_count[succ] += 1
    starts = [0]
    for index in range(1, count):
        if pred_count[index] != 1 or succ_map[index - 1] != [index]:
            starts.append(index)
    return starts


def block_stack_states(
    instructions: List[Instruction], succ_map: Dict[int, List[int]], starts: List[int]
) -> List[Optional[StackState]]:
    """State before each instruction (``None`` where no path reaches it),
    with a state kept only at each block's entry."""
    count = len(instructions)
    states: List[Optional[StackState]] = [None] * count
    if not count:
        return states
    ends = starts[1:] + [count]
    block_at = {start: block for block, start in enumerate(starts)}
    entry: List[Optional[StackState]] = [None] * len(starts)
    entry[0] = ENTRY_STATE
    worklist = [0]
    while worklist:
        block = worklist.pop()
        state = entry[block]
        for index in range(starts[block], ends[block]):
            states[index] = state
            instruction = instructions[index]
            step = _TRANSFERS.get(type(instruction))
            if step is not None:
                state = step(instruction, state)
        for succ in succ_map[ends[block] - 1]:
            target = block_at[succ]
            existing = entry[target]
            merged = state if existing is None else existing.merge(state)
            if merged != existing:
                entry[target] = merged
                worklist.append(target)
    return states


@dataclass
class BlockReachingDefinitions:
    """The replaced pass's result: per-instruction states, defs and uses,
    and reaching definitions kept per basic block."""

    procedure: Procedure
    states: List[StackState]
    defs: List[Sequence[Location]]
    uses: List[Sequence[Location]]
    #: per instruction index: its block's number, or -1 when unreachable.
    block_of: List[int]
    entry: List[Optional[Dict[Location, FrozenSet[int]]]]
    local: List[Optional[Dict[Location, List[int]]]]

    def reaching(self, index: int, location: Location) -> FrozenSet[int]:
        block = self.block_of[index] if 0 <= index < len(self.block_of) else -1
        if block < 0:
            return frozenset({ENTRY})
        sites = self.local[block].get(location)
        if sites:
            position = bisect_left(sites, index)
            if position:
                return frozenset((sites[position - 1],))
        return self.entry[block].get(location, frozenset({ENTRY}))

    def state(self, index: int) -> StackState:
        return self.states[index] if 0 <= index < len(self.states) else UNKNOWN

    @property
    def stack_states(self) -> Dict[int, StackState]:
        return {index: self.states[index] for index, block in enumerate(self.block_of) if block >= 0}


def block_reaching_definitions(procedure: Procedure) -> BlockReachingDefinitions:
    """Successor map, flow blocks, block stack states, per-instruction defs
    and uses, then the reaching-definitions fixpoint one block at a time."""
    instructions = procedure.instructions
    count = len(instructions)
    if count == 0:
        return BlockReachingDefinitions(procedure, [], [], [], [], [], [])
    succ_map = successors(procedure)
    starts = flow_blocks(succ_map, count)
    reached = block_stack_states(instructions, succ_map, starts)
    states: List[StackState] = []
    defs: List[Sequence[Location]] = []
    uses: List[Sequence[Location]] = []
    for instruction, state in zip(instructions, reached):
        state = UNKNOWN if state is None else state
        states.append(state)
        facts = _FACTS.get(type(instruction))
        written, read = facts(instruction, state) if facts is not None else ((), ())
        defs.append(written)
        uses.append(read)

    block_at = {start: block for block, start in enumerate(starts)}
    ends = starts[1:] + [count]
    entry: List[Optional[Dict[Location, FrozenSet[int]]]] = [None] * len(starts)
    local: List[Optional[Dict[Location, List[int]]]] = [None] * len(starts)
    gen: List[Dict[Location, FrozenSet[int]]] = [{}] * len(starts)
    entry[0] = {}
    worklist: List[int] = [0]
    while worklist:
        block = worklist.pop()
        if local[block] is None:
            sites: Dict[Location, List[int]] = {}
            for index in range(starts[block], ends[block]):
                for location in defs[index]:
                    sites.setdefault(location, []).append(index)
            local[block] = sites
            gen[block] = {location: frozenset((at[-1],)) for location, at in sites.items()}
        out_env = dict(entry[block])
        out_env.update(gen[block])
        for succ in succ_map[ends[block] - 1]:
            target = block_at[succ]
            existing = entry[target]
            merged = _naive_merge(existing, out_env)
            if existing is None or merged != existing:
                entry[target] = merged
                worklist.append(target)

    block_of = [-1] * count
    for block, start in enumerate(starts):
        if entry[block] is not None:
            block_of[start:ends[block]] = [block] * (ends[block] - start)
    return BlockReachingDefinitions(procedure, states, defs, uses, block_of, entry, local)


def block_discover_interface(
    procedure: Procedure, reaching: Optional[BlockReachingDefinitions] = None
) -> ProcedureInterface:
    """Interface discovery as a second walk, querying ``reaching`` per use."""
    if reaching is None:
        reaching = block_reaching_definitions(procedure)
    stack_args: Set[int] = set()
    register_args: Set[str] = set()
    has_return = False
    for index, instruction in enumerate(procedure.instructions):
        for location in reaching.uses[index]:
            if ENTRY not in reaching.reaching(index, location):
                continue
            if isinstance(location, int):
                if location >= WORD_SIZE:
                    stack_args.add(location)
            elif location in REGISTER_PARAM_CANDIDATES:
                if not isinstance(instruction, Push):
                    register_args.add(location)
        if isinstance(instruction, Ret):
            if any(definition != ENTRY for definition in reaching.reaching(index, "eax")):
                has_return = True
    return ProcedureInterface(
        name=procedure.name,
        stack_args=tuple(sorted(stack_args)),
        register_args=tuple(sorted(register_args)),
        has_return=has_return,
    )


# ---------------------------------------------------------------------------
# Scheme serialization and bound placement, re-deriving per cell and per bound
# ---------------------------------------------------------------------------


def naive_scheme_from_shapes(
    procedure: ProcedureTypingInput,
    shapes: ShapeInference,
    lattice: TypeLattice,
    max_depth: int = 6,
) -> TypeScheme:
    """Scheme serialization decoding a class's capabilities in every pass."""
    constraints = ConstraintSet()
    quantified: Set[str] = set()

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

    reachable: Set[int] = set()
    worklist = list(roots.values())
    while worklist:
        cell = worklist.pop()
        if cell in reachable:
            continue
        reachable.add(cell)
        for target in _capabilities(shapes, cell).values():
            worklist.append(target)

    indegree: Dict[int, int] = {cell: 0 for cell in reachable}
    cyclic: Set[int] = set()
    for cell in reachable:
        for target in _capabilities(shapes, cell).values():
            if target in indegree:
                indegree[target] += 1
            if target == cell:
                cyclic.add(cell)
    cyclic |= _naive_cyclic_classes(shapes, reachable)

    root_count: Dict[int, int] = {}
    for cell in roots.values():
        root_count[cell] = root_count.get(cell, 0) + 1

    needs_var = {
        cell
        for cell in reachable
        if cell in cyclic
        or indegree.get(cell, 0) + root_count.get(cell, 0) >= 2
    }
    var_names: Dict[int, str] = {}
    counter = itertools.count()
    for cell in sorted(needs_var):
        var_names[cell] = f"τ{next(counter)}"
        quantified.add(var_names[cell])

    def bounds_constraints(expr: DerivedTypeVariable, cell: int) -> bool:
        lower, upper = shapes.bounds(cell)
        emitted = False
        if lower != BOTTOM:
            constraints.add_subtype(DerivedTypeVariable(lower), expr)
            emitted = True
        if upper != TOP:
            constraints.add_subtype(expr, DerivedTypeVariable(upper))
            emitted = True
        return emitted

    def emit_from(expr: DerivedTypeVariable, cell: int, depth: int, seen: Set[int]) -> None:
        emitted = bounds_constraints(expr, cell)
        if depth >= max_depth:
            return
        children = sorted(_capabilities(shapes, cell).items(), key=lambda kv: str(kv[0]))
        if not children and not emitted and expr.labels:
            constraints.add_subtype(expr, DerivedTypeVariable(TOP))
            return
        for label, target in children:
            child_expr = expr.with_label(label)
            if target in var_names:
                var_dtv = DerivedTypeVariable(var_names[target])
                if path_variance(child_expr.labels) is Variance.COVARIANT:
                    constraints.add_subtype(child_expr, var_dtv)
                else:
                    constraints.add_subtype(var_dtv, child_expr)
                continue
            if target in seen:
                continue
            emit_from(child_expr, target, depth + 1, seen | {target})

    for dtv, variance in formals:
        cell = roots.get(dtv)
        if cell is None:
            continue
        if cell in var_names:
            var_dtv = DerivedTypeVariable(var_names[cell])
            if variance is Variance.CONTRAVARIANT:
                constraints.add_subtype(dtv, var_dtv)
            else:
                constraints.add_subtype(var_dtv, dtv)
        else:
            emit_from(dtv, cell, 0, {cell})

    for cell, name in sorted(var_names.items()):
        emit_from(DerivedTypeVariable(name), cell, 0, {cell})

    return TypeScheme(
        proc=procedure.name,
        constraints=constraints,
        quantified=frozenset(quantified),
        formal_ins=tuple(procedure.formal_ins),
        formal_outs=tuple(procedure.formal_outs),
    )


def _capabilities(shapes: ShapeInference, cell: int) -> Dict[Label, int]:
    """A class's capabilities decoded into a fresh ``label -> target`` dict."""
    rep = shapes.find(cell)
    return {shapes._labels[lid]: shapes.find(target) for lid, target in shapes._edges[rep].items()}


def _naive_cyclic_classes(shapes: ShapeInference, reachable: Set[int]) -> Set[int]:
    edges = {
        cell: [t for t in _capabilities(shapes, cell).values() if t in reachable]
        for cell in reachable
    }
    cyclic: Set[int] = set()
    for component in tarjan_sccs(edges):
        if len(component) > 1:
            cyclic.update(component)
        elif component and component[0] in edges.get(component[0], []):
            cyclic.add(component[0])
    return cyclic


def naive_cell_at(shapes: ShapeInference, did: int, word: int, base: int) -> Optional[int]:
    """Cell of dtv id ``did`` extended by the packed label word ``word``
    (``lid + 1`` digits in base ``base``, first label least significant),
    walked from scratch; ``None`` when the variable has no cell or the word
    leaves the quotient."""
    cell = shapes._cells[did]
    if cell < 0:
        return None
    cell = shapes.find(cell)
    while word:
        word, digit = divmod(word, base)
        cell = shapes._step(cell, digit - 1)
        if cell is None:
            return None
    return cell


# ---------------------------------------------------------------------------
# Constraint generation and encoding over variable objects
# ---------------------------------------------------------------------------
#
# The generator and per-SCC encoder that constraint tables replaced:
# ``tests/core/test_table_equivalence.py`` holds the table-emitting
# generator and the merged ``SccEncoding`` to them.


@dataclass
class NaiveTypingInput:
    """What the replaced generator produced for one procedure."""

    name: str
    constraints: ConstraintSet
    formal_ins: Tuple[DerivedTypeVariable, ...] = ()
    formal_outs: Tuple[DerivedTypeVariable, ...] = ()
    callsites: Tuple[Callsite, ...] = ()


_BITSTEAL_AND_MASKS = {0xFFFFFFFC, 0xFFFFFFF8, ~3 & 0xFFFFFFFF, -4, -8}
_BITSTEAL_OR_MASKS = {1, 2, 3}
_MAX_OBJECT_EXTENT = 64
_OUT_EAX = OutLabel("eax")


class NaiveConstraintGenerator:
    """The replaced generator: one :class:`DerivedTypeVariable` per definition
    site and use, constraints added to a :class:`ConstraintSet` one object
    at a time."""

    def __init__(
        self,
        procedure: Procedure,
        interface: ProcedureInterface,
        callees: Mapping[str, CalleeInfo],
        reaching: Optional[BlockReachingDefinitions] = None,
    ) -> None:
        self.procedure = procedure
        self.name = procedure.name
        self.interface = interface
        self.callees = callees
        self.reaching = reaching or block_reaching_definitions(procedure)
        self.constraints = ConstraintSet()
        self.callsites: List[Callsite] = []
        self._phi_cache: Dict[Tuple[int, Location], DerivedTypeVariable] = {}
        self._def_vars: Dict[Tuple[Location, int], DerivedTypeVariable] = {}
        self._formal_ins: Dict[str, DerivedTypeVariable] = {}
        self._in_labels: Dict[str, InLabel] = {}
        self._aliases: Dict[DerivedTypeVariable, Tuple[DerivedTypeVariable, int]] = {}
        self._frame_aliases: Dict[DerivedTypeVariable, int] = {}
        self._address_taken: Set[int] = set()
        self._fresh = 0

    # -- type variable naming ----------------------------------------------------------

    def _in_label(self, location_name: str) -> InLabel:
        # Building an InLabel re-validates its location; labels are immutable.
        label = self._in_labels.get(location_name)
        if label is None:
            label = self._in_labels[location_name] = InLabel(location_name)
        return label

    def formal_in(self, location_name: str) -> DerivedTypeVariable:
        var = self._formal_ins.get(location_name)
        if var is None:
            var = DerivedTypeVariable(self.name, (self._in_label(location_name),))
            self._formal_ins[location_name] = var
        return var

    def formal_out(self) -> DerivedTypeVariable:
        return DerivedTypeVariable(self.name, (_OUT_EAX,))

    def def_var(self, location: Location, index: int) -> DerivedTypeVariable:
        """Type variable for the definition of ``location`` at instruction ``index``."""
        key = (location, index)
        var = self._def_vars.get(key)
        if var is None:
            var = self._def_vars[key] = self._make_def_var(location, index)
        return var

    def _make_def_var(self, location: Location, index: int) -> DerivedTypeVariable:
        location_name = f"stk{location}" if isinstance(location, int) else location
        if index == ENTRY:
            if isinstance(location, int) and is_argument_offset(location):
                loc_name = argument_location(location)
                if location in self.interface.stack_args:
                    return self.formal_in(loc_name)
                return DerivedTypeVariable(f"{self.name}~arg_{loc_name}")
            if isinstance(location, str) and location in self.interface.register_args:
                return self.formal_in(location)
            return DerivedTypeVariable(f"{self.name}~{location_name}@entry")
        return DerivedTypeVariable(f"{self.name}~{location_name}@{index}")

    def use_var(self, location: Location, index: int) -> DerivedTypeVariable:
        """Type variable for a use of ``location`` at instruction ``index``.

        Single reaching definition: the definition's variable.  Multiple
        reaching definitions: a join variable with one constraint per
        definition (Example A.2 -- this is what defeats the "fortuitous reuse"
        and stack-slot-reuse unification problems of section 2.1).
        """
        defs = sorted(self.reaching.reaching(index, location))
        if len(defs) == 1:
            return self.def_var(location, defs[0])
        key = (index, location)
        if key not in self._phi_cache:
            location_name = f"stk{location}" if isinstance(location, int) else location
            var = DerivedTypeVariable(f"{self.name}~phi_{location_name}@{index}")
            self._phi_cache[key] = var
            for definition in defs:
                self.constraints.add_subtype(self.def_var(location, definition), var)
        return self._phi_cache[key]

    def fresh(self, hint: str = "t") -> DerivedTypeVariable:
        self._fresh += 1
        return DerivedTypeVariable(f"{self.name}~{hint}{self._fresh}")

    def global_var(self, symbol: str, offset: int = 0) -> DerivedTypeVariable:
        suffix = f"_{offset}" if offset else ""
        return DerivedTypeVariable(f"g_{symbol}{suffix}")

    def object_var(self, offset: int) -> DerivedTypeVariable:
        """Pointer-valued variable for the address of an address-taken local."""
        return DerivedTypeVariable(f"{self.name}~addr{offset}")

    # -- alias resolution ------------------------------------------------------------------

    def _resolve_alias(
        self, var: DerivedTypeVariable
    ) -> Tuple[Optional[DerivedTypeVariable], int, Optional[int]]:
        """Chase pointer-offset aliases.

        Returns ``(base_var, delta, frame_offset)``: either ``base_var`` (with a
        byte ``delta``) or ``frame_offset`` (address of a stack object) is set.
        """
        delta = 0
        seen = set()
        current = var
        while current in self._aliases and current not in seen:
            seen.add(current)
            current, step = self._aliases[current]
            delta += step
        if current in self._frame_aliases:
            return None, delta, self._frame_aliases[current] + delta
        return current, delta, None

    # -- memory access helpers ----------------------------------------------------------------

    def _object_base(self, offset: int) -> Optional[int]:
        """The address-taken object (if any) a direct slot access belongs to."""
        candidates = [
            taken
            for taken in self._address_taken
            if taken <= offset < taken + _MAX_OBJECT_EXTENT
        ]
        return max(candidates) if candidates else None

    def load_source(self, memory: Mem, index: int) -> Optional[DerivedTypeVariable]:
        """The derived type variable whose value a memory *read* produces."""
        state = self.reaching.states[index]
        offset = frame_offset(memory, state)
        if offset is not None:
            value = self.use_var(offset, index)
            base = self._object_base(offset)
            if base is not None:
                field = FieldLabel(memory.size * 8, offset - base)
                self.constraints.add_subtype(
                    self.object_var(base).with_labels((LOAD, field)), value
                )
            return value
        if memory.is_global:
            return self.global_var(memory.base, memory.offset)
        if memory.base is None:
            return None
        pointer = self.use_var(memory.base, index)
        base_var, delta, frame = self._resolve_alias(pointer)
        if frame is not None:
            # Reading through a pointer into our own frame: use the slot value.
            slot = frame + memory.offset
            return self.use_var(slot, index)
        field = FieldLabel(memory.size * 8, memory.offset + delta)
        return base_var.with_labels((LOAD, field))

    def store_target(self, memory: Mem, index: int) -> Optional[DerivedTypeVariable]:
        """The derived type variable a memory *write* flows into."""
        state = self.reaching.states[index]
        offset = frame_offset(memory, state)
        if offset is not None:
            target = self.def_var(offset, index)
            base = self._object_base(offset)
            if base is not None:
                field = FieldLabel(memory.size * 8, offset - base)
                self.constraints.add_subtype(
                    target, self.object_var(base).with_labels((STORE, field))
                )
            return target
        if memory.is_global:
            return self.global_var(memory.base, memory.offset)
        if memory.base is None:
            return None
        pointer = self.use_var(memory.base, index)
        base_var, delta, frame = self._resolve_alias(pointer)
        if frame is not None:
            slot = frame + memory.offset
            return self.def_var(slot, index)
        field = FieldLabel(memory.size * 8, memory.offset + delta)
        return base_var.with_labels((STORE, field))

    # -- main generation loop ------------------------------------------------------------------

    def generate(self) -> "NaiveTypingInput":
        self._collect_address_taken()
        visitors = _NAIVE_VISITORS
        for index, instruction in enumerate(self.procedure.instructions):
            # Labels, jumps, nop, flag-only compares and leave generate nothing.
            visit = visitors.get(type(instruction))
            if visit is not None:
                visit(self, index, instruction)
        formal_ins = tuple(
            self.formal_in(location) for location in self.interface.input_locations
        )
        formal_outs = (self.formal_out(),) if self.interface.has_return else ()
        return NaiveTypingInput(
            name=self.name,
            constraints=self.constraints,
            formal_ins=formal_ins,
            formal_outs=formal_outs,
            callsites=tuple(self.callsites),
        )

    def _collect_address_taken(self) -> None:
        for index, instruction in enumerate(self.procedure.instructions):
            if isinstance(instruction, Lea):
                offset = frame_offset(instruction.src, self.reaching.states[index])
                if offset is not None:
                    self._address_taken.add(offset)

    # -- individual instruction kinds ----------------------------------------------------------

    def _value_of(self, operand: Operand, index: int) -> Optional[DerivedTypeVariable]:
        if isinstance(operand, Reg):
            if operand.name in ("esp", "ebp"):
                return None
            return self.use_var(operand.name, index)
        if isinstance(operand, Mem):
            return self.load_source(operand, index)
        return None  # immediates carry no type information

    def _visit_mov(self, index: int, instruction: Mov) -> None:
        if isinstance(instruction.dst, Reg):
            if instruction.dst.name in ("esp", "ebp"):
                return
            destination = self.def_var(instruction.dst.name, index)
            source = self._value_of(instruction.src, index)
            if source is not None:
                self.constraints.add_subtype(source, destination)
                # A register copy propagates pointer-offset aliases.
                if isinstance(instruction.src, Reg):
                    base_var, delta, frame = self._resolve_alias(source)
                    if frame is not None:
                        self._frame_aliases[destination] = frame
                    elif delta and base_var is not None:
                        self._aliases[destination] = (base_var, delta)
        elif isinstance(instruction.dst, Mem):
            target = self.store_target(instruction.dst, index)
            source = self._value_of(instruction.src, index)
            if target is not None and source is not None:
                self.constraints.add_subtype(source, target)

    def _visit_lea(self, index: int, instruction: Lea) -> None:
        destination = self.def_var(instruction.dst.name, index)
        offset = frame_offset(instruction.src, self.reaching.states[index])
        if offset is not None:
            # The register now holds the address of a stack object.
            self._frame_aliases[destination] = offset
            pointer = self.object_var(offset)
            self.constraints.add_subtype(pointer, destination)
            self.constraints.add_subtype(destination, pointer)
            return
        if instruction.src.base is not None and instruction.src.base not in ("esp", "ebp"):
            if instruction.src.is_global:
                base = self.global_var(instruction.src.base)
                self.constraints.add_subtype(base, destination)
                return
            base = self.use_var(instruction.src.base, index)
            resolved, delta, frame = self._resolve_alias(base)
            if frame is not None:
                self._frame_aliases[destination] = frame + instruction.src.offset
            elif resolved is not None:
                self._aliases[destination] = (resolved, delta + instruction.src.offset)

    def _visit_binop(self, index: int, instruction: BinaryOp) -> None:
        register = instruction.dst.name
        if register in ("esp", "ebp"):
            return
        destination = self.def_var(register, index)
        if is_zeroing_idiom(instruction):
            return  # a semi-syntactic constant (section 2.1)
        source_use = self.use_var(register, index)

        if instruction.op in ("add", "sub") and isinstance(instruction.src, Imm):
            sign = 1 if instruction.op == "add" else -1
            base_var, delta, frame = self._resolve_alias(source_use)
            if frame is not None:
                self._frame_aliases[destination] = frame + sign * instruction.src.value
            elif base_var is not None:
                self._aliases[destination] = (base_var, delta + sign * instruction.src.value)
            return

        if instruction.op in ("add", "sub") and isinstance(instruction.src, Reg):
            other = self.use_var(instruction.src.name, index)
            constraint_cls = AddConstraint if instruction.op == "add" else SubConstraint
            self.constraints.add(constraint_cls(source_use, other, destination))
            return

        if instruction.op == "and" and isinstance(instruction.src, Imm):
            if instruction.src.value in _BITSTEAL_AND_MASKS:
                self.constraints.add_subtype(source_use, destination)
                return
        if instruction.op == "or" and isinstance(instruction.src, Imm):
            if instruction.src.value in _BITSTEAL_OR_MASKS:
                self.constraints.add_subtype(source_use, destination)
                return

        # Remaining bit manipulation / multiplication: integral result.
        self.constraints.add_subtype(destination, DerivedTypeVariable("int"))

    def _visit_push(self, index: int, instruction: Push) -> None:
        state = self.reaching.states[index]
        if state.esp is None:
            return
        slot = state.esp - WORD_SIZE
        destination = self.def_var(slot, index)
        source = self._value_of(instruction.src, index)
        if source is not None:
            self.constraints.add_subtype(source, destination)

    def _visit_pop(self, index: int, instruction: Pop) -> None:
        if instruction.dst.name in ("esp", "ebp"):
            return
        state = self.reaching.states[index]
        if state.esp is None:
            return
        slot = state.esp
        destination = self.def_var(instruction.dst.name, index)
        source = self.use_var(slot, index)
        self.constraints.add_subtype(source, destination)

    def _visit_call(self, index: int, instruction: Call) -> None:
        if isinstance(instruction.target, Reg):
            return  # indirect call: no interface information
        callee = instruction.target
        info = self.callees.get(callee)
        if info is None:
            info = CalleeInfo(name=callee, known=False)
        base = f"{callee}${self.name}_{index}"
        state = self.reaching.states[index]

        if info.stack_params and state.esp is not None:
            for position in range(info.stack_params):
                slot = state.esp + WORD_SIZE * position
                actual = self.use_var(slot, index)
                formal = DerivedTypeVariable(base, (self._in_label(f"stack{WORD_SIZE * position}"),))
                self.constraints.add_subtype(actual, formal)
        for register in info.register_params:
            actual = self.use_var(register, index)
            formal = DerivedTypeVariable(base, (self._in_label(register),))
            self.constraints.add_subtype(actual, formal)
        if info.has_return:
            result = DerivedTypeVariable(base, (_OUT_EAX,))
            self.constraints.add_subtype(result, self.def_var("eax", index))
        self.callsites.append(Callsite(callee=callee, base=base))

    def _visit_ret(self, index: int, instruction: Ret) -> None:
        if not self.interface.has_return:
            return
        defs = self.reaching.reaching(index, "eax")
        if all(definition == ENTRY for definition in defs):
            return
        self.constraints.add_subtype(self.use_var("eax", index), self.formal_out())


_NAIVE_VISITORS = {
    Mov: NaiveConstraintGenerator._visit_mov,
    Lea: NaiveConstraintGenerator._visit_lea,
    BinaryOp: NaiveConstraintGenerator._visit_binop,
    Push: NaiveConstraintGenerator._visit_push,
    Pop: NaiveConstraintGenerator._visit_pop,
    Call: NaiveConstraintGenerator._visit_call,
    Ret: NaiveConstraintGenerator._visit_ret,
}


def naive_generate_program_constraints(
    program: Program, externs: Optional[Mapping[str, ExternSignature]] = None
) -> Dict[str, NaiveTypingInput]:
    """Cold generation of every procedure with the replaced generator,
    bottom-up like ``generate_program_constraints``."""
    externs = externs if externs is not None else standard_externs()
    callees: Dict[str, CalleeInfo] = {
        name: CalleeInfo(
            name=name,
            stack_params=signature.stack_params,
            has_return=signature.has_return,
            known=True,
        )
        for name, signature in externs.items()
        if name not in program.procedures
    }
    generated: Dict[str, NaiveTypingInput] = {}
    for scc in CallGraph.from_program(program).sccs_bottom_up():
        reaching = {}
        for name in scc:
            procedure = program.procedures[name]
            reaching[name] = block_reaching_definitions(procedure)
            callees[name] = CalleeInfo.from_interface(
                block_discover_interface(procedure, reaching[name])
            )
        for name in scc:
            interface = block_discover_interface(program.procedures[name], reaching[name])
            generated[name] = NaiveConstraintGenerator(
                program.procedures[name], interface, callees, reaching[name]
            ).generate()
    return generated


class NaiveSccEncoding:
    """The replaced encoder: one constraint set in dense integer form.

    This is the only place the canonical order is established: the subtype
    and additive constraints are sorted by ``str`` once, and every derived
    type variable (mentioned or a prefix of one) gets its dtv id in
    sorted-by-``str`` order.  Unions, cell creation, edge insertion,
    saturation and bound application all follow these orders, so everything
    downstream -- ``τN`` and ``struct_N`` numbering included -- is a pure
    function of the constraint set.  Per dtv id the encoding records the
    prefix's id (``-1`` for a base variable), the last label's id (``-1``
    for a base) and, when built with a lattice, whether it is a type
    constant.

    An encoding lives for one solve: :func:`~repro.core.shapes.infer_shapes`
    builds it, the :class:`~repro.core.graph.ConstraintGraph` adopts its
    pools, and the solver releases it once bounds are applied.
    """

    __slots__ = ("dtvs", "labels", "prefix", "last_lid", "constant", "subtype", "additive")

    def __init__(
        self,
        constraints: "ConstraintSet",
        lattice: Optional["TypeLattice"] = None,
        extra_dtvs: Iterable["DerivedTypeVariable"] = (),
    ) -> None:
        mentioned = set(extra_dtvs)
        for constraint in constraints.subtype:
            mentioned.add(constraint.left)
            mentioned.add(constraint.right)
        for constraint in constraints.additive:
            mentioned.add(constraint.left)
            mentioned.add(constraint.right)
            mentioned.add(constraint.result)
        # Close under prefixes (T-PREFIX), computing each prefix once.
        prefix_of: Dict["DerivedTypeVariable", "DerivedTypeVariable"] = {}
        closed = set(mentioned)
        for dtv in mentioned:
            while dtv.labels and dtv not in prefix_of:
                parent = dtv.prefix
                prefix_of[dtv] = parent
                closed.add(parent)
                dtv = parent

        #: dtv id <-> variable, in sorted-by-``str`` order.
        self.dtvs: InternPool["DerivedTypeVariable"] = InternPool()
        #: label id <-> label, in order of first appearance as a last label.
        self.labels: InternPool["Label"] = InternPool()
        #: per dtv id: the prefix's id, or -1 for a base variable.
        self.prefix: List[int] = []
        #: per dtv id: the last label's id, or -1 for a base variable.
        self.last_lid: List[int] = []
        keyed = sorted([(str(dtv), dtv) for dtv in closed])
        names = [name for name, _ in keyed]
        items = self.dtvs.items
        items.extend([dtv for _, dtv in keyed])
        ids = self.dtvs.ids
        ids.update(zip(items, range(len(items))))
        label_ids = self.labels.ids
        labels = self.labels.items
        prefix = self.prefix
        last_lid = self.last_lid
        for dtv in items:
            parent = prefix_of.get(dtv)
            if parent is None:
                prefix.append(-1)
                last_lid.append(-1)
                continue
            prefix.append(ids[parent])
            label = dtv.labels[-1]
            lid = label_ids.get(label)
            if lid is None:
                lid = label_ids[label] = len(labels)
                labels.append(label)
            last_lid.append(lid)
        #: per dtv id: is it a type constant?  (``None`` without a lattice.)
        self.constant: Optional[List[bool]] = None
        if lattice is not None:
            is_constant = lattice.is_constant
            self.constant = [
                p < 0 and is_constant(dtv.base) for p, dtv in zip(prefix, items)
            ]
        #: subtype constraints ``left <= right`` as ``(left_did, right_did)``,
        #: sorted by ``str`` (spelled from the variables' strings).
        keyed_pairs = sorted(
            [
                (names[ids[c.left]] + " <= " + names[ids[c.right]], ids[c.left], ids[c.right])
                for c in constraints.subtype
            ]
        )
        self.subtype: List[Tuple[int, int]] = [(left, right) for _, left, right in keyed_pairs]
        #: additive constraints as ``(is_add, left_did, right_did, result_did)``.
        self.additive: List[Tuple[bool, int, int, int]] = [
            (isinstance(c, AddConstraint), ids[c.left], ids[c.right], ids[c.result])
            for c in sorted(constraints.additive, key=str)
        ]


# ---------------------------------------------------------------------------
# The deduction rules of Figure 3, as a bounded closure
# ---------------------------------------------------------------------------
#
# Not used by the solver (which relies on the pushdown-system machinery of
# Appendix D): an executable reference semantics for the type system.  Given a
# constraint set it computes the entailment closure restricted to derived type
# variables of bounded label depth, which is enough to test ``proves`` and the
# saturation against the rules as written in the paper:
#
# * T-LEFT / T-RIGHT / T-PREFIX   (existence of derived type variables)
# * T-INHERITL / T-INHERITR       (comparable types have the same capabilities)
# * S-REFL / S-TRANS              (preorder)
# * S-FIELD+ / S-FIELD-           (labels are co-/contra-variant type operators)
# * S-POINTER                     (store <= load consistency)


class DeductionEngine:
    """Bounded entailment closure for the Figure 3 rules.

    Parameters
    ----------
    constraints:
        The constraint set ``C``.
    max_depth:
        Derived type variables longer than this many labels are not explored.
        The closure is exact for judgements whose variables stay within the
        bound (sufficient for the small examples the engine is meant for).
    """

    def __init__(self, constraints: ConstraintSet, max_depth: int = 4) -> None:
        self.constraints = constraints
        self.max_depth = max_depth
        self._vars: Set[DerivedTypeVariable] = set()
        self._subtypes: Set[Tuple[DerivedTypeVariable, DerivedTypeVariable]] = set()
        self._closed = False

    # -- public API -------------------------------------------------------------

    def entails_var(self, dtv: DerivedTypeVariable) -> bool:
        """``C |- VAR dtv`` (up to the depth bound)."""
        self._close()
        return dtv in self._vars

    def entails_subtype(
        self, left: DerivedTypeVariable, right: DerivedTypeVariable
    ) -> bool:
        """``C |- left <= right`` (up to the depth bound)."""
        self._close()
        return (left, right) in self._subtypes

    def entails(self, constraint: SubtypeConstraint) -> bool:
        return self.entails_subtype(constraint.left, constraint.right)

    def derived_variables(self) -> Set[DerivedTypeVariable]:
        self._close()
        return set(self._vars)

    def subtype_pairs(self) -> Set[Tuple[DerivedTypeVariable, DerivedTypeVariable]]:
        self._close()
        return set(self._subtypes)

    # -- fixpoint ----------------------------------------------------------------

    def _close(self) -> None:
        if self._closed:
            return
        variables: Set[DerivedTypeVariable] = set()
        subtypes: Set[Tuple[DerivedTypeVariable, DerivedTypeVariable]] = set()

        for constraint in self.constraints:
            for dtv in (constraint.left, constraint.right):
                variables.add(dtv)
                variables.update(dtv.prefixes())
            subtypes.add((constraint.left, constraint.right))

        changed = True
        while changed:
            changed = False

            # S-REFL on all known variables.
            for dtv in list(variables):
                if (dtv, dtv) not in subtypes:
                    subtypes.add((dtv, dtv))
                    changed = True

            # T-INHERITL / T-INHERITR: comparable variables share capabilities.
            for left, right in list(subtypes):
                for dtv in list(variables):
                    if dtv.depth >= self.max_depth:
                        continue
                    last = dtv.last_label
                    prefix = dtv.prefix
                    if last is None or prefix is None:
                        continue
                    if prefix == left:
                        other = right.with_label(last)
                    elif prefix == right:
                        other = left.with_label(last)
                    else:
                        continue
                    if other.depth <= self.max_depth and other not in variables:
                        variables.add(other)
                        changed = True

            # S-FIELD+/S-FIELD-.
            for left, right in list(subtypes):
                for dtv in list(variables):
                    last = dtv.last_label
                    prefix = dtv.prefix
                    if last is None or prefix is None or prefix != right:
                        continue
                    extended_left = left.with_label(last)
                    extended_right = right.with_label(last)
                    if extended_left.depth > self.max_depth:
                        continue
                    variables.add(extended_left)
                    if last.variance is Variance.COVARIANT:
                        pair = (extended_left, extended_right)
                    else:
                        pair = (extended_right, extended_left)
                    if pair not in subtypes:
                        subtypes.add(pair)
                        changed = True

            # S-POINTER.
            for dtv in list(variables):
                loaded = dtv.with_label(LOAD)
                stored = dtv.with_label(STORE)
                if loaded in variables and stored in variables:
                    if (stored, loaded) not in subtypes:
                        subtypes.add((stored, loaded))
                        changed = True

            # S-TRANS.
            by_left = {}
            for a, b in subtypes:
                by_left.setdefault(a, set()).add(b)
            for a, b in list(subtypes):
                for c in by_left.get(b, ()):
                    if (a, c) not in subtypes:
                        subtypes.add((a, c))
                        changed = True

        self._vars = variables
        self._subtypes = subtypes
        self._closed = True


def entails(
    constraints: ConstraintSet,
    goal: SubtypeConstraint,
    max_depth: int = 4,
) -> bool:
    """Convenience wrapper: does ``constraints`` entail ``goal``?"""
    return DeductionEngine(constraints, max_depth).entails(goal)
