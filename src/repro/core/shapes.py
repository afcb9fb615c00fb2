"""INFERSHAPES: computing the tree structure of sketches (Theorem 3.1, Algorithm E.1).

The key observation of the paper is that the *shape* (the regular language of
capability paths) of every variable's sketch can be recovered from a constraint
set by a Steensgaard-style almost-linear-time construction:

* build a graph with one node per derived type variable (and each prefix), with
  an edge labelled ``l`` from ``n(alpha)`` to ``n(alpha.l)``;
* quotient by the equivalence generated by ``n(alpha) ~ n(beta)`` whenever
  ``alpha <= beta`` is a constraint, closed under congruence: equivalent nodes
  with outgoing edges labelled ``l`` / ``l'`` have equivalent targets when
  ``l = l'`` or ``{l, l'} = {load, store}`` (the S-POINTER identification).

Paths through the quotient graph starting at a variable's class are exactly the
capability words derivable for that variable, so the quotient directly yields
the sketch automaton.

The construction runs on the constraint set's :class:`~repro.core.intern.
SccEncoding`: cells are created per dtv id (memoized, walking label ids down
from the nearest resolved prefix), union-find edges are keyed by label id,
and constraints are processed in the encoding's order -- so cells are created
and unioned in exactly the order a per-variable walk over the sorted
constraints would, and cell numbering (hence ``τN``/``struct_N``) is a pure
function of the constraint set.  Label ids decode back to labels only at the
object API (:meth:`ShapeInference.lookup`, :meth:`ShapeInference.children`,
sketches).  The encoding is released after the solve; the quotient keeps
only the base-name -> cell map and its small label table.

The same structure also hosts:

* per-class lattice bounds (joins of lower-bound constants / meets of
  upper-bound constants) -- a fast, direction-insensitive approximation that
  the solver refines with the pushdown machinery of Appendix D;
* pointer-ness / integer-ness marks driven by the ADD/SUB rules of Figure 13.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from .constraints import ConstraintSet
from .intern import Part, SccEncoding
from .labels import LOAD, STORE, Label
from .lattice import BOTTOM, TOP, TypeLattice
from .sketches import Sketch
from .variables import DerivedTypeVariable


class ShapeInference:
    """Union-find quotient of derived type variables (the INFERSHAPES algorithm)."""

    def __init__(self, lattice: TypeLattice) -> None:
        self.lattice = lattice
        self._parent: List[int] = []
        self._rank: List[int] = []
        #: per cell: label id -> target cell (``None`` once merged away).
        self._edges: List[Optional[Dict[int, int]]] = []
        self._lower: List[str] = []
        self._upper: List[str] = []
        self._base_cells: Dict[str, int] = {}
        #: label id <-> label (the encoding's label pool, kept for lookups).
        self._labels: List[Label] = []
        self._label_ids: Dict[Label, int] = {}
        #: per label id: ``str`` of the label, the order capabilities sort in.
        self._label_keys: List[str] = []
        self._load = -1
        self._store = -1
        self._int_mark: Set[int] = set()
        self._ptr_mark: Set[int] = set()
        #: pairs of type constants (lower, upper) that must satisfy lower <: upper
        self.scalar_checks: List[Tuple[str, str]] = []
        #: the encoding the quotient was built from, until released.
        self.encoding: Optional[SccEncoding] = None
        #: per dtv id of the encoding: its cell, or -1 while unresolved.
        self._cells: Optional[List[int]] = None

    # -- union-find --------------------------------------------------------------

    def _new_cell(self) -> int:
        ident = len(self._parent)
        self._parent.append(ident)
        self._rank.append(0)
        self._edges.append({})
        self._lower.append(BOTTOM)
        self._upper.append(TOP)
        return ident

    def find(self, cell: int) -> int:
        parent = self._parent
        root = cell
        while parent[root] != root:
            root = parent[root]
        while parent[cell] != root:
            parent[cell], cell = root, parent[cell]
        return root

    def union(self, a: int, b: int) -> int:
        """Union with downward congruence closure (including load/store identification)."""
        find = self.find
        rank = self._rank
        all_edges = self._edges
        load, store = self._load, self._store
        worklist = [(a, b)]
        while worklist:
            x, y = worklist.pop()
            rx, ry = find(x), find(y)
            if rx == ry:
                continue
            if rank[rx] < rank[ry]:
                rx, ry = ry, rx
            if rank[rx] == rank[ry]:
                rank[rx] += 1
            self._parent[ry] = rx
            # merge bounds and marks
            self._lower[rx] = self.lattice.join(self._lower[rx], self._lower[ry])
            self._upper[rx] = self.lattice.meet(self._upper[rx], self._upper[ry])
            if ry in self._int_mark:
                self._int_mark.add(rx)
            if ry in self._ptr_mark:
                self._ptr_mark.add(rx)
            # merge outgoing edges, scheduling congruent unifications
            edges_x = all_edges[rx]
            edges_y = all_edges[ry]
            all_edges[ry] = None
            for lid, target in edges_y.items():
                if lid in edges_x:
                    worklist.append((edges_x[lid], target))
                else:
                    edges_x[lid] = target
            # S-POINTER: load and store children of one class coincide
            if load in edges_x and store in edges_x:
                worklist.append((edges_x[load], edges_x[store]))
        return find(a)

    # -- construction from the encoding ---------------------------------------------

    def build(self, encoding: SccEncoding) -> None:
        """Run INFERSHAPES over ``encoding`` (built with this quotient's lattice)."""
        self.encoding = encoding
        self._cells = [-1] * len(encoding.names)
        self._labels = encoding.labels.items
        self._label_ids = encoding.labels.ids
        self._load = self._label_ids.get(LOAD, -1)
        self._store = self._label_ids.get(STORE, -1)
        constant = encoding.constant
        assert constant is not None, "shape inference needs a lattice-built encoding"
        # A constant is a base variable: its string is its name.
        names = encoding.names
        cell_of = self._cell_of
        for left, right in encoding.subtype:
            if constant[left]:
                if constant[right]:
                    self.scalar_checks.append((names[left], names[right]))
                else:
                    self.apply_lower(cell_of(right), names[left])
            elif constant[right]:
                self.apply_upper(cell_of(left), names[right])
            else:
                self.union(cell_of(left), cell_of(right))
        self._close_pointer_children()
        self._apply_additive(encoding.additive)

    def _cell_of(self, did: int) -> int:
        """Cell of non-constant dtv id ``did``, creating missing cells.

        Creation follows the per-variable walk (base cell first, then one
        cell per missing label edge, outermost last); dtv ids already
        resolved are memoized, which is exact because a class's label edge
        only ever moves to an equivalent target under union.
        """
        cells = self._cells
        cell = cells[did]
        if cell >= 0:
            return self.find(cell)
        encoding = self.encoding
        prefix = encoding.prefix
        chain = [did]
        parent = prefix[did]
        while parent >= 0 and cells[parent] < 0:
            chain.append(parent)
            parent = prefix[parent]
        if parent >= 0:
            cell = self.find(cells[parent])
        else:
            base = chain.pop()
            cell = self._new_cell()
            cells[base] = cell
            self._base_cells[encoding.names[base]] = cell
        last_lid = encoding.last_lid
        all_edges = self._edges
        for member in reversed(chain):
            edges = all_edges[cell]
            lid = last_lid[member]
            target = edges.get(lid)
            if target is None:
                target = self._new_cell()
                edges[lid] = target
            cells[member] = target
            cell = self.find(target)
        return cell

    def place_bounds(self, bounds: Iterable[Tuple[int, int, str, str]], base: int) -> None:
        """Apply the Appendix D.4 bound list to the cells the bounds read back as.

        Each bound is ``(did, word, kind, constant)``: dtv id ``did``
        extended by the packed label word ``word`` (``lid + 1`` digits in
        base ``base``, first label least significant -- a pending stack read
        top-first) gets ``constant`` as its ``kind`` (``"lower"`` or
        ``"upper"``) bound.  A variable without a cell, or a word leaving
        the quotient, places nothing; the load/store identification applies
        to the extension as in :meth:`lookup`.  Placing bounds never unions
        cells, so every walk from a cell along a remaining word is memoized
        for the rest of the list.
        """
        cells = self._cells
        find = self.find
        walked: Dict[Tuple[int, int], Optional[int]] = {}
        for did, word, kind, constant in bounds:
            cell = cells[did]
            if cell < 0:
                continue
            cell = find(cell)
            if word:
                cell = self._walk(cell, word, base, walked)
                if cell is None:
                    continue
            if kind == "lower":
                self._lower[cell] = self.lattice.join(self._lower[cell], constant)
            else:
                self._upper[cell] = self.lattice.meet(self._upper[cell], constant)

    def _walk(
        self, cell: int, word: int, base: int, walked: Dict[Tuple[int, int], Optional[int]]
    ) -> Optional[int]:
        """The cell ``word`` leads to from ``cell``, memoized per ``(cell, remaining word)``."""
        path = []
        target: Optional[int] = cell
        while word:
            key = (cell, word)
            if key in walked:
                target = walked[key]
                break
            path.append(key)
            word, digit = divmod(word, base)
            target = self._step(cell, digit - 1)
            if target is None:
                break
            cell = target
        for key in path:
            walked[key] = target
        return target

    def _step(self, cell: int, lid: int) -> Optional[int]:
        edges = self._edges[cell]
        target = edges.get(lid)
        if target is None:
            # Respect the load/store identification when looking up.
            if lid == self._load:
                target = edges.get(self._store)
            elif lid == self._store:
                target = edges.get(self._load)
            if target is None:
                return None
        return self.find(target)

    def release_encoding(self) -> None:
        """Drop the encoding and the per-dtv-id cells once the solve is done."""
        self.encoding = None
        self._cells = None

    # -- derived type variables ----------------------------------------------------

    def is_constant(self, dtv: DerivedTypeVariable) -> bool:
        return dtv.is_base and self.lattice.is_constant(dtv.base)

    def lookup(self, dtv: DerivedTypeVariable) -> Optional[int]:
        """The cell representing ``dtv``, or ``None`` (type constants, unknown paths)."""
        if self.is_constant(dtv) or dtv.base not in self._base_cells:
            return None
        cell = self.find(self._base_cells[dtv.base])
        label_ids = self._label_ids
        for label in dtv.labels:
            lid = label_ids.get(label)
            if lid is None:
                return None
            cell = self._step(cell, lid)
            if cell is None:
                return None
        return cell

    def _close_pointer_children(self) -> None:
        """Fixpoint pass unifying load/store children created before any union."""
        load, store = self._load, self._store
        if load < 0 or store < 0:
            return
        parent = self._parent
        all_edges = self._edges
        changed = True
        while changed:
            changed = False
            for cell in range(len(parent)):
                if parent[cell] != cell:
                    continue
                edges = all_edges[cell]
                if load in edges and store in edges:
                    a, b = self.find(edges[load]), self.find(edges[store])
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
        count = len(self._parent)
        self._lower = [BOTTOM] * count
        self._upper = [TOP] * count

    # -- capabilities ----------------------------------------------------------------------

    def children(self, cell: int) -> List[Tuple[Label, int]]:
        """The class's capabilities as ``(label, target class)``, sorted by ``str(label)``."""
        keys = self._label_keys
        labels = self._labels
        if len(keys) < len(labels):
            keys.extend(str(label) for label in labels[len(keys):])
        find = self.find
        edges = sorted(self._edges[find(cell)].items(), key=lambda item: keys[item[0]])
        return [(labels[lid], find(target)) for lid, target in edges]

    def has_capability(self, dtv: DerivedTypeVariable, label: Label) -> bool:
        cell = self.lookup(dtv)
        if cell is None:
            return False
        return self._label_ids.get(label, -1) in self._edges[self.find(cell)]

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
        if self._load in edges or self._store in edges:
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

    def _apply_additive(self, additive: List[Tuple[bool, int, int, int]]) -> None:
        """Iterate the inference rules for ADD/SUB constraints (Figure 13)."""
        # The encoding's order, not set order: unions reparent by call order,
        # and the per-process hash seed must not leak into the quotient's shape.
        if not additive:
            return
        constant = self.encoding.constant
        cell_of = self._cell_of
        changed = True
        while changed:
            changed = False
            for is_add, left, right, result in additive:
                cells = [
                    None if constant[did] else cell_of(did) for did in (left, right, result)
                ]
                if None in cells:
                    continue
                x, y, z = cells
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

    # -- sketch extraction -----------------------------------------------------------------------

    def sketch_for(self, dtv: DerivedTypeVariable) -> Sketch:
        """Build the sketch automaton for ``dtv`` by unrolling the quotient graph."""
        sketch = Sketch(self.lattice)
        start = self.lookup(dtv)
        if start is None:
            return sketch
        mapping: Dict[int, int] = {self.find(start): sketch.root}
        worklist = [self.find(start)]
        while worklist:
            rep = worklist.pop()
            node = mapping[rep]
            lower, upper = self._lower[rep], self._upper[rep]
            if (
                lower == BOTTOM
                and rep in self._ptr_mark
                and self._load not in self._edges[rep]
                and self._store not in self._edges[rep]
            ):
                # Pointer-ness established only through the ADD/SUB rules
                # (Figure 13): record it so the display shows a pointer.
                lower = "ptr" if "ptr" in self.lattice else lower
            sketch.nodes[node].lower = lower
            sketch.nodes[node].upper = upper
            for label, target in self.children(rep):
                if target not in mapping:
                    mapping[target] = sketch.add_node()
                    worklist.append(target)
                sketch.add_edge(node, label, mapping[target])
        return sketch


def infer_shapes(
    constraints: Union[ConstraintSet, Sequence[Part]], lattice: TypeLattice
) -> ShapeInference:
    """The INFERSHAPES procedure of Algorithm E.1.

    ``constraints`` is a constraint set or an SCC's sealed table parts (see
    :class:`~repro.core.intern.SccEncoding`).  Builds their encoding and the
    quotient over it.  The returned quotient still holds the encoding
    (``shapes.encoding``) so the solver can build the constraint graph and
    place bounds from it; callers that keep the quotient past the solve call
    :meth:`ShapeInference.release_encoding`.
    """
    if isinstance(constraints, ConstraintSet):
        encoding = SccEncoding.from_constraints(constraints, lattice)
    else:
        encoding = SccEncoding(constraints, lattice)
    shapes = ShapeInference(lattice)
    shapes.build(encoding)
    return shapes
