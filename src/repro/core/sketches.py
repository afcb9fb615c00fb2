"""Sketches: regular trees labelled with lattice elements (Definition 3.5).

A sketch is a possibly-infinite tree whose edges are field labels and whose
nodes carry elements of the auxiliary lattice Lambda, with only finitely many
distinct subtrees.  Collapsing equal subtrees yields a deterministic finite
automaton whose states are labelled by lattice elements; that is the
representation used here.

Each node stores both a *lower* bound (join of type constants known to flow
into the node) and an *upper* bound (meet of type constants the node must flow
into); the displayed decoration ``nu(w)`` picks one of the two according to the
variance of the path ``w`` (Appendix D.4), matching the conventions of
Figures 2 and 5.

The set of sketches forms a lattice (Figure 18):

* ``meet`` (``X ⊓ Y``) accepts the *union* of the two languages -- a more
  capable, more constrained type;
* ``join`` (``X ⊔ Y``) accepts the *intersection*;
* node labels are combined with the lattice meet on covariant paths and the
  lattice join on contravariant paths (and dually for the join of sketches).
"""

from __future__ import annotations

import sys
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .labels import Label, Variance, parse_label, path_variance
from .lattice import BOTTOM, TOP, TypeLattice


class SketchNode:
    """A state of the sketch automaton."""

    __slots__ = ("ident", "lower", "upper")

    def __init__(self, ident: int, lower: str = BOTTOM, upper: str = TOP) -> None:
        self.ident = ident
        self.lower = lower
        self.upper = upper

    def __repr__(self) -> str:
        return f"SketchNode(ident={self.ident!r}, lower={self.lower!r}, upper={self.upper!r})"

    def copy(self) -> "SketchNode":
        return SketchNode(self.ident, self.lower, self.upper)


class Sketch:
    """A deterministic finite automaton over field labels with decorated states.

    Slotted, and a node gets an entry in ``edges`` only once it has an
    outgoing edge, so leaves cost no dict: summary stores keep many decoded
    sketches alive.  Read edges with ``self.edges.get(node, {})``.
    """

    __slots__ = ("lattice", "nodes", "edges", "root")

    def __init__(self, lattice: TypeLattice) -> None:
        self.lattice = lattice
        self.nodes: Dict[int, SketchNode] = {}
        self.edges: Dict[int, Dict[Label, int]] = {}
        self.root: int = self.add_node()

    # -- construction ----------------------------------------------------------

    def add_node(self, lower: str = BOTTOM, upper: str = TOP) -> int:
        ident = len(self.nodes)  # nodes are never removed
        self.nodes[ident] = SketchNode(ident, lower, upper)
        return ident

    def add_edge(self, src: int, label: Label, dst: int) -> None:
        self.edges.setdefault(src, {})[label] = dst

    def add_path(self, labels: Sequence[Label]) -> int:
        """Ensure a path with the given labels exists from the root; return its end node."""
        current = self.root
        for label in labels:
            nxt = self.edges.get(current, {}).get(label)
            if nxt is None:
                nxt = self.add_node()
                self.add_edge(current, label, nxt)
            current = nxt
        return current

    # -- queries ---------------------------------------------------------------

    def follow(self, labels: Sequence[Label], start: Optional[int] = None) -> Optional[int]:
        """Node reached by following ``labels`` from ``start`` (default: root), or None."""
        current = self.root if start is None else start
        for label in labels:
            current = self.edges.get(current, {}).get(label)
            if current is None:
                return None
        return current

    def accepts(self, labels: Sequence[Label]) -> bool:
        """``w in L(S)``: the capability path exists."""
        return self.follow(labels) is not None

    def node(self, ident: int) -> SketchNode:
        return self.nodes[ident]

    def successors(self, ident: int) -> Dict[Label, int]:
        return dict(self.edges.get(ident, {}))

    def reachable(self, start: Optional[int] = None) -> Set[int]:
        start = self.root if start is None else start
        seen = {start}
        stack = [start]
        while stack:
            current = stack.pop()
            for target in self.edges.get(current, {}).values():
                if target not in seen:
                    seen.add(target)
                    stack.append(target)
        return seen

    def paths(self, max_depth: int = 6) -> Iterator[Tuple[Tuple[Label, ...], int]]:
        """Enumerate (label word, node) pairs up to ``max_depth`` labels (root included)."""
        stack: List[Tuple[Tuple[Label, ...], int]] = [((), self.root)]
        while stack:
            word, node = stack.pop()
            yield word, node
            if len(word) >= max_depth:
                continue
            for label, target in sorted(
                self.edges.get(node, {}).items(), key=lambda kv: str(kv[0])
            ):
                stack.append((word + (label,), target))

    def display_label(self, word: Sequence[Label], node: Optional[int] = None) -> str:
        """The decoration ``nu(w)`` shown to the user for the node at path ``w``.

        Covariant paths display the join of lower bounds; contravariant paths
        display the meet of upper bounds (Appendix D.4 / Figure 5).
        """
        if node is None:
            node = self.follow(word)
            if node is None:
                raise KeyError(f"no node at path {'.'.join(map(str, word))}")
        data = self.nodes[node]
        if path_variance(word) is Variance.COVARIANT:
            return data.lower
        return data.upper

    def is_recursive(self) -> bool:
        """True when the sketch denotes an infinite tree (the DFA has a cycle)."""
        state: Dict[int, int] = {}

        def visit(node: int) -> bool:
            state[node] = 1
            for target in self.edges.get(node, {}).values():
                if state.get(target, 0) == 1:
                    return True
                if state.get(target, 0) == 0 and visit(target):
                    return True
            state[node] = 2
            return False

        return visit(self.root)

    # -- bounds ------------------------------------------------------------------

    def apply_lower(self, node: int, element: str) -> None:
        data = self.nodes[node]
        data.lower = self.lattice.join(data.lower, element)

    def apply_upper(self, node: int, element: str) -> None:
        data = self.nodes[node]
        data.upper = self.lattice.meet(data.upper, element)

    # -- lattice of sketches (Figure 18) ------------------------------------------

    def _combine(self, other: "Sketch", meet: bool) -> "Sketch":
        """Product construction implementing Figure 18.

        For the sketch *meet* the language is the union of languages (a state
        survives if either operand has it); for the sketch *join* it is the
        intersection (both must have it).
        """
        result = Sketch(self.lattice)
        # Map (self node or None, other node or None) -> result node.
        mapping: Dict[Tuple[Optional[int], Optional[int]], int] = {}

        def get(pair: Tuple[Optional[int], Optional[int]]) -> int:
            if pair not in mapping:
                if pair == (self.root, other.root):
                    ident = result.root
                else:
                    ident = result.add_node()
                mapping[pair] = ident
            return mapping[pair]

        worklist: List[Tuple[Optional[int], Optional[int], Tuple[Label, ...]]] = [
            (self.root, other.root, ())
        ]
        visited: Set[Tuple[Optional[int], Optional[int]]] = set()
        while worklist:
            a, b, word = worklist.pop()
            if (a, b) in visited:
                continue
            visited.add((a, b))
            ident = get((a, b))
            node = result.nodes[ident]
            covariant = path_variance(word) is Variance.COVARIANT

            a_node = self.nodes[a] if a is not None else None
            b_node = other.nodes[b] if b is not None else None
            node.lower, node.upper = _combine_bounds(
                self.lattice, a_node, b_node, covariant=covariant, meet=meet
            )

            a_edges = self.edges.get(a, {}) if a is not None else {}
            b_edges = other.edges.get(b, {}) if b is not None else {}
            if meet:
                labels = set(a_edges) | set(b_edges)
            else:
                labels = set(a_edges) & set(b_edges)
            for label in labels:
                na = a_edges.get(label)
                nb = b_edges.get(label)
                child = get((na, nb))
                result.add_edge(ident, label, child)
                worklist.append((na, nb, word + (label,)))
        return result

    def meet(self, other: "Sketch") -> "Sketch":
        """``X ⊓ Y``: union of capabilities -- the more constrained sketch."""
        return self._combine(other, meet=True)

    def join(self, other: "Sketch") -> "Sketch":
        """``X ⊔ Y``: intersection of capabilities -- the common generalization."""
        return self._combine(other, meet=False)

    def leq(self, other: "Sketch", max_depth: int = 8) -> bool:
        """The partial order ``X ⊑ Y`` compatible with meet/join.

        ``X ⊑ Y`` requires ``L(Y) ⊆ L(X)`` and, on common paths, the node
        labels to be ordered according to the path variance.
        """
        # BFS over the product of reachable states of other within self.
        worklist: List[Tuple[int, int, Tuple[Label, ...]]] = [(self.root, other.root, ())]
        visited: Set[Tuple[int, int]] = set()
        while worklist:
            a, b, word = worklist.pop()
            if (a, b) in visited:
                continue
            visited.add((a, b))
            a_node, b_node = self.nodes[a], other.nodes[b]
            if path_variance(word) is Variance.COVARIANT:
                if not self.lattice.leq(a_node.lower, b_node.lower) and b_node.lower != BOTTOM:
                    return False
            else:
                if not self.lattice.leq(b_node.upper, a_node.upper) and a_node.upper != TOP:
                    return False
            for label, b_target in other.edges.get(b, {}).items():
                a_target = self.edges.get(a, {}).get(label)
                if a_target is None:
                    return False
                if len(word) < max_depth:
                    worklist.append((a_target, b_target, word + (label,)))
        return True

    # -- misc ----------------------------------------------------------------------

    def copy(self) -> "Sketch":
        out = Sketch(self.lattice)
        mapping = {self.root: out.root}
        for ident, node in self.nodes.items():
            if ident not in mapping:
                mapping[ident] = out.add_node()
            target = out.nodes[mapping[ident]]
            target.lower, target.upper = node.lower, node.upper
        for src, edges in self.edges.items():
            for label, dst in edges.items():
                if dst not in mapping:
                    mapping[dst] = out.add_node()
                    out.nodes[mapping[dst]].lower = self.nodes[dst].lower
                    out.nodes[mapping[dst]].upper = self.nodes[dst].upper
                out.add_edge(mapping[src], label, mapping[dst])
        return out

    def to_json(self) -> Dict[str, object]:
        """A JSON-able representation of the reachable automaton.

        Node identifiers are renumbered along a deterministic traversal so two
        semantically equal sketches built along different histories serialize
        identically; :meth:`from_json` is the inverse up to node numbering.
        """
        order: Dict[int, int] = {}
        worklist = [self.root]
        while worklist:
            current = worklist.pop(0)
            if current in order:
                continue
            order[current] = len(order)
            for _, target in sorted(
                self.edges.get(current, {}).items(), key=lambda kv: str(kv[0])
            ):
                if target not in order:
                    worklist.append(target)
        nodes = [
            [order[ident], self.nodes[ident].lower, self.nodes[ident].upper]
            for ident in sorted(order, key=order.get)
        ]
        edges = sorted(
            [order[src], str(label), order[dst]]
            for src in order
            for label, dst in self.edges.get(src, {}).items()
        )
        return {"nodes": nodes, "edges": edges}

    @classmethod
    def from_json(cls, data: Dict[str, object], lattice: TypeLattice) -> "Sketch":
        """Rebuild a sketch serialized by :meth:`to_json`."""
        sketch = cls(lattice)
        mapping: Dict[int, int] = {}
        for ident, lower, upper in data.get("nodes", ()):
            # A lattice has few elements: share one string per name.
            lower, upper = sys.intern(lower), sys.intern(upper)
            if not mapping:
                mapping[ident] = sketch.root
                root = sketch.nodes[sketch.root]
                root.lower, root.upper = lower, upper
            else:
                mapping[ident] = sketch.add_node(lower, upper)
        for src, label_text, dst in data.get("edges", ()):
            sketch.add_edge(mapping[src], parse_label(label_text), mapping[dst])
        return sketch

    def to_dot(self, name: str = "sketch") -> str:
        """GraphViz rendering, handy for debugging and documentation."""
        lines = [f"digraph {name} {{"]
        for ident, node in self.nodes.items():
            if ident not in self.reachable():
                continue
            label = f"{node.lower}/{node.upper}"
            shape = "doublecircle" if ident == self.root else "circle"
            lines.append(f'  n{ident} [label="{label}", shape={shape}];')
        for src, edges in self.edges.items():
            if src not in self.reachable():
                continue
            for label, dst in edges.items():
                lines.append(f'  n{src} -> n{dst} [label="{label}"];')
        lines.append("}")
        return "\n".join(lines)

    def __str__(self) -> str:
        parts = []
        for word, node in sorted(self.paths(max_depth=4), key=lambda p: (len(p[0]), str(p[0]))):
            decorated = self.display_label(word, node)
            path = ".".join(str(lab) for lab in word) or "<root>"
            parts.append(f"{path}: {decorated}")
        return "\n".join(parts)


def _combine_bounds(
    lattice: TypeLattice,
    a: Optional[SketchNode],
    b: Optional[SketchNode],
    covariant: bool,
    meet: bool,
) -> Tuple[str, str]:
    """Node-label combination of Figure 18 for meet/join of sketches."""
    if a is None and b is None:
        return BOTTOM, TOP
    if a is None:
        return b.lower, b.upper
    if b is None:
        return a.lower, a.upper
    if meet:
        # X ⊓ Y: covariant labels meet, contravariant labels join.
        if covariant:
            return lattice.meet(a.lower, b.lower), lattice.meet(a.upper, b.upper)
        return lattice.join(a.lower, b.lower), lattice.join(a.upper, b.upper)
    # X ⊔ Y: covariant labels join, contravariant labels meet.
    if covariant:
        return lattice.join(a.lower, b.lower), lattice.join(a.upper, b.upper)
    return lattice.meet(a.lower, b.lower), lattice.meet(a.upper, b.upper)


def top_sketch(lattice: TypeLattice) -> Sketch:
    """The top element of the sketch lattice: the single-node sketch labelled TOP."""
    sketch = Sketch(lattice)
    sketch.nodes[sketch.root].lower = TOP
    return sketch
