"""The constraint graph underlying the pushdown-system encoding (Appendix D.1/D.2).

Every proof in the normal form of Theorem B.1 is a chain of axioms glued by
S-TRANS with S-FIELD applications wrapped around them.  Appendix D encodes
these proofs as transition sequences of an unconstrained pushdown system; this
module realizes the equivalent *forget/recall edge* formulation:

* a node is a pair (derived type variable, variance tag);
* each constraint ``A <= B`` contributes a covariant edge ``(A,+) -> (B,+)``
  and its contravariant dual ``(B,-) -> (A,-)``;
* for every derived type variable ``x.l`` present in the graph there is a
  *forget* edge ``(x.l, v) -> (x, v*<l>)`` (push the label onto the pending
  stack -- the ``push l`` of the StackOp weight domain of Appendix C) and a
  *recall* edge ``(x, v*<l>) -> (x.l, v)`` (pop it back).

A path through the graph is a valid derivation; the pending-label bookkeeping
needed to read a subtype judgement off a path lives in :mod:`repro.core.simplify`.
The saturation algorithm of Appendix D.3 (:mod:`repro.core.saturation`) adds
shortcut edges so every derivable judgement is witnessed by a path whose
forgets all precede its recalls.

The representation is an **integer kernel** (see DESIGN.md): derived type
variables and labels are the dense-ID pools of the constraint set's
:class:`~repro.core.intern.SccEncoding`, a node is ``did * 2 +
variance_bit``, and every index the hot algorithms touch -- per-node
out-records, null adjacency, recall-successors-by-label, the forget list --
is a flat list/dict over those ints.  Saturation and the memoized path
traversal run entirely on this layer (``_out_recs`` / ``_null_out`` /
``_recall`` / ``add_saturation_id``); the :class:`Node`/:class:`Edge` object
API is a decode view kept for tests, debugging and the naive reference
oracles, materialized lazily and cached per node id.  ``add_edge`` keeps
every index coherent, which is what lets saturation propagate along an edge
the moment it is created.

The graph does no sorting of its own: the encoding is the only place the
canonical order is established (dtv ids in sorted-by-``str`` order, the
constraints sorted once), and the constructor bulk-builds every index from
it -- original edges in constraint order, then forget/recall pairs in dtv-id
order -- into preallocated per-nid lists, with no per-edge duplicate check
(construction cannot produce duplicates: the constraints form a set and each
non-base variable contributes one forget/recall pair per variance).  The
solver passes the encoding shape inference already built; a graph built from
a bare constraint set encodes it itself.  So the whole int layer -- and
therefore every downstream iteration order -- is a pure function of the
constraint set, reproducible across processes regardless of
``PYTHONHASHSEED``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .constraints import ConstraintSet
from .intern import SccEncoding
from .labels import Label, Variance
from .variables import DerivedTypeVariable


@dataclass(frozen=True, order=True)
class Node:
    """A derived type variable tagged with the current variance of its context."""

    dtv: DerivedTypeVariable
    variance: Variance

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.dtv, self.variance)))

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __str__(self) -> str:
        tag = "+" if self.variance is Variance.COVARIANT else "-"
        return f"{self.dtv}.{tag}"


class EdgeKind(enum.Enum):
    ORIGINAL = "original"      # a constraint axiom (an empty stack operation)
    FORGET = "forget"          # push the final label onto the pending stack
    RECALL = "recall"          # pop a pending label / extend the source variable
    SATURATION = "saturation"  # shortcut added by Algorithm D.2


#: integer edge kinds used by the int layer; null kinds sort below K_FORGET so
#: the hot loops test ``kind < K_FORGET`` instead of comparing enum members.
K_ORIGINAL = 0
K_SATURATION = 1
K_FORGET = 2
K_RECALL = 3

_KIND_OBJS = (EdgeKind.ORIGINAL, EdgeKind.SATURATION, EdgeKind.FORGET, EdgeKind.RECALL)
_KIND_IDS = {
    EdgeKind.ORIGINAL: K_ORIGINAL,
    EdgeKind.SATURATION: K_SATURATION,
    EdgeKind.FORGET: K_FORGET,
    EdgeKind.RECALL: K_RECALL,
}


@dataclass(frozen=True, order=True)
class Edge:
    source: Node
    target: Node
    kind: EdgeKind
    label: Optional[Label] = None

    def __str__(self) -> str:
        if self.label is not None:
            return f"{self.source} --{self.kind.value} {self.label}--> {self.target}"
        return f"{self.source} --{self.kind.value}--> {self.target}"

    @property
    def is_null(self) -> bool:
        """True for edges that do not touch the pending label stack."""
        return self.kind in (EdgeKind.ORIGINAL, EdgeKind.SATURATION)


class ConstraintGraph:
    """The finite graph whose paths encode derivations over a constraint set."""

    def __init__(
        self,
        constraints: ConstraintSet,
        extra_dtvs: Iterable[DerivedTypeVariable] = (),
        encoding: Optional[SccEncoding] = None,
    ) -> None:
        if encoding is None:
            encoding = SccEncoding(constraints, extra_dtvs=extra_dtvs)
        self.constraints = constraints
        #: dense-ID pools adopted from the encoding: ``did`` per variable,
        #: ``lid`` per label, with the per-did prefix/last-label arrays
        #: (extended by the object API when it interns a new variable).
        self._dtvs = encoding.dtvs
        self._labels = encoding.labels
        self._prefix = encoding.prefix
        self._last_lid = encoding.last_lid
        count = 2 * len(self._dtvs)
        # Per-nid flat indexes (two slots per dtv):
        #: does the node participate in the graph (constructor or edge endpoint)?
        self._present: List[bool] = [True] * count
        self._num_present = count
        #: out-records ``(kind, lidp, target_nid)`` in insertion order.
        self._out_recs: List[List[Tuple[int, int, int]]] = [[] for _ in range(count)]
        #: targets of null (original + saturation) out-edges.
        self._null_out: List[List[int]] = [[] for _ in range(count)]
        #: recall successors by label: ``lid -> [target_nid, ...]`` (or None).
        self._recall: List[Optional[Dict[int, List[int]]]] = [None] * count
        #: lazily decoded Node object per nid.
        self._node_objs: List[Optional[Node]] = [None] * count
        #: every edge as an int record ``(src_nid, tgt_nid, kind, lidp)``, in
        #: deterministic insertion order.
        self._edge_list: List[Tuple[int, int, int, int]] = []
        #: duplicate guard for edges added after construction.
        self._edge_seen: Set[Tuple[int, int, int, int]] = set()
        #: forget records ``(src_nid, lid, tgt_nid)`` (saturation seeds).
        self._forget_recs: List[Tuple[int, int, int]] = []
        self._nodes_cache: Optional[Set[Node]] = None
        #: decoded out-edge lists per nid (views for the object API).
        self._out_edge_cache: Dict[int, List[Edge]] = {}

        out_recs = self._out_recs
        null_out = self._null_out
        edge_list = self._edge_list
        for left, right in encoding.subtype:
            a = left * 2
            b = right * 2
            out_recs[a].append((K_ORIGINAL, 0, b))
            null_out[a].append(b)
            out_recs[b + 1].append((K_ORIGINAL, 0, a + 1))
            null_out[b + 1].append(a + 1)
            edge_list.append((a, b, K_ORIGINAL, 0))
            edge_list.append((b + 1, a + 1, K_ORIGINAL, 0))

        recall = self._recall
        forget_recs = self._forget_recs
        flips = [
            0 if label.variance is Variance.COVARIANT else 1 for label in self._labels.items
        ]
        last_lid = self._last_lid
        for did, pid in enumerate(self._prefix):
            if pid < 0:
                continue
            lid = last_lid[did]
            lidp = lid + 1
            flip = flips[lid]
            for bit in (0, 1):
                inner = did * 2 + bit
                outer = pid * 2 + (bit ^ flip)
                out_recs[inner].append((K_FORGET, lidp, outer))
                forget_recs.append((inner, lid, outer))
                out_recs[outer].append((K_RECALL, lidp, inner))
                by_label = recall[outer]
                if by_label is None:
                    by_label = {}
                    recall[outer] = by_label
                by_label.setdefault(lid, []).append(inner)
                edge_list.append((inner, outer, K_FORGET, lidp))
                edge_list.append((outer, inner, K_RECALL, lidp))

    # -- int-layer mutation ---------------------------------------------------------

    def _intern_dtv(self, dtv: DerivedTypeVariable) -> int:
        """The variable's did, interning it (and its prefixes, keeping the
        pool prefix-closed) for the object API."""
        did = self._dtvs.ids.get(dtv)
        if did is None:
            if dtv.labels:
                pid = self._intern_dtv(dtv.prefix)
                lid = self._labels.intern(dtv.labels[-1])
            else:
                pid = lid = -1
            did = self._dtvs.intern(dtv)
            self._prefix.append(pid)
            self._last_lid.append(lid)
            for _ in range(2):
                self._present.append(False)
                self._out_recs.append([])
                self._null_out.append([])
                self._recall.append(None)
                self._node_objs.append(None)
        return did

    def _materialize(self, nid: int) -> None:
        if not self._present[nid]:
            self._present[nid] = True
            self._num_present += 1
            self._nodes_cache = None

    def _add_edge_ids(self, src: int, tgt: int, kind: int, lidp: int) -> bool:
        """Add an int edge record after construction, updating every index;
        True if it was new.  The duplicate guard covers edges added after
        construction, which is all saturation can collide with (its kind
        never occurs at construction); :meth:`add_edge` checks the rest."""
        record = (src, tgt, kind, lidp)
        if record in self._edge_seen:
            return False
        self._edge_seen.add(record)
        self._materialize(src)
        self._materialize(tgt)
        self._edge_list.append(record)
        self._out_recs[src].append((kind, lidp, tgt))
        self._out_edge_cache.pop(src, None)
        if kind < K_FORGET:
            self._null_out[src].append(tgt)
        elif kind == K_FORGET:
            self._forget_recs.append((src, lidp - 1, tgt))
        else:  # K_RECALL
            by_label = self._recall[src]
            if by_label is None:
                by_label = {}
                self._recall[src] = by_label
            by_label.setdefault(lidp - 1, []).append(tgt)
        return True

    def add_saturation_id(self, src: int, tgt: int) -> bool:
        """Hot-path shortcut-edge insertion (Algorithm D.2 discharges)."""
        return self._add_edge_ids(src, tgt, K_SATURATION, 0)

    # -- int-layer queries ----------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of nodes without decoding them (what the stats record)."""
        return self._num_present

    def out_records(self, nid: int) -> List[Tuple[int, int, int]]:
        """Int out-records ``(kind, lidp, target_nid)`` of one node (live)."""
        return self._out_recs[nid]

    def null_out_ids(self, nid: int) -> List[int]:
        """Target nids of null out-edges (live index; duplicates possible
        when an original and a saturation edge connect the same pair)."""
        return self._null_out[nid]

    def recall_ids(self, nid: int, lid: int) -> List[int]:
        """Target nids of ``nid --recall lid-->`` edges."""
        by_label = self._recall[nid]
        if by_label is None:
            return _EMPTY_IDS
        return by_label.get(lid, _EMPTY_IDS)

    def forget_records(self) -> List[Tuple[int, int, int]]:
        """Every forget edge as ``(src_nid, lid, tgt_nid)`` in insertion order."""
        return self._forget_recs

    # -- object-view decode ---------------------------------------------------------

    def _node_obj(self, nid: int) -> Node:
        node = self._node_objs[nid]
        if node is None:
            variance = Variance.CONTRAVARIANT if nid & 1 else Variance.COVARIANT
            node = Node(self._dtvs.items[nid >> 1], variance)
            self._node_objs[nid] = node
        return node

    def _node_nid(self, node: Node, create: bool = False) -> Optional[int]:
        """The nid of an object-API node; interns/materializes when ``create``."""
        if create:
            did = self._intern_dtv(node.dtv)
            nid = did * 2 + (1 if node.variance is Variance.CONTRAVARIANT else 0)
            self._materialize(nid)
            return nid
        did = self._dtvs.ids.get(node.dtv)
        if did is None:
            return None
        nid = did * 2 + (1 if node.variance is Variance.CONTRAVARIANT else 0)
        return nid if self._present[nid] else None

    def _decode_edge(self, record: Tuple[int, int, int, int]) -> Edge:
        src, tgt, kind, lidp = record
        label = None if lidp == 0 else self._labels.items[lidp - 1]
        return Edge(self._node_obj(src), self._node_obj(tgt), _KIND_OBJS[kind], label)

    # -- object-view mutation -------------------------------------------------------

    def add_edge(self, edge: Edge) -> bool:
        """Add an edge, updating every index; returns True if it was new."""
        src = self._node_nid(edge.source, create=True)
        tgt = self._node_nid(edge.target, create=True)
        lidp = 0 if edge.label is None else self._labels.intern(edge.label) + 1
        kind = _KIND_IDS[edge.kind]
        if (kind, lidp, tgt) in self._out_recs[src]:
            return False
        return self._add_edge_ids(src, tgt, kind, lidp)

    # -- object-view queries --------------------------------------------------------

    @property
    def nodes(self) -> Set[Node]:
        """All nodes, decoded (cached until a new node appears)."""
        cache = self._nodes_cache
        if cache is None:
            node_obj = self._node_obj
            cache = {
                node_obj(nid)
                for nid, present in enumerate(self._present)
                if present
            }
            self._nodes_cache = cache
        return cache

    def out_edges(self, node: Node) -> List[Edge]:
        """All out-edges of ``node``, decoded from the int records.

        The returned list is a cached decode view -- do not mutate it; it is
        rebuilt when an edge is added at this node.
        """
        nid = self._node_nid(node)
        if nid is None:
            return _EMPTY_EDGES
        cached = self._out_edge_cache.get(nid)
        if cached is None:
            cached = [
                self._decode_edge((nid, tgt, kind, lidp))
                for kind, lidp, tgt in self._out_recs[nid]
            ]
            self._out_edge_cache[nid] = cached
        return cached

    def in_edges(self, node: Node) -> List[Edge]:
        """All in-edges of ``node``, decoded from the int records."""
        nid = self._node_nid(node)
        if nid is None:
            return _EMPTY_EDGES
        return [self._decode_edge(record) for record in self._edge_list if record[1] == nid]

    def null_out_edges(self, node: Node) -> List[Edge]:
        """Out-edges that leave the pending stack alone (original + saturation)."""
        return [edge for edge in self.out_edges(node) if edge.is_null]

    def edges(self) -> Iterator[Edge]:
        """All edges in deterministic (insertion) order."""
        decode = self._decode_edge
        return (decode(record) for record in self._edge_list)

    def has_edge(
        self,
        source: Node,
        target: Node,
        kind: Optional[EdgeKind] = None,
        label: Optional[Label] = None,
    ) -> bool:
        src = self._node_nid(source)
        tgt = self._node_nid(target)
        if src is None or tgt is None:
            return False
        want_kind = None if kind is None else _KIND_IDS[kind]
        if label is None:
            want_lidp = None
        else:
            lid = self._labels.ids.get(label)
            if lid is None:
                return False
            want_lidp = lid + 1
        for rec_kind, rec_lidp, rec_tgt in self._out_recs[src]:
            if rec_tgt != tgt:
                continue
            if want_kind is not None and rec_kind != want_kind:
                continue
            if want_lidp is not None and rec_lidp != want_lidp:
                continue
            return True
        return False

    def __len__(self) -> int:
        return len(self._edge_list)


_EMPTY_EDGES: List[Edge] = []
_EMPTY_IDS: List[int] = []
