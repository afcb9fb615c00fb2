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
variables and labels are the dense ids of the SCC's
:class:`~repro.core.intern.SccEncoding`, a node is ``did * 2 +
variance_bit``, and every index the hot algorithms touch -- per-node
out-records, null adjacency, recall-successors-by-label, the forget list --
is a flat list/dict over those ints.  Saturation and the memoized path
traversal run entirely on this layer (``_out_recs`` / ``_null_out`` /
``_recall`` / ``add_saturation_id``); ``add_saturation_id`` keeps every
index coherent, which is what lets saturation propagate along an edge the
moment it is created.  The only object entry point is :meth:`node_id`,
which :func:`~repro.core.simplify.derives` uses to find a variable's node.

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

from typing import Dict, Iterable, List, Optional, Set, Tuple

from .constraints import ConstraintSet
from .intern import SccEncoding
from .labels import Variance
from .variables import DerivedTypeVariable


#: integer edge kinds; null kinds sort below K_FORGET so the hot loops test
#: ``kind < K_FORGET``.
K_ORIGINAL = 0
K_SATURATION = 1
K_FORGET = 2
K_RECALL = 3


class ConstraintGraph:
    """The finite graph whose paths encode derivations over a constraint set."""

    def __init__(
        self,
        constraints: Optional[ConstraintSet] = None,
        extra_dtvs: Iterable[DerivedTypeVariable] = (),
        encoding: Optional[SccEncoding] = None,
    ) -> None:
        if encoding is None:
            encoding = SccEncoding.from_constraints(constraints, extra_dtvs=extra_dtvs)
        #: the encoding the graph was built from: per-did strings, the label
        #: pool and the per-did prefix/last-label arrays.
        self.encoding = encoding
        self._names = encoding.names
        self._labels = encoding.labels
        self._prefix = encoding.prefix
        self._last_lid = encoding.last_lid
        count = 2 * len(self._names)
        # Per-nid flat indexes (two slots per dtv):
        #: out-records ``(kind, lidp, target_nid)`` in insertion order.
        self._out_recs: List[List[Tuple[int, int, int]]] = [[] for _ in range(count)]
        #: targets of null (original + saturation) out-edges.
        self._null_out: List[List[int]] = [[] for _ in range(count)]
        #: recall successors by label: ``lid -> [target_nid, ...]`` (or None).
        self._recall: List[Optional[Dict[int, List[int]]]] = [None] * count
        #: every edge as an int record ``(src_nid, tgt_nid, kind, lidp)``, in
        #: deterministic insertion order.
        self._edge_list: List[Tuple[int, int, int, int]] = []
        #: duplicate guard for edges added after construction.
        self._edge_seen: Set[Tuple[int, int, int, int]] = set()
        #: forget records ``(src_nid, lid, tgt_nid)`` (saturation seeds).
        self._forget_recs: List[Tuple[int, int, int]] = []

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

    def _add_edge_ids(self, src: int, tgt: int, kind: int, lidp: int) -> bool:
        """Add an int edge record after construction, updating every index;
        True if it was new.  The duplicate guard covers edges added after
        construction, which is all saturation can collide with (its kind
        never occurs at construction)."""
        record = (src, tgt, kind, lidp)
        if record in self._edge_seen:
            return False
        self._edge_seen.add(record)
        self._edge_list.append(record)
        self._out_recs[src].append((kind, lidp, tgt))
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
        """Number of nodes (two per derived type variable)."""
        return 2 * len(self._names)

    def node_id(self, dtv: DerivedTypeVariable, variance: Variance) -> Optional[int]:
        """The nid of ``dtv`` under ``variance``, or ``None`` if it is not in the graph."""
        did = self.encoding.did(dtv)
        if did is None:
            return None
        return did * 2 + (1 if variance is Variance.CONTRAVARIANT else 0)

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

    def __len__(self) -> int:
        return len(self._edge_list)


_EMPTY_IDS: List[int] = []
