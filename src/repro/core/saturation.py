"""The saturation algorithm (Algorithm D.2) as a worklist fixpoint over ints.

Saturation adds shortcut "null" edges to the constraint graph so that every
derivable subtype judgement is witnessed by a *reduced* path: one whose forget
operations all precede its recall operations.  The algorithm maintains, for
each node ``x``, a set ``R(x)`` of *reaching forgets*: pairs ``(l, origin)``
recording that some path from ``origin`` to ``x`` has exactly one pending
forgotten label ``l``.

Rules (cf. Algorithm D.2):

* a forget edge ``a --forget l--> b`` seeds ``(l, a)`` into ``R(b)``;
* null edges propagate: ``R(target) >= R(source)``;
* when ``x --recall l--> y`` exists and ``(l, origin)`` is in ``R(x)``, the
  pending label can be discharged: add the shortcut edge ``origin --> y``;
* the lazy S-POINTER rule: at a *contravariant* node ``(d, -)``, a pending
  ``.store`` may be replaced by a pending ``.load`` on the covariant twin
  ``(d, +)`` and vice versa.  This simulates the infinitely many
  ``d.store <= d.load`` axioms without instantiating them.

Unlike the original Gauss-Seidel formulation (which re-scanned every node and
edge until a whole round ran without change -- retained verbatim as the test
oracle in ``tests/core/naive_reference.py``), the fixpoint here is driven by a
worklist of *newly derived facts*, and the whole loop runs on the graph's
integer kernel: a node is its ``nid``, a fact packs as
``origin_nid * (num_labels + 1) + lid + 1`` and a worklist item as
``fact * num_nodes + nid`` -- set membership, the deque and the S-POINTER
twin lookup (``nid ^ 1``) are all small-int operations with no object
hashing.  Work is proportional to facts derived:

* each fact is enqueued at each node exactly once (set-membership guarded);
* popping a fact propagates it along the node's current null out-ids,
  discharges it against the node's recall index (an O(1)
  :meth:`~repro.core.graph.ConstraintGraph.recall_ids` dict hit), and
  applies the lazy S-POINTER swap if the node is contravariant (odd nid);
* when a discharge creates a *new* shortcut edge
  (:meth:`~repro.core.graph.ConstraintGraph.add_saturation_id`), every fact
  already reaching its origin is propagated across the just-dirtied edge
  immediately; facts arriving at the origin later flow across it through the
  (mutation-aware) null-adjacency index.

Invariant: whenever the worklist is empty, ``R`` is closed under all four
rules -- facts only enter ``R`` through ``_push`` which enqueues them, and
every rule application for a fact happens when that fact is popped (edges
created later are covered by the dirtied-edge replay above).
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Set

from ..obs.trace import checkpoint
from .graph import ConstraintGraph
from .labels import LOAD, STORE

#: ``checkpoint()`` once per this many pushes (a power of two, minus one).
#: Pushes, not pops: one pop can replay every fact reaching an origin.
_CHECKPOINT_MASK = (1 << 10) - 1


def saturate(graph: ConstraintGraph, max_iterations: int = 10_000_000) -> int:
    """Saturate ``graph`` in place; returns the number of shortcut edges added.

    ``max_iterations`` bounds worklist pops as a defensive guard only; the
    fixpoint always terminates because facts are drawn from the finite set
    ``labels x nodes`` and each is enqueued at each node at most once.
    """
    forget_recs = graph.forget_records()
    if not forget_recs:
        return 0

    # Pack bases.  Labels are fixed for the whole run: saturation only adds
    # unlabeled shortcut edges, so the label pool cannot grow under us.
    num_nodes = graph.num_nodes
    lp_base = len(graph._labels) + 1  # lidp digits; lidp = lid + 1
    load_lid = graph._labels.ids.get(LOAD, -2)
    store_lid = graph._labels.ids.get(STORE, -2)

    #: per-nid sets of packed facts ``origin_nid * lp_base + lid + 1``.
    reaching: List[Optional[Set[int]]] = [None] * num_nodes
    pending = deque()
    pending_append = pending.append
    pushes = 0

    def _push(nid: int, fact: int) -> None:
        nonlocal pushes
        pushes += 1
        if not pushes & _CHECKPOINT_MASK:
            checkpoint()
        facts = reaching[nid]
        if facts is None:
            facts = set()
            reaching[nid] = facts
        if fact not in facts:
            facts.add(fact)
            pending_append(fact * num_nodes + nid)

    # Seed from forget edges.
    for src, lid, tgt in forget_recs:
        _push(tgt, src * lp_base + lid + 1)

    null_out = graph._null_out
    recall = graph._recall
    add_saturation = graph.add_saturation_id

    added = 0
    iterations = 0
    while pending:
        iterations += 1
        if iterations > max_iterations:  # pragma: no cover - defensive guard
            raise RuntimeError("saturation did not converge")
        fact, nid = divmod(pending.popleft(), num_nodes)

        # Propagate the new fact along null out-edges.
        for target in null_out[nid]:
            _push(target, fact)

        origin, lidp = divmod(fact, lp_base)
        lid = lidp - 1

        # Discharge at matching recall edges by adding shortcut edges.
        by_label = recall[nid]
        if by_label is not None:
            for target in by_label.get(lid, _EMPTY):
                if add_saturation(origin, target):
                    added += 1
                    # The new edge dirties origin -> target: replay every
                    # fact already reaching the origin across it.
                    existing = reaching[origin]
                    if existing:
                        for known in list(existing):
                            _push(target, known)

        # Lazy S-POINTER: swap pending store/load between the contravariant
        # node (odd nid) and its covariant twin (nid ^ 1).  A swap whose
        # partner label never occurs in the graph is dropped: with no
        # ``.store``/``.load`` recall edge to discharge it, the fact could
        # never contribute an edge.
        if nid & 1:
            if lid == store_lid:
                if load_lid >= 0:
                    _push(nid ^ 1, origin * lp_base + load_lid + 1)
            elif lid == load_lid:
                if store_lid >= 0:
                    _push(nid ^ 1, origin * lp_base + store_lid + 1)

    return added


def saturated(graph: ConstraintGraph) -> ConstraintGraph:
    """Convenience wrapper returning the (same, mutated) saturated graph."""
    saturate(graph)
    return graph


_EMPTY: List[int] = []
