"""Constraint-set simplification (section 5) over the saturated constraint graph.

After saturation every derivable judgement ``A.u <= B.v`` is witnessed by a
path through the constraint graph.  Walking a path while tracking

* ``alpha`` -- labels appended to the *source* variable (recall edges taken
  with an empty pending stack), and
* ``beta`` -- the pending stack of forgotten labels (forget edges push, recall
  edges pop),

lets us read the judgement off the endpoints: the left-hand side is
``source.alpha``, the right-hand side is ``end.reverse(beta)``, and the
orientation flips when ``alpha`` is contravariant (see DESIGN.md section on
path simplification for the invariant).

``simplify_constraints`` enumerates the judgements witnessed by paths between
interesting variables whose interior nodes mention only *uninteresting*
variables (Definition D.1) and returns the resulting constraint set.  This is
the constraint simplification used to build procedure type schemes: it
eliminates procedure-local temporaries while preserving every interesting
consequence.

The traversal is a *memoized state search* shared across all interesting
sources, run entirely over the graph's integer kernel.  The exploration state
is ``(node, len(alpha), beta)``: completions from a state depend only on the
node, the pending stack and how much label budget alpha has left -- never on
alpha's content or on which source got there.  States pack into single ints
(``(beta * (depth_bound + 1) + depth) * num_nodes + nid`` with ``beta`` a
base-``num_labels + 1`` digit string, top of stack least significant), so the
seen-set, predecessor map and completion sets are all small-int dict/set
operations; labels and derived type variables are only decoded at the final
judgement read-off.  The forward pass discovers each interior state once
(where the old per-source recursive DFS re-walked shared interior subpaths
for every source and carried a global path budget that silently truncated
results on large graphs); a reverse fixpoint then propagates terminal
judgements back to the sources.  The state search also witnesses judgements
the old elementary enumeration missed: paths that revisit a node with a
*different* pending stack (recursive structures deriving e.g.
``list.load.next.load.next <= t``) are valid derivations and are enumerated
up to the depth bound, matching the deduction rules of Figure 3.

``constant_bound_ids`` performs the Appendix D.4 queries: which derived
type variables are bounded above/below by which type constants, reported as
dtv ids plus packed label words.  The solver uses it to decorate sketch nodes
with lattice elements; ``derive_constant_bounds`` is its decoded form.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Set, Tuple

from ..obs.trace import checkpoint
from .constraints import ConstraintSet, SubtypeConstraint
from .graph import ConstraintGraph, K_FORGET, K_RECALL
from .labels import Label, Variance, path_variance
from .lattice import TypeLattice
from .saturation import saturate
from .variables import DerivedTypeVariable

#: ``constant_bound_ids`` calls ``checkpoint()`` once per this many visited
#: states (a power of two, minus one).
_CHECKPOINT_MASK = (1 << 6) - 1


def _decode_word(packed: int, base: int, labels: List[Label]) -> Tuple[Label, ...]:
    """Unpack a base-``base`` digit string, least significant digit first."""
    out: List[Label] = []
    while packed:
        packed, digit = divmod(packed, base)
        out.append(labels[digit - 1])
    return tuple(out)


def simplify_constraints(
    constraints: ConstraintSet,
    interesting: Iterable[str],
    graph: Optional[ConstraintGraph] = None,
    max_label_depth: int = 6,
) -> ConstraintSet:
    """Compute a simplification of ``constraints`` relative to ``interesting`` bases.

    Every *interesting* consequence of ``constraints`` (Definition 5.1) whose
    derivation stays within the label-depth bound is entailed by the returned
    constraint set.  Interior variables (temporaries) are eliminated.

    The memoized traversal visits each ``(node, alpha-depth, beta-stack)``
    state once, so it needs no path budget and never truncates.
    """
    interesting_bases = set(interesting)
    if graph is None:
        graph = ConstraintGraph(constraints)
        saturate(graph)

    depth_bound = max_label_depth
    encoding = graph.encoding
    labels = graph._labels.items
    num_nodes = graph.num_nodes
    lp_base = len(labels) + 1
    #: one more digit than any suffix/stack can hold, so a completion packs
    #: as ``(suffix * suffix_base + beta) * num_nodes + end_nid``.
    suffix_base = lp_base ** (depth_bound + 1)
    depth_base = depth_bound + 1

    out_recs = graph._out_recs
    interesting_dtv = [base in interesting_bases for base in encoding.bases()]

    # -- forward pass: discover the shared state graph --------------------------
    #
    # States reached at interesting nodes become terminal *completions* of the
    # state they were stepped from (elementary proofs stop at interesting
    # variables); only uninteresting states are expanded.  Source states are
    # expanded too -- walks begin there -- without stopping terminal arrivals
    # from also being recorded at them.
    seen: Set[int] = set()
    #: (state key, nid, alpha depth, packed beta, beta length)
    frontier: Deque[Tuple[int, int, int, int, int]] = deque()
    #: state key -> {(predecessor key, lidp appended on that transition | 0)}
    preds: Dict[int, Set[Tuple[int, int]]] = {}
    #: state key -> packed completions contributed by terminal transitions
    comp: Dict[int, Set[int]] = {}
    propagate: Deque[Tuple[int, int]] = deque()

    def _complete(key: int, completion: int) -> None:
        entries = comp.get(key)
        if entries is None:
            entries = set()
            comp[key] = entries
        if completion not in entries:
            entries.add(completion)
            propagate.append((key, completion))

    # A source state has empty alpha and beta, so its key is just its nid.
    initial_nids = [nid for nid in range(num_nodes) if interesting_dtv[nid >> 1]]
    for nid in initial_nids:
        if nid not in seen:
            seen.add(nid)
            frontier.append((nid, nid, 0, 0, 0))

    while frontier:
        key, nid, depth, beta, beta_len = frontier.popleft()
        for kind, lidp, target in out_recs[nid]:
            appended = 0
            if kind == K_FORGET:
                if beta_len >= depth_bound:
                    continue
                next_beta = beta * lp_base + lidp
                next_blen = beta_len + 1
                next_depth = depth
            elif kind == K_RECALL:
                if beta:
                    if beta % lp_base != lidp:
                        continue
                    next_beta = beta // lp_base
                    next_blen = beta_len - 1
                    next_depth = depth
                else:
                    if depth >= depth_bound:
                        continue
                    next_beta = 0
                    next_blen = 0
                    next_depth = depth + 1
                    appended = lidp
            else:  # null edge
                next_beta = beta
                next_blen = beta_len
                next_depth = depth
            if interesting_dtv[target >> 1]:
                _complete(key, (appended * suffix_base + next_beta) * num_nodes + target)
                continue
            next_key = (next_beta * depth_base + next_depth) * num_nodes + target
            entry = preds.get(next_key)
            if entry is None:
                entry = set()
                preds[next_key] = entry
            entry.add((key, appended))
            if next_key not in seen:
                seen.add(next_key)
                frontier.append((next_key, target, next_depth, next_beta, next_blen))

    # -- reverse fixpoint: flow completions back towards the sources ------------
    #
    # A transition that appended label ``l`` turns a successor completion with
    # alpha suffix ``w`` into one with suffix ``l.w`` (a prepend is a new
    # least-significant digit); depth bookkeeping in the forward pass
    # guarantees the suffix never exceeds the label budget.
    while propagate:
        key, completion = propagate.popleft()
        predecessors = preds.get(key)
        if not predecessors:
            continue
        rest, end = divmod(completion, num_nodes)
        suffix, final_beta = divmod(rest, suffix_base)
        for pred_key, appended in predecessors:
            if appended:
                _complete(
                    pred_key,
                    ((appended + suffix * lp_base) * suffix_base + final_beta)
                    * num_nodes
                    + end,
                )
            else:
                _complete(pred_key, completion)

    # -- read the judgements off at each source ---------------------------------
    #
    # The only object decode in the whole pass: packed alpha digits come out
    # first-appended-first (the lhs word), packed beta digits top-first
    # (exactly the reversed stack the rhs needs).
    output = ConstraintSet()
    for nid in initial_nids:
        entries = comp.get(nid)
        if not entries:
            continue
        source_dtv = encoding.dtv(nid >> 1)
        source_variance = Variance.CONTRAVARIANT if nid & 1 else Variance.COVARIANT
        for completion in entries:
            rest, end = divmod(completion, num_nodes)
            suffix, final_beta = divmod(rest, suffix_base)
            alpha = _decode_word(suffix, lp_base, labels)
            lhs = source_dtv.with_labels(alpha)
            rhs = encoding.dtv(end >> 1).with_labels(_decode_word(final_beta, lp_base, labels))
            orientation = source_variance * path_variance(alpha)
            if orientation is Variance.COVARIANT:
                constraint = SubtypeConstraint(lhs, rhs)
            else:
                constraint = SubtypeConstraint(rhs, lhs)
            if constraint.left != constraint.right:
                output.add(constraint)
    return output


def derives(
    graph: ConstraintGraph,
    left: DerivedTypeVariable,
    right: DerivedTypeVariable,
    max_label_depth: int = 6,
) -> bool:
    """Does the *saturated* ``graph`` witness the judgement ``left <= right``?

    A direct reachability query over ``(node, pending-stack)`` states: walk
    from the node of ``left`` (covariantly) looking for a state that reads
    back as ``right``, and dually from the node of ``right`` (contravariantly)
    looking for ``left``.  Unlike membership in a simplified constraint set,
    the query may pass *through* nodes of interesting variables, so judgements
    like ``{a.load <= a, b <= a.load} |- b <= a`` -- where every witnessing
    path crosses another judgement's endpoint -- are found (the latent
    disagreement with the Figure 3 deduction rules recorded in ROADMAP.md).
    """
    if left == right:
        return False
    if _reaches(graph, graph.node_id(left, Variance.COVARIANT), right, max_label_depth):
        return True
    return _reaches(
        graph, graph.node_id(right, Variance.CONTRAVARIANT), left, max_label_depth
    )


def _reaches(
    graph: ConstraintGraph,
    start_nid: Optional[int],
    goal: DerivedTypeVariable,
    max_label_depth: int,
) -> bool:
    """Is there a path from node ``start_nid`` to a state reading back as ``goal``?

    Alpha never grows here: a judgement about the start variable itself is wanted,
    and recalls that would extend the source are simulated by the explicit
    forget/recall pairs of the prefix nodes (the graph always contains them
    for the goal endpoints).
    """
    if start_nid is None:
        return False
    dtv_of = graph.encoding.dtv
    labels = graph._labels.items
    out_recs = graph._out_recs
    num_nodes = graph.num_nodes
    lp_base = len(labels) + 1
    goal_base = goal.base
    goal_labels = goal.labels
    goal_len = len(goal_labels)

    seen: Set[int] = {start_nid}  # packed: beta * num_nodes + nid
    stack: List[Tuple[int, int, int]] = [(start_nid, 0, 0)]
    while stack:
        nid, beta, beta_len = stack.pop()
        dtv = dtv_of(nid >> 1)
        own_labels = dtv.labels
        if (
            dtv.base == goal_base
            and len(own_labels) + beta_len == goal_len
            and goal_labels[: len(own_labels)] == own_labels
        ):
            # The state reads back as ``dtv . reversed(beta)``; decoding the
            # packed stack yields exactly that top-first order.
            if _decode_word(beta, lp_base, labels) == goal_labels[len(own_labels):]:
                return True
        for kind, lidp, target in out_recs[nid]:
            if kind == K_FORGET:
                if beta_len >= max_label_depth:
                    continue
                next_beta = beta * lp_base + lidp
                next_blen = beta_len + 1
            elif kind == K_RECALL:
                if not beta or beta % lp_base != lidp:
                    continue
                next_beta = beta // lp_base
                next_blen = beta_len - 1
            else:
                next_beta = beta
                next_blen = beta_len
            state = next_beta * num_nodes + target
            if state not in seen:
                seen.add(state)
                stack.append((target, next_beta, next_blen))
    return False


def proves(
    constraints: ConstraintSet,
    goal: SubtypeConstraint,
    max_label_depth: int = 6,
) -> bool:
    """Does the pushdown machinery derive ``goal`` from ``constraints``?

    Builds the saturated constraint graph (with the goal's endpoints forced in)
    and runs the :func:`derives` reachability query.
    """
    graph = ConstraintGraph(constraints, extra_dtvs=(goal.left, goal.right))
    saturate(graph)
    return derives(graph, goal.left, goal.right, max_label_depth)


# ---------------------------------------------------------------------------
# Constant-bound queries (Appendix D.4)
# ---------------------------------------------------------------------------


def derive_constant_bounds(
    graph: ConstraintGraph,
    lattice: TypeLattice,
    max_pending: int = 6,
    max_states: int = 100_000,
) -> List[Tuple[DerivedTypeVariable, str, str]]:
    """Enumerate judgements ``const <= dtv`` and ``dtv <= const``.

    Returns triples ``(dtv, kind, constant)`` where ``kind`` is ``"lower"``
    (the constant flows into the variable) or ``"upper"`` (the variable flows
    into the constant): the decoded form of :func:`constant_bound_ids`, in
    the same order.
    """
    dtv_of = graph.encoding.dtv
    labels = graph._labels.items
    lp_base = len(labels) + 1
    return [
        (dtv_of(did).with_labels(_decode_word(word, lp_base, labels)), kind, constant)
        for did, word, kind, constant in constant_bound_ids(
            graph, lattice, max_pending, max_states
        )
    ]


def constant_bound_ids(
    graph: ConstraintGraph,
    lattice: TypeLattice,
    max_pending: int = 6,
    max_states: int = 100_000,
) -> List[Tuple[int, int, str, str]]:
    """The Appendix D.4 constant-bound queries over the graph's int kernel.

    Returns ``(did, word, kind, constant)``: the bounded variable is dtv id
    ``did`` extended by the packed label word ``word`` (``lid + 1`` digits
    in base ``len(labels) + 1``, first label least significant), ``kind`` is
    ``"lower"`` or ``"upper"``.  The traversal explores the saturated graph
    from every type-constant node over packed int states, tracking the
    pending label stack so the judgement's variable side can be
    reconstructed; recursion is kept finite by bounding the pending depth and
    the number of visited states.

    Each variable is reported in one canonical form -- the longest prefix of
    it that has a dtv id, plus the rest of the word -- so two states that
    read back as the same variable (``x.load`` with an empty stack and ``x``
    with ``load`` pending) are one bound, exactly as if the variable were
    materialized.  Start nodes are enumerated in dtv-id order, so the result
    list -- and through it the order lattice bounds are applied in -- is a
    pure function of the constraint set.
    """
    results: List[Tuple[int, int, str, str]] = []
    seen_results: Set[int] = set()

    names = graph._names
    prefix = graph._prefix
    last_lid = graph._last_lid
    out_recs = graph._out_recs
    num_dtvs = len(names)
    num_nodes = 2 * num_dtvs
    num_labels = len(graph._labels)
    lp_base = num_labels + 1
    is_constant = lattice.is_constant

    constant = [p < 0 and is_constant(name) for p, name in zip(prefix, names)]
    constant_dids = [did for did in range(num_dtvs) if constant[did]]
    if not constant_dids:
        return results
    #: ``did * num_labels + lid`` -> the dtv id of ``did.label``.
    children: Dict[int, int] = {
        pid * num_labels + last_lid[did]: did
        for did, pid in enumerate(prefix)
        if pid >= 0
    }
    #: ``beta * num_dtvs + did`` -> the canonical ``rest * num_dtvs + did``
    #: of the variable ``did . reversed(beta)``.
    canonical: Dict[int, int] = {}
    #: states visited over all searches, for the checkpoint.
    visits = 0

    for const_did in constant_dids:
        for bit in (0, 1):
            start = const_did * 2 + bit
            kind = "lower" if bit == 0 else "upper"
            constant_name = names[const_did]
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
                visits += 1
                if not visits & _CHECKPOINT_MASK:
                    checkpoint()
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
                    key = canonical.get(dtv_key)
                    if key is None:
                        did = target >> 1
                        rest = new_beta
                        while rest:
                            child = children.get(did * num_labels + rest % lp_base - 1)
                            if child is None:
                                break
                            did = child
                            rest //= lp_base
                        key = rest * num_dtvs + did
                        canonical[dtv_key] = key
                    if key >= num_dtvs or not constant[key]:
                        entry = (key * num_dtvs + const_did) * 2 + bit
                        if entry not in seen_results:
                            seen_results.add(entry)
                            rest, did = divmod(key, num_dtvs)
                            results.append((did, rest, kind, constant_name))
                    if new_beta * num_nodes + target not in visited:
                        stack.append((target, new_beta, new_blen))
    return results
