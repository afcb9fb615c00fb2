"""The integer kernel: dense IDs, decode views, and hash-order independence.

The solver's hot core (``core/graph.py`` / ``core/saturation.py`` /
``core/simplify.py``) runs on dense integer node IDs and packed-int facts;
``Node``/``Edge`` objects exist only in the test-side decode view
(``GraphView`` in ``naive_reference.py``).  These tests pin the kernel's
contracts:

* the decoded object views (``nodes``, ``edges()``, ``out_edges`` ...) are
  exactly consistent with the integer indexes they decode from;
* every ID space is *insertion-ordered* -- derived from sorted interning at
  construction, never from Python hash order -- proven end to end by running
  the same analysis under different ``PYTHONHASHSEED`` values in subprocesses
  and requiring byte-identical output;
* simplification output is invariant under permutation of the input
  constraint lines (IDs may shift; the answer may not).
"""

import json
import os
import subprocess
import sys

from hypothesis import given, settings, strategies as st

from repro.core import (
    ConstraintGraph,
    parse_constraints,
    saturate,
    simplify_constraints,
)
from repro.core.intern import InternPool, StringTable

from naive_reference import KIND_OBJS as _KIND_BY_ID, GraphView

_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "src"
)

_VARS = ["a", "b", "c", "d", "p", "q"]
_LABELS = ["", ".load", ".store", ".sigma32@0", ".load.sigma32@4", ".store.sigma32@0"]

@st.composite
def constraint_lines(draw):
    lines = []
    for _ in range(draw(st.integers(min_value=1, max_value=7))):
        left = draw(st.sampled_from(_VARS)) + draw(st.sampled_from(_LABELS))
        right = draw(st.sampled_from(_VARS)) + draw(st.sampled_from(_LABELS))
        if left != right:
            lines.append(f"{left} <= {right}")
    return lines


# ---------------------------------------------------------------------------
# Intern pool basics
# ---------------------------------------------------------------------------


def test_intern_pool_ids_are_dense_and_insertion_ordered():
    pool = InternPool()
    assert pool.intern("x") == 0
    assert pool.intern("y") == 1
    assert pool.intern("x") == 0  # stable on re-intern
    assert len(pool) == 2
    assert list(pool) == ["x", "y"]
    assert pool[1] == "y"
    assert "y" in pool and "z" not in pool
    assert pool.get("z") is None


def test_string_table_round_trips_to_list():
    table = StringTable()
    ids = [table.intern(s) for s in ("f", "f.in_0", "f", "int")]
    assert ids == [0, 1, 0, 2]
    assert table.to_list() == ["f", "f.in_0", "int"]


# ---------------------------------------------------------------------------
# Decode views agree with the integer indexes
# ---------------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(constraint_lines())
def test_object_views_are_consistent_with_int_indexes(lines):
    if not lines:
        return
    graph = ConstraintGraph(parse_constraints(lines))
    saturate(graph)
    view = GraphView(graph)

    num_nodes = graph.num_nodes
    assert num_nodes == 2 * len(graph._names)

    # DTV interning is sorted at construction: did order == sorted-by-str.
    dtv_strs = [str(graph.encoding.dtv(did)) for did in range(len(graph._names))]
    assert dtv_strs == sorted(dtv_strs) == graph._names

    # Every integer edge record decodes to exactly the object edge set.
    decoded = set()
    for src in range(num_nodes):
        for kind_id, lidp, tgt in graph.out_records(src):
            label = None if lidp == 0 else graph._labels[lidp - 1]
            decoded.add((src, tgt, _KIND_BY_ID[kind_id], label))
    objects = set()
    node_ids = {}
    for edge in view.edges():
        src = view.nid(edge.source)
        tgt = view.nid(edge.target)
        node_ids[edge.source] = src
        objects.add((src, tgt, edge.kind, edge.label))
    assert decoded == objects

    # Per-node views: out_edges/in_edges are the per-nid slices of the same
    # records, and null_out_ids mirrors the unlabeled subset.
    for node in view.nodes:
        nid = view.nid(node)
        outs = {(e.target, e.kind, e.label) for e in view.out_edges(node)}
        recs = {
            (view.node(tgt), _KIND_BY_ID[k], None if lp == 0 else graph._labels[lp - 1])
            for k, lp, tgt in graph.out_records(nid)
        }
        assert outs == recs
        null_ids = sorted(graph.null_out_ids(nid))
        null_objs = sorted(view.nid(e.target) for e in view.null_out_edges(node))
        assert null_ids == null_objs
        for edge in view.out_edges(node):
            assert view.has_edge(node, edge.target, edge.kind, edge.label)
            assert edge in view.in_edges(edge.target) or edge in view.out_edges(node)

    # The covariant/contravariant twin convention: nid ^ 1 flips variance only.
    for node, nid in node_ids.items():
        twin = view.node(nid ^ 1)
        assert twin.dtv == node.dtv
        assert twin.variance != node.variance


@settings(max_examples=60, deadline=None)
@given(constraint_lines(), st.randoms(use_true_random=False))
def test_simplify_is_invariant_under_input_permutation(lines, rng):
    """Different insertion orders shift IDs but never the simplified answer."""
    if not lines:
        return
    shuffled = list(lines)
    rng.shuffle(shuffled)
    interesting = {"a", "b"}
    base = set(simplify_constraints(parse_constraints(lines), interesting).subtype)
    perm = set(simplify_constraints(parse_constraints(shuffled), interesting).subtype)
    assert base == perm


# ---------------------------------------------------------------------------
# Hash-order independence, proven in subprocesses
# ---------------------------------------------------------------------------

_HASHSEED_SCRIPT = r"""
import json, sys
from repro.core import ConstraintGraph, parse_constraints, saturate, simplify_constraints

lines = [
    "y <= p",
    "p <= x",
    "A <= x.store",
    "y.load <= B",
    "q.sigma32@0 <= a.load",
    "b.store.sigma32@0 <= q",
]
constraints = parse_constraints(lines)
graph = ConstraintGraph(constraints)
saturate(graph)
node = lambda nid: graph._names[nid >> 1] + (".-" if nid & 1 else ".+")
payload = {
    "dtv_order": list(graph._names),
    "label_order": [str(l) for l in graph._labels],
    "edge_list": [
        [node(src), node(tgt), kind, str(graph._labels[lidp - 1]) if lidp else "None"]
        for src, tgt, kind, lidp in graph._edge_list
    ],
    "simplified": sorted(
        str(c) for c in simplify_constraints(constraints, {"A", "B"}).subtype
    ),
}
sys.stdout.write(json.dumps(payload, sort_keys=True))
"""

_FINGERPRINT_SCRIPT = r"""
import sys
from repro.gen import generate_corpus, named_profiles, result_fingerprint
from repro import analyze_program

program = generate_corpus(1, 20160613, named_profiles()["smoke"])[0]
types = analyze_program(program.compile().program)
sys.stdout.write(result_fingerprint(types))
"""


def _run_under_hashseed(script, seed):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(seed)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_graph_ids_and_simplification_are_hash_order_independent():
    """Same graph internals byte-for-byte under three different hash seeds."""
    outputs = {seed: _run_under_hashseed(_HASHSEED_SCRIPT, seed) for seed in (0, 1, 42)}
    assert outputs[0] == outputs[1] == outputs[42]
    payload = json.loads(outputs[0])
    assert payload["dtv_order"] == sorted(payload["dtv_order"])
    assert payload["simplified"], "expected at least one simplified constraint"


def test_result_fingerprint_is_hash_order_independent():
    """End to end: a full analysis fingerprint is identical across hash seeds."""
    outputs = {seed: _run_under_hashseed(_FINGERPRINT_SCRIPT, seed) for seed in (0, 7)}
    assert outputs[0] == outputs[7]
    assert len(outputs[0]) == 64  # sha256 hex
