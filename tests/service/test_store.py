"""Summary store: serialization round trips, LRU eviction, disk persistence."""

import json
import os

import pytest

from repro import analyze_program
from repro.core.lattice import default_lattice
from repro.core.schemes import TypeScheme
from repro.core.sketches import Sketch
from repro.core.solver import SolverConfig
from repro.frontend import compile_c
from repro.service.store import (
    SCCSummary,
    SummaryStore,
    environment_fingerprint,
    procedure_fingerprint,
    program_fingerprints,
    scc_summary_keys,
    serialize_summary,
    deserialize_summary,
    summarize_scc,
)
from repro.typegen.abstract_interp import generate_program_constraints
from repro.typegen.externs import ensure_lattice_tags, standard_externs

ALLOCATOR = """
struct node { struct node * next; int value; };

struct node * push_front(struct node * head, int value) {
    struct node * n;
    n = (struct node *) malloc(sizeof(struct node));
    n->value = value;
    n->next = head;
    return n;
}

int total(const struct node * head) {
    int sum;
    sum = 0;
    while (head != NULL) {
        sum = sum + head->value;
        head = head->next;
    }
    return sum;
}
"""


@pytest.fixture(scope="module")
def analyzed():
    return analyze_program(compile_c(ALLOCATOR).program)


def test_scheme_json_round_trip(analyzed):
    for name, fn in analyzed.functions.items():
        scheme = fn.scheme
        payload = json.loads(json.dumps(scheme.to_json()))
        rebuilt = TypeScheme.from_json(payload)
        assert str(rebuilt) == str(scheme)
        assert rebuilt.quantified == scheme.quantified
        assert rebuilt.formal_ins == scheme.formal_ins
        assert rebuilt.formal_outs == scheme.formal_outs


def test_sketch_json_round_trip(analyzed):
    for fn in analyzed.functions.values():
        for sketch in list(fn.result.formal_in_sketches.values()) + list(
            fn.result.formal_out_sketches.values()
        ):
            payload = json.loads(json.dumps(sketch.to_json()))
            rebuilt = Sketch.from_json(payload, sketch.lattice)
            assert str(rebuilt) == str(sketch)
            # Renumbering is canonical: a second round trip is a fixpoint.
            assert rebuilt.to_json() == Sketch.from_json(rebuilt.to_json(), sketch.lattice).to_json()


def test_recursive_sketch_round_trip(analyzed):
    recursive = [
        sketch
        for fn in analyzed.functions.values()
        for sketch in fn.result.formal_in_sketches.values()
        if sketch.is_recursive()
    ]
    assert recursive, "the linked-list workload should produce a recursive sketch"
    for sketch in recursive:
        rebuilt = Sketch.from_json(sketch.to_json(), sketch.lattice)
        assert rebuilt.is_recursive()
        assert str(rebuilt) == str(sketch)


def test_fingerprints_are_content_hashes():
    program = compile_c(ALLOCATOR).program
    fingerprints = program_fingerprints(program)
    assert set(fingerprints) == set(program.procedures)
    again = program_fingerprints(compile_c(ALLOCATOR).program)
    assert fingerprints == again  # deterministic across compilations

    lattice = ensure_lattice_tags(default_lattice())
    config = SolverConfig()
    assert environment_fingerprint(lattice, standard_externs(), config) == (
        environment_fingerprint(lattice, standard_externs(), config)
    )
    # The solver configuration is part of the environment.
    assert environment_fingerprint(lattice, standard_externs(), config) != (
        environment_fingerprint(lattice, standard_externs(), SolverConfig(polymorphic=False))
    )


def test_scc_keys_invalidate_transitively():
    program = compile_c(ALLOCATOR).program
    edges = {"total": set(), "push_front": {"total"}}
    sccs = [["total"], ["push_front"]]
    fingerprints = program_fingerprints(program)
    keys = scc_summary_keys(sccs, edges, fingerprints, "env")

    # Changing the callee's fingerprint changes both keys.
    changed = dict(fingerprints)
    changed["total"] = "0" * 64
    keys2 = scc_summary_keys(sccs, edges, changed, "env")
    assert keys2[("total",)] != keys[("total",)]
    assert keys2[("push_front",)] != keys[("push_front",)]

    # Changing the caller's fingerprint leaves the callee's key alone.
    changed = dict(fingerprints)
    changed["push_front"] = "0" * 64
    keys3 = scc_summary_keys(sccs, edges, changed, "env")
    assert keys3[("total",)] == keys[("total",)]
    assert keys3[("push_front",)] != keys[("push_front",)]


def _summary_for(analyzed, name):
    inputs = generate_program_constraints(analyzed.program)
    results = {name: analyzed.functions[name].result}
    return summarize_scc([name], inputs, results, {})


def test_summary_round_trip(analyzed):
    lattice = analyzed.display.lattice
    summary = _summary_for(analyzed, "total")
    payload = json.loads(json.dumps(serialize_summary(summary)))
    assert payload["format"] == "retypd-summary-v2"
    rebuilt = deserialize_summary(payload, lattice)
    assert rebuilt.members == summary.members
    original = summary.procedures["total"]
    restored = rebuilt.procedures["total"]
    assert str(restored.scheme) == str(original.scheme)
    assert set(restored.formal_in_sketches) == set(original.formal_in_sketches)
    for dtv, sketch in original.formal_in_sketches.items():
        assert str(restored.formal_in_sketches[dtv]) == str(sketch)


def test_v2_summary_carries_the_formals(analyzed):
    """The formals ride in the payload in interface order, sketched or not."""
    inputs = generate_program_constraints(analyzed.program)
    summary = _summary_for(analyzed, "push_front")
    payload = json.loads(json.dumps(serialize_summary(summary)))
    entry = payload["procedures"]["push_front"]
    assert [text for text, _ in entry["formal_ins"]] == [
        str(d) for d in inputs["push_front"].formal_ins
    ]
    assert [text for text, _ in entry["formal_outs"]] == [
        str(d) for d in inputs["push_front"].formal_outs
    ]
    restored = deserialize_summary(payload, analyzed.display.lattice).procedures["push_front"]
    assert restored.formal_ins == inputs["push_front"].formal_ins
    assert restored.formal_outs == inputs["push_front"].formal_outs
    assert [str(d) for d in restored.formal_ins] == [
        "push_front.in_stack0",
        "push_front.in_stack4",
    ]
    assert [str(d) for d in restored.formal_outs] == ["push_front.out_eax"]


def test_v2_summary_keeps_unsketched_formals(analyzed):
    """A formal the solver could not type keeps its place with a null sketch."""
    summary = _summary_for(analyzed, "push_front")
    proc = summary.procedures["push_front"]
    untyped = proc.formal_ins[1]
    del proc.formal_in_sketches[untyped]
    payload = json.loads(json.dumps(serialize_summary(summary)))
    assert payload["procedures"]["push_front"]["formal_ins"][1] == [str(untyped), None]
    restored = deserialize_summary(payload, analyzed.display.lattice).procedures["push_front"]
    assert restored.formal_ins == proc.formal_ins
    assert set(restored.formal_in_sketches) == set(proc.formal_in_sketches)


def test_lru_eviction(analyzed):
    lattice = analyzed.display.lattice
    store = SummaryStore(capacity=2)
    summary = _summary_for(analyzed, "total")
    store.put("k1", summary)
    store.put("k2", summary)
    store.put("k3", summary)  # evicts k1
    assert store.stats.evictions == 1
    assert store.get("k1", lattice) is None
    assert store.get("k2", lattice) is not None
    # k2 is now most-recent; adding k4 evicts k3.
    store.put("k4", summary)
    assert store.get("k3", lattice) is None
    assert store.get("k2", lattice) is not None
    assert store.stats.hits == 2 and store.stats.misses == 2


def test_disk_tier_persists_across_stores(tmp_path, analyzed):
    lattice = analyzed.display.lattice
    summary = _summary_for(analyzed, "total")
    first = SummaryStore(capacity=8, cache_dir=str(tmp_path))
    first.put("diskkey", summary)

    second = SummaryStore(capacity=8, cache_dir=str(tmp_path))
    assert "diskkey" in second
    loaded = second.get("diskkey", lattice)
    assert loaded is not None
    assert str(loaded.procedures["total"].scheme) == str(summary.procedures["total"].scheme)
    assert second.stats.disk_hits == 1
    # Promoted to memory: a second get is a memory hit.
    second.get("diskkey", lattice)
    assert second.stats.memory_hits == 1


@pytest.mark.parametrize("parsed", [True, False])
def test_program_fingerprints_hash_each_procedures_text(parsed):
    # Store keys, disk tiers and session diffs all rest on these digests:
    # rendering each shared instruction once must hash ``str(procedure)``
    # byte for byte, for parsed programs (shared instruction objects) and
    # for programs built in memory alike.
    import hashlib

    from repro.gen import GenProfile, generate_program
    from repro.ir import parse_program

    program = compile_c(generate_program(4, GenProfile.stress(), name="fp").source).program
    if parsed:
        program = parse_program(str(program))
    expected = {
        name: hashlib.sha256(str(procedure).encode("utf-8")).hexdigest()
        for name, procedure in program.procedures.items()
    }
    assert program_fingerprints(program) == expected
    for name, digest in expected.items():
        assert procedure_fingerprint(program.procedure(name)) == digest


def test_procedure_fingerprint_tracks_content():
    program = compile_c(ALLOCATOR).program
    total = program.procedure("total")
    before = procedure_fingerprint(total)
    from repro.ir.instructions import Nop

    total.instructions.append(Nop())
    assert procedure_fingerprint(total) != before


# ---------------------------------------------------------------------------
# Disk-tier hardening: atomic writes, quarantine, shared directories
# ---------------------------------------------------------------------------


def test_corrupt_disk_entry_is_quarantined_not_raised(tmp_path, analyzed):
    lattice = analyzed.display.lattice
    summary = _summary_for(analyzed, "total")
    store = SummaryStore(capacity=8, cache_dir=str(tmp_path))
    store.put("goodkey", summary)
    path = store._disk_path("goodkey")

    # Truncate the entry mid-payload, as a killed writer without atomic
    # replace would have.
    with open(path, "w", encoding="utf-8") as handle:
        handle.write('{"format": "retypd-summary-v1", "members": ["tot')

    fresh = SummaryStore(capacity=8, cache_dir=str(tmp_path))
    assert fresh.get("goodkey", lattice) is None  # tolerated, not raised
    assert fresh.stats.quarantined == 1
    assert fresh.stats.misses == 1
    assert not os.path.exists(path), "corrupt entry must be moved aside"
    assert os.path.exists(path + ".corrupt"), "quarantined copy kept for forensics"

    # The key is writable again and round-trips.
    fresh.put("goodkey", summary)
    fresh.clear()
    assert fresh.get("goodkey", lattice) is not None


def test_wrong_format_disk_entry_is_quarantined(tmp_path, analyzed):
    lattice = analyzed.display.lattice
    store = SummaryStore(capacity=8, cache_dir=str(tmp_path))
    path = store._disk_path("alienkey")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"format": "some-other-tool-v9", "members": []}, handle)
    assert store.get("alienkey", lattice) is None
    assert store.stats.quarantined == 1
    assert os.path.exists(path + ".corrupt")


def test_non_object_disk_entry_is_quarantined(tmp_path, analyzed):
    lattice = analyzed.display.lattice
    store = SummaryStore(capacity=8, cache_dir=str(tmp_path))
    path = store._disk_path("listkey")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("[1, 2, 3]")
    assert store.get("listkey", lattice) is None
    assert store.stats.quarantined == 1


def test_disk_writes_leave_no_temp_droppings(tmp_path, analyzed):
    store = SummaryStore(capacity=8, cache_dir=str(tmp_path))
    summary = _summary_for(analyzed, "total")
    for i in range(5):
        store.put(f"key{i}", summary)
    leftovers = [
        name
        for root, _, names in os.walk(str(tmp_path))
        for name in names
        if name.endswith(".tmp")
    ]
    assert leftovers == []


def test_two_stores_sharing_one_disk_dir_do_not_corrupt(tmp_path, analyzed):
    """Satellite criterion: concurrent writers against one directory are safe."""
    from concurrent.futures import ThreadPoolExecutor

    lattice = analyzed.display.lattice
    summary = _summary_for(analyzed, "total")
    first = SummaryStore(capacity=64, cache_dir=str(tmp_path))
    second = SummaryStore(capacity=64, cache_dir=str(tmp_path))
    keys = [f"shared{i}" for i in range(24)]

    def hammer(store):
        ok = 0
        for _ in range(3):
            for key in keys:
                store.put(key, summary)
                if store.get(key, lattice) is not None:
                    ok += 1
        return ok

    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(hammer, [first, second, first, second]))
    assert all(count == 3 * len(keys) for count in results)

    # A third store sees every entry intact -- nothing truncated, nothing
    # quarantined.
    reader = SummaryStore(capacity=64, cache_dir=str(tmp_path))
    for key in keys:
        loaded = reader.get(key, lattice)
        assert loaded is not None
        assert str(loaded.procedures["total"].scheme) == str(
            summary.procedures["total"].scheme
        )
    assert reader.stats.quarantined == 0


def test_shared_disk_dir_across_services(tmp_path, analyzed):
    """Two AnalysisServices pointed at one store dir reuse each other's work."""
    from repro.service import AnalysisService, ServiceConfig

    source = compile_c(ALLOCATOR).program
    first = AnalysisService(ServiceConfig(cache_dir=str(tmp_path)))
    cold = first.analyze(source)
    assert cold.stats["sccs_solved"] > 0

    second = AnalysisService(ServiceConfig(cache_dir=str(tmp_path)))
    warm = second.analyze(compile_c(ALLOCATOR).program)
    assert warm.stats["sccs_solved"] == 0, "all SCCs served from the shared disk tier"
    assert warm.report() == cold.report()


# ---------------------------------------------------------------------------
# Decoded memory tier: payloads decode once, summaries are shared, JSON only
# crosses the backend boundary
# ---------------------------------------------------------------------------


def _canonical(payload):
    return json.dumps(payload, sort_keys=True)


def test_payload_entry_decodes_once(analyzed):
    lattice = analyzed.display.lattice
    payload = json.loads(json.dumps(serialize_summary(_summary_for(analyzed, "total"))))
    store = SummaryStore(capacity=8)
    store.admit_payload("k", payload)
    first = store.get("k", lattice)
    assert store.stats.decodes == 1
    again = store.get("k", lattice)
    assert again is first, "a repeat hit serves the decoded summary itself"
    assert store.stats.decodes == 1
    assert store.stats.snapshot()["decodes"] == 1
    assert store.stats.memory_hits == 2 and store.stats.hits == 2


def test_put_admits_the_summary_without_decoding(analyzed):
    lattice = analyzed.display.lattice
    summary = _summary_for(analyzed, "total")
    store = SummaryStore(capacity=8)
    store.put("k", summary)
    assert store.get("k", lattice) is summary
    assert store.stats.decodes == 0


def test_decoded_entry_serializes_to_the_admitted_payload(analyzed):
    lattice = analyzed.display.lattice
    for name in ("total", "push_front"):
        admitted = json.loads(json.dumps(serialize_summary(_summary_for(analyzed, name))))
        store = SummaryStore(capacity=8)
        store.admit_payload("k", admitted)
        assert isinstance(store.get("k", lattice), SCCSummary)
        assert _canonical(serialize_summary(store.get("k", lattice))) == _canonical(admitted)
        assert store.stats.decodes == 1


def test_decode_is_a_traced_span(analyzed):
    from repro.obs import tracing

    lattice = analyzed.display.lattice
    store = SummaryStore(capacity=8)
    store.admit_payload("k", serialize_summary(_summary_for(analyzed, "total")))
    with tracing() as tracer:
        store.get("k", lattice)
        store.get("k", lattice)
    names = [span["name"] for span in tracer.spans()]
    assert names.count("store.decode") == 1


def test_disk_backend_still_receives_json(tmp_path, analyzed):
    summary = _summary_for(analyzed, "push_front")
    expected = _canonical(serialize_summary(summary))

    disk = SummaryStore(capacity=8, cache_dir=str(tmp_path))
    disk.put("diskkey", summary)
    with open(disk._disk_path("diskkey"), "r", encoding="utf-8") as handle:
        assert _canonical(json.load(handle)) == expected
    # A second store over the same directory reads the payload and decodes it once.
    reader = SummaryStore(capacity=8, cache_dir=str(tmp_path))
    loaded = reader.get("diskkey", analyzed.display.lattice)
    assert reader.stats.disk_hits == 1 and reader.stats.decodes == 1
    assert _canonical(serialize_summary(loaded)) == expected
