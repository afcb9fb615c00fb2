"""Incremental driver: warm-cache identity, exact invalidation cones."""

import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import analyze_program
from repro.core.lattice import default_lattice
from repro.frontend import compile_c
from repro.gen import GenProfile, generate_edit, generate_program
from repro.gen.oracle import result_fingerprint
from repro.ir.instructions import Nop
from repro.ir.program import Procedure, Program
from repro.service import AnalysisService, IncrementalSession, ServiceConfig
from repro.service.store import SummaryStore

# A call DAG with a diamond and an unrelated component:
#
#   main -> helper -> leaf        (chain)
#   main -> other                 (second callee)
#   standalone                    (independent)
SOURCE = """
struct box { int value; int fd; };

int leaf(const struct box * b) {
    return b->value;
}

int helper(const struct box * b) {
    return leaf(b) + 1;
}

int other(int x) {
    return x * 2;
}

int main_entry(struct box * b, int x) {
    return helper(b) + other(x);
}

int standalone(int a, int b) {
    return a - b;
}
"""


def _program():
    return compile_c(SOURCE).program


def _edit(program, name):
    """A copy of ``program`` with one appended nop in procedure ``name``."""
    edited = Program(
        procedures=dict(program.procedures),
        externs=set(program.externs),
        globals=dict(program.globals),
    )
    victim = edited.procedures[name]
    edited.procedures[name] = Procedure(
        name=name, instructions=list(victim.instructions) + [Nop()]
    )
    return edited


def test_warm_cache_zero_solves_and_identical_output():
    program = _program()
    baseline = analyze_program(program)

    service = AnalysisService()
    cold = service.analyze(program)
    warm = service.analyze(program)

    assert cold.stats["sccs_solved"] == cold.stats["scc_count"]
    assert warm.stats["sccs_solved"] == 0
    assert warm.stats["sccs_cached"] == warm.stats["scc_count"]

    # String-equal signatures across plain pipeline, cold service, warm service.
    for name in baseline.functions:
        assert cold.signature(name) == baseline.signature(name)
        assert warm.signature(name) == baseline.signature(name)
    assert cold.report() == baseline.report()
    assert warm.report() == baseline.report()
    # Schemes survive the serialization round trip verbatim.
    for name in baseline.functions:
        assert str(warm.scheme(name)) == str(baseline.scheme(name))


def test_editing_one_procedure_resolves_exactly_its_cone():
    program = _program()
    session = IncrementalSession(AnalysisService())
    session.analyze(program)

    edited = _edit(program, "helper")
    types = session.analyze(edited)

    # helper changed: helper itself and its transitive caller must re-solve;
    # leaf, other and standalone must come from the cache.
    assert types.stats["invalidated_procedures"] == ["helper", "main_entry"]
    assert types.stats["solved_procedures"] == ["helper", "main_entry"]
    assert set(types.stats["cached_procedures"]) == {"leaf", "other", "standalone"}

    # Editing the root only re-solves the root.
    edited2 = _edit(edited, "main_entry")
    types2 = session.analyze(edited2)
    assert types2.stats["solved_procedures"] == ["main_entry"]

    # Editing the leaf re-solves the whole chain but not the bystanders.
    edited3 = _edit(edited2, "leaf")
    types3 = session.analyze(edited3)
    assert types3.stats["invalidated_procedures"] == ["helper", "leaf", "main_entry"]
    assert types3.stats["solved_procedures"] == ["helper", "leaf", "main_entry"]
    assert set(types3.stats["cached_procedures"]) == {"other", "standalone"}


def test_incremental_results_match_cold_analysis_of_edited_program():
    program = _program()
    session = IncrementalSession(AnalysisService())
    session.analyze(program)

    edited = _edit(program, "helper")
    incremental = session.analyze(edited)
    cold = analyze_program(edited)

    assert incremental.report() == cold.report()
    for name in cold.functions:
        assert incremental.signature(name) == cold.signature(name)
        assert str(incremental.scheme(name)) == str(cold.scheme(name))


def test_recursive_scc_is_cached_as_a_unit():
    source = """
    struct LL { struct LL * next; int handle; };

    int walk(const struct LL * node) {
        if (node == NULL) {
            return 0;
        }
        return 1 + walk(node->next);
    }

    int use(const struct LL * head) {
        return walk(head);
    }
    """
    program = compile_c(source).program
    service = AnalysisService()
    cold = service.analyze(program)
    warm = service.analyze(program)
    assert warm.stats["sccs_solved"] == 0
    assert warm.report() == cold.report()


def test_disk_backed_store_warm_across_services(tmp_path):
    program = _program()
    cold_service = AnalysisService(ServiceConfig(cache_dir=str(tmp_path)))
    cold = cold_service.analyze(program)

    # A brand-new service (fresh memory tier) warm-starts from disk.
    warm_service = AnalysisService(ServiceConfig(cache_dir=str(tmp_path)))
    warm = warm_service.analyze(program)
    assert warm.stats["sccs_solved"] == 0
    assert warm.report() == cold.report()


def test_incremental_session_requires_store():
    with pytest.raises(ValueError):
        IncrementalSession(AnalysisService(ServiceConfig(use_cache=False)))


def test_stage_timings_flow_through_service():
    """Cold analyses carry a per-stage SolveStats record; warm ones report zero work."""
    program = _program()
    service = AnalysisService()
    cold = service.analyze(program)

    stage = cold.stage_seconds
    assert stage["sccs_timed"] == cold.stats["scc_count"]
    assert stage["total_seconds"] == pytest.approx(
        stage["graph_seconds"]
        + stage["saturate_seconds"]
        + stage["simplify_seconds"]
        + stage["sketch_seconds"]
    )
    assert stage["sketch_seconds"] > 0.0
    assert stage["graph_nodes"] > 0 and stage["graph_edges"] > 0

    warm = service.analyze(program)
    warm_stage = warm.stage_seconds
    assert warm_stage["sccs_timed"] == 0
    assert warm_stage["total_seconds"] == 0.0


def test_stage_timings_cover_only_the_invalidation_cone():
    """After an edit, stage counters reflect the re-solved SCCs, not the program."""
    program = _program()
    session = IncrementalSession()
    session.analyze(program)

    edited = _edit(program, "other")  # invalidates other + main_entry only
    types = session.analyze(edited)
    stage = types.stage_seconds
    assert stage["sccs_timed"] == types.stats["sccs_solved"]
    assert 0 < stage["sccs_timed"] < types.stats["scc_count"]


def test_analyze_program_accepts_service_objects():
    program = _program()
    baseline = analyze_program(program)

    service = AnalysisService()
    analyze_program(program, service=service)
    warm = analyze_program(program, service=service)
    assert warm.stats["sccs_solved"] == 0
    assert warm.report() == baseline.report()

    configured = analyze_program(program, service=ServiceConfig(use_cache=False))
    assert configured.report() == baseline.report()


def test_edit_sweep_generates_only_what_it_solves():
    """Generation is lazy: an edit generates exactly the SCCs it re-solves, and
    reopening an earlier version (every SCC in the store) generates nothing."""
    base = generate_program(20160613, GenProfile.default())
    session = IncrementalSession(AnalysisService())
    first = session.analyze(compile_c(base.source).program)
    assert first.stats["generated_procedures"] == sorted(first.functions)
    assert first.stats["generated_procedures"] == first.stats["solved_procedures"]

    versions = [base.source]
    generated = set()
    for edit_seed in range(1, 7):
        edit = generate_edit(base, edit_seed=edit_seed)
        types = session.analyze(compile_c(edit.source).program)
        stats = types.stats
        assert stats["generated_procedures"] == stats["solved_procedures"]
        assert set(stats["generated_procedures"]) <= set(stats["invalidated_procedures"])
        assert (stats["constraints"] > 0) == bool(stats["generated_procedures"])
        generated.update(stats["generated_procedures"])
        assert types.report() == analyze_program(compile_c(edit.source).program).report()

        earlier = versions[(edit_seed * 7919) % len(versions)]
        reopened = session.analyze(compile_c(earlier).program)
        assert reopened.stats["generated_procedures"] == []
        assert reopened.stats["solved_procedures"] == []
        assert reopened.stats["constraints"] == 0
        assert reopened.report() == analyze_program(compile_c(earlier).program).report()
        versions.append(edit.source)
    assert 0 < len(generated) < len(first.functions)


def _stored_payloads(service, types):
    """Canonical JSON of every summary ``types`` was built from, by store key."""
    return {
        key: json.dumps(service.store.get_payload(key), sort_keys=True)
        for key in types.stats["scc_store_keys"].values()
    }


def test_shared_decoded_summaries_survive_edits_and_threads():
    """The memory tier hands the same decoded summary to every hit.  Serving
    it to a run of edits (refinement contributions included) and to eight
    concurrent analyses must neither change it nor leak one run into
    another."""
    base = generate_program(20160613, GenProfile.default())
    sources = [base.source] + [
        generate_edit(base, edit_seed=seed).source for seed in (1, 2, 3)
    ]
    cold = {
        source: result_fingerprint(analyze_program(compile_c(source).program))
        for source in sources
    }

    # Start from payloads, as a disk/socket tier or a worker would deliver.
    seeded = AnalysisService()
    first = seeded.analyze(compile_c(base.source).program)
    before = _stored_payloads(seeded, first)
    store = SummaryStore()
    for key, payload in before.items():
        store.admit_payload(key, json.loads(payload))
    service = AnalysisService(store=store)

    warm = service.analyze(compile_c(base.source).program)
    assert warm.stats["sccs_solved"] == 0
    assert store.stats.decodes == warm.stats["scc_count"]
    assert _stored_payloads(service, first) == before
    assert any(
        json.loads(payload)["procedures"][name]["contributions"]
        for payload in before.values()
        for name in json.loads(payload)["procedures"]
    ), "the program should exercise refinement contributions"

    session = IncrementalSession(service)
    for source in sources + sources[::-1]:
        assert result_fingerprint(session.analyze(compile_c(source).program)) == cold[source]

    decodes = store.stats.decodes
    programs = [compile_c(source).program for source in sources] * 2
    with ThreadPoolExecutor(max_workers=8) as pool:
        fingerprints = list(pool.map(lambda p: result_fingerprint(service.analyze(p)), programs))
    assert fingerprints == [cold[source] for source in sources] * 2
    assert store.stats.decodes == decodes, "repeat hits decode nothing"
    assert _stored_payloads(service, first) == before


def test_store_shared_across_equal_but_distinct_lattices():
    """Decoded sketches carry the lattice they were decoded against; a service
    whose lattice is a distinct but equal object must still get cold results."""
    base = generate_program(7, GenProfile.default())
    sources = [base.source, generate_edit(base, edit_seed=4).source]
    store = SummaryStore()
    one = AnalysisService(lattice=default_lattice(), store=store)
    two = AnalysisService(lattice=default_lattice(), store=store)
    assert one.lattice is not two.lattice
    for source in sources:
        cold = result_fingerprint(analyze_program(compile_c(source).program))
        for service in (one, two, one):
            assert result_fingerprint(service.analyze(compile_c(source).program)) == cold
    assert two.analyze(compile_c(sources[0]).program).stats["sccs_solved"] == 0
