"""Incremental driver: warm-cache identity, exact invalidation cones."""

import functools
import json
import re
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from repro import analyze_program
from repro.core.lattice import default_lattice
from repro.frontend import compile_c
from repro.gen import GenProfile, generate_edit, generate_program
from repro.gen.oracle import result_fingerprint
from repro.ir import AsmSyntaxError
from repro.ir.instructions import Nop
from repro.ir.program import Procedure, Program
from repro.service import AnalysisService, IncrementalSession, ServiceConfig
from repro.service.store import SummaryStore, serialize_summary

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
        stage["shapes_seconds"]
        + stage["graph_seconds"]
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
        key: json.dumps(
            serialize_summary(service.store.get(key, service.lattice)), sort_keys=True
        )
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


# -- the session's version table ---------------------------------------------------------


def _generated_asm(seed, edit_seed=None):
    program = generate_program(seed, GenProfile.default())
    source = program.source if edit_seed is None else generate_edit(program, edit_seed).source
    return str(compile_c(source).program)


def test_failed_analysis_leaves_the_session_on_its_last_good_version(monkeypatch):
    """A version whose analysis raises after parsing must not become the one
    the next call diffs against: the next edit reports the cone and result of
    a session that never saw the failed version."""
    base = generate_program(20160613, GenProfile.default())
    first, second = (generate_edit(base, edit_seed=seed) for seed in (1, 2))
    assert first.function != second.function
    texts = [str(compile_c(source).program) for source in (base.source, first.source, second.source)]

    clean = IncrementalSession(AnalysisService())
    clean.analyze(texts[0])
    expected = clean.analyze(texts[2])

    session = IncrementalSession(AnalysisService())
    session.analyze(texts[0])
    solve_inputs = AnalysisService.solve_inputs

    def failing_solve(self, *args, **kwargs):
        monkeypatch.setattr(AnalysisService, "solve_inputs", solve_inputs)
        raise RuntimeError("solver crashed")

    monkeypatch.setattr(AnalysisService, "solve_inputs", failing_solve)
    with pytest.raises(RuntimeError):
        session.analyze(texts[1])
    after = session.analyze(texts[2])

    assert after.stats["invalidated_procedures"] == expected.stats["invalidated_procedures"]
    assert second.function in after.stats["invalidated_procedures"]
    assert first.function not in after.stats["invalidated_procedures"]
    assert after.stats["solved_procedures"] == expected.stats["solved_procedures"]
    assert result_fingerprint(after) == result_fingerprint(expected)


def test_size_stats_come_from_the_table_and_match_a_cold_analysis():
    session = IncrementalSession(AnalysisService())
    for source in (
        _generated_asm(7),
        _generated_asm(7, edit_seed=3),
        compile_c(SOURCE).program,  # a Program, not text
        _generated_asm(7),
    ):
        types = session.analyze(source)
        cold = analyze_program(source)
        assert types.stats["instructions"] == cold.stats["instructions"] > 0
        assert types.stats["cfg_nodes"] == cold.stats["cfg_nodes"] > 0


def test_an_edit_reuses_the_parse_and_display_of_untouched_procedures():
    base = generate_program(20160613, GenProfile.default())
    edit = generate_edit(base, edit_seed=1)
    session = IncrementalSession(AnalysisService())
    before = session.analyze(str(compile_c(base.source).program))
    after = session.analyze(str(compile_c(edit.source).program))

    cone = set(after.stats["invalidated_procedures"])
    outside = [name for name in after.functions if name not in cone]
    assert edit.function in cone and outside
    for name in outside:
        assert after.program.procedures[name] is before.program.procedures[name]
    assert after.program.procedures[edit.function] is not before.program.procedures[edit.function]
    reused = [
        name for name in outside
        if after[name].function_type is before[name].function_type
    ]
    assert len(reused) > len(outside) // 2
    assert after[edit.function].function_type is not before[edit.function].function_type
    assert result_fingerprint(after) == result_fingerprint(
        analyze_program(compile_c(edit.source).program)
    )


# The property test below edits a generated program at the asm level.  Its
# first procedure, ``shape``, is a leaf read through 0-2 pointer parameters:
# switching its variant changes how many structs the display names first,
# so every later ``struct_N`` shifts.
SHAPES = [
    "shape:\n    ret",
    "shape:\n    mov eax, [esp+4]\n    mov ecx, [eax]\n    mov edx, [eax+4]\n    ret",
    "shape:\n    mov eax, [esp+4]\n    mov ecx, [eax]\n    mov edx, [eax+8]\n"
    "    mov eax, [esp+8]\n    mov ecx, [eax+4]\n    mov edx, [eax+12]\n    ret",
]
_LABEL_LINE = re.compile(r"^[A-Za-z_$][\w.$@]*:$", re.MULTILINE)


@functools.lru_cache(maxsize=None)
def _split_base():
    """(directives, procedure chunks) of a small generated program."""
    text = str(generate_program(5, GenProfile.smoke()).compile().program)
    starts = [match.start() for match in _LABEL_LINE.finditer(text)]
    chunks = [text[a:b].rstrip("\n") for a, b in zip(starts, starts[1:] + [len(text)])]
    return text[: starts[0]], tuple(chunks)


@functools.lru_cache(maxsize=None)
def _cold_fingerprint(text):
    return result_fingerprint(analyze_program(text))


STEPS = st.one_of(
    st.tuples(st.just("edit"), st.integers(0, 99)),
    st.tuples(st.just("reopen"), st.integers(0, 99)),
    st.tuples(st.just("delete"), st.integers(0, 99)),
    st.tuples(st.just("rename"), st.integers(0, 99)),
    st.tuples(st.just("swap"), st.integers(0, 99), st.integers(0, 99)),
    st.tuples(st.just("cosmetic"), st.integers(0, 99), st.integers(0, 2)),
    st.tuples(st.just("shape"), st.integers(0, len(SHAPES) - 1)),
    st.tuples(st.just("malformed"), st.integers(0, 99)),
)


@settings(max_examples=12, deadline=None)
@given(st.lists(STEPS, min_size=3, max_size=7))
def test_every_session_step_equals_a_cold_analysis(steps):
    """Whatever sequence of edits, reopens, deletions, renames, reorderings,
    cosmetic edits, struct-shifting edits and malformed versions a session
    sees, each good version's result equals a cold analysis of its text, and
    a malformed one raises without disturbing the session."""
    directives, base_chunks = _split_base()
    chunks = [SHAPES[1]] + list(base_chunks)

    def render(parts):
        return directives + "\n\n".join(parts) + "\n"

    session = IncrementalSession(AnalysisService())
    history = [render(chunks)]
    assert result_fingerprint(session.analyze(history[0])) == _cold_fingerprint(history[0])
    for step in steps:
        kind, index = step[0], step[1] % len(chunks)
        head, _, body = chunks[index].partition("\n")
        if kind == "reopen":
            text = history[step[1] % len(history)]
        elif kind == "malformed":
            bad = list(chunks)
            bad[index] = f"{head}\n    bogus eax\n{body}"
            with pytest.raises(AsmSyntaxError):
                session.analyze(render(bad))
            continue
        else:
            if kind == "edit":
                chunks[index] = f"{head}\n    nop\n{body}"
            elif kind == "delete" and len(chunks) > 2:
                del chunks[index]
            elif kind == "rename":
                chunks[index] = re.sub(r"([\w.$@]+):", r"\1_r:", head, count=1) + "\n" + body
            elif kind == "swap":
                other = step[2] % len(chunks)
                chunks[index], chunks[other] = chunks[other], chunks[index]
            elif kind == "cosmetic":
                chunks[index] = [
                    f"{head} ; entry\n{body}",
                    f"  {head}\n\n{body}\n",
                    f"{head}\n{body.replace(chr(10), '   ' + chr(10), 1)}",
                ][step[2]]
            elif kind == "shape":
                position = next(
                    (i for i, chunk in enumerate(chunks) if chunk.startswith("shape:")), None
                )
                if position is not None:
                    chunks[position] = SHAPES[step[1]]
            text = render(chunks)
            history.append(text)
        assert result_fingerprint(session.analyze(text)) == _cold_fingerprint(text), step
