"""Process-pool backend: codec fidelity, byte-identity, crash fallback.

Three layers of guarantees:

* the **codec** round-trips solver inputs and outputs byte-identically
  (property-tested: encode -> decode -> re-encode is the identity on the
  canonical JSON);
* **corpus fan-out** produces results byte-identical to a serial
  ``analyze_program`` run (the acceptance bar for shipping work across
  process boundaries);
* **failure injection** -- a worker hard-crash (``os._exit``) and a soft
  worker exception both send the affected programs down the in-process path,
  counted by the typed ``worker_failed`` stat, without changing any result.
"""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import analyze_corpus, analyze_program
from repro.core.constraints import ConstraintSet, parse_constraints
from repro.core.intern import StringTable
from repro.core.lattice import TypeLattice, default_lattice
from repro.core.solver import (
    ProcedureTypingInput,
    SolveStats,
    Solver,
    SolverConfig,
)
from repro.core.variables import parse_dtv
from repro.frontend import compile_c
from repro.ir.asmparser import parse_program
from repro.service import AnalysisService, ServiceConfig
from repro.service import procpool
from repro.service.store import (
    SCCSummary,
    deserialize_summary,
    serialize_summary,
    summarize_scc,
)
from repro.typegen.externs import ensure_lattice_tags, extern_schemes, standard_externs

# A program with many independent leaves plus a diamond on top.
SOURCE = """
struct box { int value; int fd; };

int leaf_a(const struct box * b) { return b->value; }
int leaf_b(const struct box * b) { return b->fd; }
int leaf_c(int x) { return x * 2; }
int leaf_d(int x, int y) { return x - y; }
int leaf_e(int x) { return x + 7; }

int mid_one(const struct box * b, int x) { return leaf_a(b) + leaf_c(x); }
int mid_two(const struct box * b, int y) { return leaf_b(b) + leaf_d(y, 3); }

int top(struct box * b, int x) { return mid_one(b, x) + mid_two(b, x) + leaf_e(x); }
"""


def _program():
    return compile_c(SOURCE).program


def _corpus():
    """Two programs, so analyze_corpus has something to fan out."""
    return {
        "box": _program(),
        "twin": compile_c(SOURCE.replace("leaf_e(x)", "leaf_e(x) + 1")).program,
    }


def _canonical_bytes(types):
    """The timing-free canonical JSON of an analysis (byte-comparable)."""
    payload = types.to_json()
    return json.dumps(
        {
            "functions": payload["functions"],
            "structs": payload["structs"],
            "report": payload["report"],
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")


def _baseline(corpus):
    return {name: _canonical_bytes(analyze_program(p)) for name, p in corpus.items()}


def _fanout_service(**config):
    return AnalysisService(ServiceConfig(executor="processes", max_workers=2, **config))


# ---------------------------------------------------------------------------
# The acceptance bar: byte-identical to serial analyze_program
# ---------------------------------------------------------------------------


def test_process_backend_byte_identical_to_serial_analyze_program():
    corpus = _corpus()
    baseline = _baseline(corpus)
    with _fanout_service() as service:
        report = analyze_corpus(corpus, service=service)
        warm = analyze_corpus(corpus, service=service)  # warm pool, same answer
        assert service.procpool_snapshot()["pools_built"] == 1
    for name in corpus:
        types = report[name].types
        assert types.stats["executor"] == "processes"
        assert types.stats["worker_failed"] == 0
        assert _canonical_bytes(types) == baseline[name]
        assert _canonical_bytes(warm[name].types) == baseline[name]
        # A real worker solved real SCCs and reported its per-stage timings.
        worker_stats = types.stats["worker_stats"]
        assert worker_stats, "expected the solving worker to report SolveStats"
        assert sum(entry["sccs_timed"] for entry in worker_stats.values()) > 0


def test_process_backend_with_store_matches_and_caches(tmp_path):
    corpus = _corpus()
    baseline = _baseline(corpus)
    with _fanout_service(cache_dir=str(tmp_path)) as service:
        cold = analyze_corpus(corpus, service=service)
        warm = analyze_corpus(corpus, service=service)
    for name in corpus:
        assert _canonical_bytes(cold[name].types) == baseline[name]
        assert _canonical_bytes(warm[name].types) == baseline[name]
        # The second corpus is served from the workers' stores: no re-solve.
        assert warm[name].cache_misses == 0
        assert warm[name].types.stats["sccs_solved"] == 0
    # Workers published to the shared disk tier; entries exist on disk.
    assert any(tmp_path.rglob("*.json"))


# ---------------------------------------------------------------------------
# Failure injection: crash and soft failure both fall back in-process
# ---------------------------------------------------------------------------


def test_worker_crash_requeues_sccs_in_process(monkeypatch):
    """A hard crash (``os._exit``) breaks the pool: every program of the
    corpus falls back in-process, byte-identical, and the next corpus gets a
    rebuilt pool."""
    corpus = _corpus()
    baseline = _baseline(corpus)
    monkeypatch.setenv(procpool.CRASH_ENV, "leaf_c")
    with _fanout_service() as service:
        report = analyze_corpus(corpus, service=service)
        pool = service._procpool
        assert pool.chunks_failed > 0
        for name in corpus:
            types = report[name].types
            assert types.stats["executor"] == "serial"
            assert types.stats["worker_failed"] >= 1
            # The typed stat also flows through the SolveStats record.
            assert types.stage_seconds["worker_failed"] == types.stats["worker_failed"]
            # Degradation is graceful: every result still byte-identical.
            assert _canonical_bytes(types) == baseline[name]

        # The first program solved everything in-process; the twin then
        # only needed the SCC it does not share.
        assert "leaf_c" in report["box"].types.stats["requeued_sccs"]
        assert report["twin"].types.stats["requeued_sccs"] == ["top"]

        monkeypatch.delenv(procpool.CRASH_ENV)
        again = analyze_corpus(_corpus(), service=service)
        assert pool.pools_built == 2
    for name in corpus:
        assert again[name].types.stats["executor"] == "processes"
        assert _canonical_bytes(again[name].types) == baseline[name]


def test_soft_worker_failure_requeues_without_killing_the_pool(monkeypatch):
    corpus = _corpus()
    baseline = _baseline(corpus)
    monkeypatch.setenv(procpool.FAIL_ENV, "leaf_d")
    with _fanout_service() as service:
        report = analyze_corpus(corpus, service=service)
        pool = service._procpool
        assert pool is not None and pool.pools_built == 1  # survived the exception
        assert pool.chunks_failed >= 1
    for name in corpus:
        assert report[name].types.stats["worker_failed"] >= 1
        assert _canonical_bytes(report[name].types) == baseline[name]


# ---------------------------------------------------------------------------
# Codec: property-tested byte-identical round trips (no subprocesses)
# ---------------------------------------------------------------------------

_VARS = ["f", "g", "h"]
_SUFFIXES = ["", ".load", ".store", ".load.sigma32@0", ".in_stack0", ".out_eax"]


@st.composite
def _typing_input(draw):
    lines = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        left = draw(st.sampled_from(_VARS)) + draw(st.sampled_from(_SUFFIXES))
        right = draw(st.sampled_from(_VARS)) + draw(st.sampled_from(_SUFFIXES))
        if left != right:
            lines.append(f"{left} <= {right}")
    formal_ins = tuple(
        parse_dtv(f"f.in_stack{4 * index}")
        for index in range(draw(st.integers(min_value=0, max_value=2)))
    )
    formal_outs = (parse_dtv("f.out_eax"),) if draw(st.booleans()) else ()
    return ProcedureTypingInput(
        name="f",
        constraints=parse_constraints(lines),
        formal_ins=formal_ins,
        formal_outs=formal_outs,
    )


@settings(max_examples=50, deadline=None)
@given(_typing_input())
def test_input_codec_round_trip_is_byte_identical(proc):
    table = StringTable()
    entry = procpool.encode_input(proc, table.intern)
    encoded = json.dumps({"e": entry, "t": table.to_list()}, sort_keys=True)
    wire = json.loads(encoded)
    reader = procpool._TableReader(wire["t"])
    decoded = procpool.decode_input("f", wire["e"], reader)
    assert decoded.constraints == proc.constraints
    assert decoded.formal_ins == proc.formal_ins
    assert decoded.formal_outs == proc.formal_outs
    re_table = StringTable()
    re_entry = procpool.encode_input(decoded, re_table.intern)
    re_encoded = json.dumps({"e": re_entry, "t": re_table.to_list()}, sort_keys=True)
    assert re_encoded == encoded


@settings(max_examples=25, deadline=None)
@given(_typing_input())
def test_solve_scc_results_round_trip_byte_identical(proc):
    """A solved SCC's summary survives the procpool codec byte-for-byte.

    ``solve -> serialize -> (wire) -> deserialize -> re-serialize`` must be
    the identity on the canonical JSON -- the exact property the parent
    relies on when it admits worker payloads into the summary store.
    """
    lattice = ensure_lattice_tags(default_lattice())
    solver = Solver(lattice, extern_schemes(standard_externs()), SolverConfig())
    results = solver.solve_scc(["f"], {"f": proc}, {}, stats=SolveStats())
    payload = serialize_summary(summarize_scc(["f"], {"f": proc}, results, {}))
    wire = json.dumps(payload, sort_keys=True, separators=(",", ":"))

    summary = deserialize_summary(json.loads(wire), lattice)
    re_serialized = serialize_summary(
        SCCSummary(members=summary.members, procedures=summary.procedures)
    )
    assert json.dumps(re_serialized, sort_keys=True, separators=(",", ":")) == wire

    # And the decoded result is semantically the solved result, formals and all.
    assert summary.procedures["f"].formal_ins == proc.formal_ins
    assert summary.procedures["f"].formal_outs == proc.formal_outs
    rebuilt = summary.procedures["f"].to_result()
    assert str(rebuilt.scheme) == str(results["f"].scheme)
    assert {str(d): s.to_json() for d, s in rebuilt.formal_in_sketches.items()} == {
        str(d): s.to_json() for d, s in results["f"].formal_in_sketches.items()
    }


def test_environment_codec_round_trips_lattice_and_externs():
    lattice = ensure_lattice_tags(default_lattice())
    lattice.add_element("HANDLE", ["uint"])
    env_json = procpool.encode_environment(
        lattice, standard_externs(), SolverConfig(), cache_dir=None
    )
    env = json.loads(env_json)
    rebuilt = TypeLattice.from_json(env["lattice"])
    assert rebuilt.fingerprint() == lattice.fingerprint()
    # Canonical: encoding the rebuilt lattice is byte-identical.
    assert json.dumps(rebuilt.to_json(), sort_keys=True) == json.dumps(
        lattice.to_json(), sort_keys=True
    )


# ---------------------------------------------------------------------------
# The worker function, run in-process: disk-tier warm reuse
# ---------------------------------------------------------------------------


def test_worker_reuses_shared_disk_tier_without_resolving(tmp_path):
    """A worker whose store already holds a program's SCCs serves them all."""
    program = _program()
    # Populate the shared disk tier with a serial cached run.
    with AnalysisService(ServiceConfig(cache_dir=str(tmp_path))) as service:
        service.analyze(program)
        lattice = service.lattice
        externs = service.extern_table
        config = service.config.solver

    # Impersonate a worker in this process: same env, same disk tier.
    env_json = procpool.encode_environment(lattice, externs, config, str(tmp_path))
    procpool._init_worker(env_json)
    task = procpool.encode_corpus_task([("box", str(program))])
    reply = json.loads(procpool._worker_solve_chunk(task))
    assert reply["pid"] == os.getpid()
    (entry,) = reply["programs"]
    assert entry["cache_misses"] == 0, "expected shared-disk-tier hits, not re-solves"
    assert entry["cache_hits"] == len(entry["summaries"]) > 0
    assert entry["stats"]["sccs_timed"] == 0  # cache hits contribute no core work


def _worker_reply(service, programs):
    """Run one chunk through the worker functions in this process, with the
    environment ``service`` would ship to its pool."""
    procpool._init_worker(
        procpool.encode_environment(
            service.lattice, service.extern_table, service.config.solver, None
        )
    )
    task = procpool.encode_corpus_task([(name, str(p)) for name, p in programs])
    return json.loads(procpool._worker_solve_chunk(task))


def _decoded_inputs(reply, entry):
    reader = procpool._TableReader(reply["strings"])
    return {
        name: procpool.decode_input(name, encoded, reader)
        for name, encoded in entry["inputs"].items()
    }


def test_worker_ships_the_summaries_an_in_process_service_publishes(monkeypatch):
    """Each reply's summary payloads equal, key for key, what an in-process
    service publishes for the same programs: one bottom-up loop, one call
    graph, one set of keys."""
    corpus = _corpus()
    reference = AnalysisService()
    published = {}
    real_put = reference.store.put

    def put(key, summary):
        published[key] = json.loads(json.dumps(serialize_summary(summary)))
        return real_put(key, summary)

    monkeypatch.setattr(reference.store, "put", put)
    keys = {
        name: reference.analyze(program).stats["scc_store_keys"]
        for name, program in corpus.items()
    }

    reply = _worker_reply(reference, corpus.items())
    assert [entry["name"] for entry in reply["programs"]] == list(corpus)
    for entry in reply["programs"]:
        assert entry["stats"]["codec_seconds"] > 0  # the reply's encode
        shipped = {key: payload for key, payload in entry["summaries"]}
        assert len(shipped) == len(entry["summaries"])
        assert set(shipped) == set(keys[entry["name"]].values())
        for key, payload in shipped.items():
            assert payload == published[key], key
    # The twin shares every SCC but its top's cone: the worker's own store
    # served those, so it generated inputs for the rest only.
    box, twin = reply["programs"]
    assert box["cache_hits"] == 0 and set(box["inputs"]) == set(corpus["box"].procedures)
    assert twin["cache_hits"] > 0
    assert len(twin["inputs"]) == twin["cache_misses"] < len(corpus["twin"].procedures)


def test_worker_ships_every_summary_of_a_program_larger_than_its_store():
    """300 leaf SCCs against the worker's 256-entry memory tier: every
    summary still goes back, and the parent replay reproduces the serial
    answer from them."""
    program = parse_program(
        "\n".join(f"leaf{i}:\n    mov eax, {i}\n    ret" for i in range(300))
    )
    reply = _worker_reply(AnalysisService(), [("wide", program)])
    (entry,) = reply["programs"]
    assert entry["cache_misses"] == len({key for key, _ in entry["summaries"]}) == 300

    parent = AnalysisService()
    for key, payload in entry["summaries"]:
        parent.store.admit_payload(key, payload, write_disk=False)
    types = parent.analyze(program, inputs=_decoded_inputs(reply, entry))
    assert types.stats["sccs_solved"] == 0
    assert _canonical_bytes(types) == _canonical_bytes(analyze_program(program))


def test_parent_replay_generates_what_neither_inputs_nor_store_cover():
    """A worker ships inputs only for the SCCs its store missed; SCCs it
    served that the parent's store no longer holds are generated and solved
    in the parent, byte-identical."""
    corpus = _corpus()
    reply = _worker_reply(AnalysisService(), corpus.items())
    twin = reply["programs"][1]
    assert twin["cache_hits"] > 0
    parent = AnalysisService(ServiceConfig(cache_capacity=2))
    for key, payload in twin["summaries"]:
        parent.store.admit_payload(key, payload, write_disk=False)
    types = parent.analyze(corpus["twin"], inputs=_decoded_inputs(reply, twin))
    assert types.stats["sccs_solved"] > twin["cache_misses"]
    assert _canonical_bytes(types) == _baseline({"twin": corpus["twin"]})["twin"]


def test_worker_rejects_mismatched_task_format():
    with pytest.raises(RuntimeError):
        procpool._worker_solve_chunk(json.dumps({"format": "bogus", "programs": []}))


# ---------------------------------------------------------------------------
# Executor selection and pool lifecycle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("executor", ["threads", "auto", "fibers"])
def test_unknown_executor_is_rejected(executor):
    with pytest.raises(ValueError):
        AnalysisService(ServiceConfig(executor=executor))


def test_environment_change_rebuilds_the_pool():
    service = AnalysisService(ServiceConfig(use_cache=False, executor="processes"))
    try:
        first = service._ensure_procpool()
        assert service._ensure_procpool() is first  # stable while env is stable
        service.lattice.add_element("#Widget", ["int"])
        second = service._ensure_procpool()
        assert second is not first
        assert second.env_json != first.env_json
    finally:
        service.close()
        assert service._procpool is None
        service.close()  # idempotent
