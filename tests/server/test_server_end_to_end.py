"""The daemon over a real socket: fidelity, sessions, corpus, concurrency, errors.

The fidelity contract is exact: whatever a client receives over TCP must be
byte-identical (as canonical JSON) to the payload built from an in-process
:func:`repro.analyze_program` run of the same source.
"""

import asyncio
import contextlib
import json
import socket
import threading

import pytest

from repro import analyze_program
from repro.eval.workloads import family_workloads, program_workload
from repro.gen import GenProfile, generate_family, generate_program
from repro.server import (
    AsyncTypeQueryClient,
    ServerConfig,
    TypeQueryClient,
    TypeQueryError,
    TypeQueryServer,
    protocol,
)

# ---------------------------------------------------------------------------
# Harness: a real server on a real socket, in a background thread
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def running_server(**config_kwargs):
    """Run a TypeQueryServer on its own event loop; yields (host, port, server)."""
    config_kwargs.setdefault("port", 0)
    config_kwargs.setdefault("allow_shutdown", True)
    started = threading.Event()
    info = {}
    loop = asyncio.new_event_loop()

    async def runner():
        server = TypeQueryServer(ServerConfig(**config_kwargs))
        host, port = await server.start()
        info.update(host=host, port=port, server=server, stop=server._stopping)
        started.set()
        await server.serve_forever()

    def run():
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(runner())
        finally:
            loop.close()

    thread = threading.Thread(target=run, name="type-server", daemon=True)
    thread.start()
    assert started.wait(60), "server failed to start"
    try:
        yield info["host"], info["port"], info["server"]
    finally:
        loop.call_soon_threadsafe(info["stop"].set)
        thread.join(timeout=60)
        assert not thread.is_alive(), "server thread failed to stop"


@pytest.fixture(scope="module")
def server():
    with running_server() as (host, port, instance):
        yield host, port, instance


@pytest.fixture(scope="module")
def suite():
    """A miniature version of the evaluation suite: a cluster + standalones."""
    smoke = GenProfile.smoke()
    workloads = family_workloads(generate_family(7, smoke, members=2, name="srvcluster"))
    workloads.append(program_workload(generate_program(11, smoke, name="srv_solo")))
    workloads.append(program_workload(generate_program(13, smoke.scaled(4 / 6), name="srv_tiny")))
    return workloads


@pytest.fixture(scope="module")
def expected(suite):
    """In-process reference analyses, one per suite program."""
    return {workload.name: analyze_program(workload.program) for workload in suite}


def canonical(payload) -> str:
    """Canonical JSON of the *type content* of a payload.

    Run statistics (wall-clock timings, cache hit counts) legitimately differ
    between a warm server and a cold in-process run; everything else --
    signatures, schemes, sketches, struct layouts, reports -- must be
    byte-identical.
    """
    if isinstance(payload, dict):
        payload = {key: value for key, value in payload.items() if key != "stats"}
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)


# ---------------------------------------------------------------------------
# Round-trip fidelity (the acceptance criterion)
# ---------------------------------------------------------------------------


def test_analyze_and_query_match_in_process(server, suite, expected):
    host, port, _ = server
    with TypeQueryClient(host, port) as client:
        for workload in suite:
            reference = expected[workload.name]
            result = client.analyze(str(workload.program), kind="asm")
            assert result["signatures"] == {
                name: reference.signature(name) for name in sorted(reference.functions)
            }
            program_id = result["program_id"]

            # Whole-program payload: byte-identical canonical JSON.
            remote = client.query(program_id)
            local = protocol.program_payload(reference, program_id)
            assert canonical(remote) == canonical(local)

            # Every procedure: signature, scheme, sketches, struct layout.
            for name in reference.functions:
                remote_proc = client.query(program_id, name)
                local_proc = protocol.procedure_payload(reference, program_id, name)
                assert canonical(remote_proc) == canonical(local_proc)


def test_c_source_kind_matches_compiled(server, suite, expected):
    host, port, _ = server
    workload = suite[-1]
    reference = expected[workload.name]
    with TypeQueryClient(host, port) as client:
        result = client.analyze(workload.source, kind="c", full=True)
        assert result["program"]["report"] == reference.report()


def test_repeat_analyze_is_served_from_registry(server, suite):
    host, port, instance = server
    workload = suite[0]
    with TypeQueryClient(host, port) as client:
        first = client.analyze(str(workload.program))
        again = client.analyze(str(workload.program))
    assert again["cached"] is True
    assert again["program_id"] == first["program_id"]
    assert instance.registry.hits >= 1


# ---------------------------------------------------------------------------
# Concurrency: N asyncio clients, byte-identical answers
# ---------------------------------------------------------------------------


def test_eight_concurrent_clients_get_identical_answers(server, suite, expected):
    host, port, _ = server
    clients = 8
    workload = suite[1 % len(suite)]
    reference = expected[workload.name]
    source = str(workload.program)
    procedures = sorted(reference.functions)

    async def one_client(index: int):
        client = await AsyncTypeQueryClient.connect(host, port, connect_retries=5)
        try:
            result = await client.analyze(source)
            program_id = result["program_id"]
            payloads = {"program": await client.query(program_id)}
            for name in procedures:
                payloads[name] = await client.query(program_id, name)
            return payloads
        finally:
            await client.aclose()

    async def fan_out():
        return await asyncio.gather(*(one_client(i) for i in range(clients)))

    all_payloads = asyncio.run(fan_out())
    assert len(all_payloads) == clients

    program_id = all_payloads[0]["program"]["program_id"]
    reference_payloads = {
        "program": protocol.program_payload(reference, program_id)
    }
    for name in procedures:
        reference_payloads[name] = protocol.procedure_payload(
            reference, program_id, name
        )
    for payloads in all_payloads:
        for key, payload in payloads.items():
            assert canonical(payload) == canonical(reference_payloads[key])


def test_concurrent_distinct_programs(server, suite, expected):
    host, port, _ = server

    async def analyze_one(workload):
        client = await AsyncTypeQueryClient.connect(host, port, connect_retries=5)
        try:
            result = await client.analyze(str(workload.program))
            return workload.name, result["signatures"]
        finally:
            await client.aclose()

    async def fan_out():
        return await asyncio.gather(*(analyze_one(w) for w in suite))

    for name, signatures in asyncio.run(fan_out()):
        reference = expected[name]
        assert signatures == {
            proc: reference.signature(proc) for proc in sorted(reference.functions)
        }


# ---------------------------------------------------------------------------
# Sessions: incremental re-analysis over the wire
# ---------------------------------------------------------------------------

SESSION_SOURCE = """
int leaf(int x) {
    return x + 1;
}

int caller(int x) {
    return leaf(x) + 2;
}

int bystander(int x) {
    return x * 2;
}
"""

SESSION_EDITED = SESSION_SOURCE.replace("return x + 1;", "return x + 3;")


def test_session_edit_resolves_only_invalidation_cone(server):
    host, port, _ = server
    with TypeQueryClient(host, port) as client:
        opened = client.session_open(SESSION_SOURCE, kind="c")
        session_id = opened["session_id"]
        assert set(opened["procedures"]) == {"leaf", "caller", "bystander"}

        edited = client.session_edit(session_id, SESSION_EDITED, kind="c")
        # Editing the leaf invalidates it and its transitive caller -- and
        # nothing else; the bystander is served from the summary store.
        assert edited["invalidated_procedures"] == ["caller", "leaf"]
        assert set(edited["solved_procedures"]) == {"caller", "leaf"}
        assert "bystander" in edited["cached_procedures"]
        assert edited["edits"] == 1

        # The edited program is queryable and exact.
        from repro.frontend import compile_c

        reference = analyze_program(compile_c(SESSION_EDITED).program)
        remote = client.query(edited["program_id"], "leaf")
        assert remote["signature"] == reference.signature("leaf")

        closed = client.session_close(session_id)
        assert closed["closed"] is True
        with pytest.raises(TypeQueryError) as err:
            client.session_edit(session_id, SESSION_SOURCE, kind="c")
        assert err.value.code == protocol.ErrorCode.UNKNOWN_SESSION


# ---------------------------------------------------------------------------
# Corpus: batched multi-program submission with shared summaries
# ---------------------------------------------------------------------------


def test_corpus_batch_reuses_shared_sccs(suite, expected):
    # A dedicated server so cluster-sharing statistics are not polluted by
    # other tests' cache traffic.
    with running_server() as (host, port, _):
        cluster = [w for w in suite if w.cluster == "srvcluster"]
        with TypeQueryClient(host, port) as client:
            result = client.corpus(
                {w.name: {"source": str(w.program), "kind": "asm"} for w in cluster}
            )
            members = result["programs"]
            assert set(members) == {w.name for w in cluster}
            # The second cluster member shares most of its code with the
            # first, so it must hit the shared summary store.
            total_hits = sum(entry["cache_hits"] for entry in members.values())
            assert total_hits > 0
            # Every member is immediately queryable with exact results.
            for workload in cluster:
                reference = expected[workload.name]
                entry = members[workload.name]
                remote = client.query(entry["program_id"])
                assert remote["report"] == reference.report()


# ---------------------------------------------------------------------------
# Typed errors and protocol edge cases
# ---------------------------------------------------------------------------


def test_typed_errors(server):
    host, port, _ = server
    with TypeQueryClient(host, port) as client:
        with pytest.raises(TypeQueryError) as err:
            client.query("0" * 64)
        assert err.value.code == protocol.ErrorCode.UNKNOWN_PROGRAM

        result = client.analyze(SESSION_SOURCE, kind="c")
        with pytest.raises(TypeQueryError) as err:
            client.query(result["program_id"], "no_such_procedure")
        assert err.value.code == protocol.ErrorCode.UNKNOWN_PROCEDURE

        with pytest.raises(TypeQueryError) as err:
            client.analyze("int broken(", kind="c")
        assert err.value.code == protocol.ErrorCode.PARSE_ERROR

        with pytest.raises(TypeQueryError) as err:
            client.request("analyze", {"source": SESSION_SOURCE, "kind": "rust"})
        assert err.value.code == protocol.ErrorCode.INVALID_PARAMS

        with pytest.raises(TypeQueryError) as err:
            client.request("corpus", {"programs": {}})
        assert err.value.code == protocol.ErrorCode.INVALID_PARAMS

        with pytest.raises(TypeQueryError) as err:
            client.request("session.close", {"session_id": "nope"})
        assert err.value.code == protocol.ErrorCode.UNKNOWN_SESSION


def test_raw_socket_version_and_framing_errors(server):
    host, port, _ = server
    with socket.create_connection((host, port), timeout=30) as sock:
        handle = sock.makefile("rwb")
        # Wrong protocol version.
        handle.write(b'{"v": 99, "id": 1, "op": "ping", "params": {}}\n')
        handle.flush()
        reply = json.loads(handle.readline())
        assert reply["ok"] is False
        assert reply["error"]["code"] == protocol.ErrorCode.UNSUPPORTED_VERSION
        assert reply["id"] == 1

        # Garbage line: typed bad_request, connection stays usable.
        handle.write(b"this is not json\n")
        handle.flush()
        reply = json.loads(handle.readline())
        assert reply["error"]["code"] == protocol.ErrorCode.BAD_REQUEST

        # Unknown op.
        handle.write(b'{"v": 1, "id": 2, "op": "frobnicate", "params": {}}\n')
        handle.flush()
        reply = json.loads(handle.readline())
        assert reply["error"]["code"] == protocol.ErrorCode.UNKNOWN_OP

        # The connection survived all three errors.
        handle.write(protocol.encode(protocol.make_request("ping", {}, 3)))
        handle.flush()
        reply = json.loads(handle.readline())
        assert reply["ok"] is True and reply["result"]["server"] == protocol.SERVER_NAME


def test_oversized_request_reaches_client_as_typed_error():
    with running_server(max_request_bytes=4096) as (host, port, _):
        with TypeQueryClient(host, port) as client:
            # The server's error reply carries id=null (the line never
            # parsed); the client must still surface the typed code.
            with pytest.raises(TypeQueryError) as err:
                client.analyze("x" * 8192)
            assert err.value.code == protocol.ErrorCode.TOO_LARGE


def test_failed_session_open_releases_its_slot():
    with running_server(max_sessions=1) as (host, port, instance):
        with TypeQueryClient(host, port) as client:
            with pytest.raises(TypeQueryError) as err:
                client.session_open("int broken(", kind="c")
            assert err.value.code == protocol.ErrorCode.PARSE_ERROR
            assert len(instance._sessions) == 0
            # The slot is free: a valid open succeeds.
            opened = client.session_open(SESSION_SOURCE, kind="c")
            client.session_close(opened["session_id"])


def test_oversized_request_line_is_rejected():
    with running_server(max_request_bytes=4096) as (host, port, _):
        with socket.create_connection((host, port), timeout=30) as sock:
            handle = sock.makefile("rwb")
            handle.write(b'{"v": 1, "id": 1, "op": "ping", "pad": "' + b"x" * 8192 + b'"}\n')
            handle.flush()
            reply = json.loads(handle.readline())
            assert reply["ok"] is False
            assert reply["error"]["code"] == protocol.ErrorCode.TOO_LARGE
            # Framing is unrecoverable: the server hangs up afterwards.
            assert handle.readline() == b""


def test_overloaded_gate(server, suite):
    # max_pending=0 means the gate admits nothing: a deterministic stand-in
    # for "too many analyses queued".
    with running_server(max_pending=0) as (host, port, _):
        with TypeQueryClient(host, port) as client:
            assert client.ping()["server"] == protocol.SERVER_NAME  # cheap ops unaffected
            with pytest.raises(TypeQueryError) as err:
                client.analyze(str(suite[0].program))
            assert err.value.code == protocol.ErrorCode.OVERLOADED


def test_session_cap_bounds_open_sessions():
    with running_server(max_sessions=1) as (host, port, _):
        with TypeQueryClient(host, port) as client:
            opened = client.session_open(SESSION_SOURCE, kind="c")
            with pytest.raises(TypeQueryError) as err:
                client.session_open(SESSION_SOURCE, kind="c")
            assert err.value.code == protocol.ErrorCode.OVERLOADED
            # Closing frees the slot.
            client.session_close(opened["session_id"])
            reopened = client.session_open(SESSION_SOURCE, kind="c")
            client.session_close(reopened["session_id"])


def test_concurrent_identical_submissions_analyze_once(suite):
    """In-flight dedup: N clients racing the same cold program -> one solve."""
    with running_server() as (host, port, instance):
        workload = suite[-1]
        source = str(workload.program)

        async def submit():
            client = await AsyncTypeQueryClient.connect(host, port, connect_retries=5)
            try:
                return await client.analyze(source)
            finally:
                await client.aclose()

        async def fan_out():
            return await asyncio.gather(*(submit() for _ in range(8)))

        results = asyncio.run(fan_out())
        program_id = results[0]["program_id"]
        assert all(r["program_id"] == program_id for r in results)
        # Exactly one analysis was admitted; the others were folded into the
        # leader's flight (or served from the registry if they arrived after
        # it finished).
        assert instance.registry.admits == 1
        # Coalesced followers answer from *this* flight's solve, so they
        # report cached=False exactly like the leader -- every reply that
        # joined the flight is byte-identical, cached flag included.
        coalesced = instance.coalesced_total
        assert sum(1 for r in results if not r["cached"]) == 1 + coalesced
        assert len({canonical(r) for r in results if not r["cached"]}) == 1


def test_shutdown_verb_gating(server, suite):
    with running_server(allow_shutdown=False) as (host, port, _):
        with TypeQueryClient(host, port) as client:
            with pytest.raises(TypeQueryError) as err:
                client.shutdown()
            assert err.value.code == protocol.ErrorCode.SHUTDOWN_DISABLED


def test_stats_surface(server):
    host, port, _ = server
    with TypeQueryClient(host, port) as client:
        client.ping()
        stats = client.stats()
    assert stats["requests_served"] >= 1
    assert "registry" in stats and "store" in stats
    assert stats["sessions_open"] == 0


HEALTH_KEYS = {
    "healthy",
    "role",
    "pid",
    "uptime_seconds",
    "analyses_pending",
    "sessions_open",
    "store_backend",
}


def test_health_reports_the_documented_keys_and_store_tier(server, tmp_path):
    """``health`` carries exactly the keys docs/protocol.md lists, and names
    the store tier the server mounted: memory by default, disk with a store_dir."""
    host, port, _ = server
    with TypeQueryClient(host, port) as client:
        health = client.health()
    assert set(health) == HEALTH_KEYS
    assert health["healthy"] is True and health["role"] == "server"
    assert health["store_backend"] == "memory"

    with running_server(store_dir=str(tmp_path / "store")) as (host, port, _):
        with TypeQueryClient(host, port) as client:
            health = client.health()
    assert set(health) == HEALTH_KEYS
    assert health["store_backend"] == "disk"


def test_stats_per_program_stage_timings(server, suite):
    """``stats`` with a program_id reports where the solver spent its time."""
    workload = suite[-1]
    host, port, _ = server
    with TypeQueryClient(host, port) as client:
        submitted = client.analyze(workload.source, kind="c")
        stats = client.stats(submitted["program_id"])

        assert stats["program_id"] == submitted["program_id"]
        assert stats["procedures"] == submitted["procedures"]
        stage = stats["stage_seconds"]
        for name in ("shapes", "graph", "saturate", "simplify", "sketch"):
            assert stage[f"{name}_seconds"] >= 0.0
        assert stage["total_seconds"] == pytest.approx(
            stage["shapes_seconds"]
            + stage["graph_seconds"]
            + stage["saturate_seconds"]
            + stage["simplify_seconds"]
            + stage["sketch_seconds"]
        )
        # This analysis solved at least one SCC cold somewhere in the server's
        # lifetime; the record reflects real structure, not zeros.
        assert stage["graph_nodes"] >= 0 and stats["solve_seconds"] > 0.0
        # Constraints count generation this run, which skips every SCC the
        # store served: zero exactly when nothing was generated.
        assert (stats["constraints"] > 0) == bool(stats["generated_procedures"])
        assert set(stats["generated_procedures"]) <= set(stats["procedures"])

        # Unknown programs get the typed error, same as query.
        with pytest.raises(TypeQueryError) as err:
            client.stats("prog_does_not_exist")
        assert err.value.code == protocol.ErrorCode.UNKNOWN_PROGRAM


def test_stats_stage_timings_nonzero_for_cold_analysis():
    """On a fresh daemon the first analysis must attribute real time to stages."""
    source = "int twice(int x) { return x + x; }\nint use(int y) { return twice(y); }\n"
    with running_server() as (host, port, _):
        with TypeQueryClient(host, port) as client:
            submitted = client.analyze(source, kind="c")
            stage = client.stats(submitted["program_id"])["stage_seconds"]
    assert stage["sccs_timed"] >= 1
    assert stage["total_seconds"] > 0.0
    assert stage["sketch_seconds"] > 0.0
    assert stage["graph_nodes"] > 0 and stage["graph_edges"] > 0


def test_process_backend_server_serves_worker_stats():
    """A --backend processes daemon fans ``corpus`` requests out to workers,
    answers identically and exposes the per-worker SolveStats merge through
    the ``stats`` verb."""
    source = """
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
    from repro.frontend import compile_c

    twin = source.replace("leaf_e(x)", "leaf_e(x) + 1")
    expected = analyze_program(compile_c(source).program)
    with running_server(backend="processes", backend_workers=2) as (host, port, _):
        with TypeQueryClient(host, port) as client:
            # A single analyze always solves in-process.
            single = client.analyze(twin, kind="c")
            assert client.stats(single["program_id"])["executor"] == "serial"

            batch = client.corpus(
                {
                    "box": {"source": source, "kind": "c"},
                    "twin": {"source": twin, "kind": "c"},
                }
            )
            program_id = batch["programs"]["box"]["program_id"]
            # Fidelity holds across the process boundary and the socket.
            assert client.query(program_id)["report"] == expected.report()

            program_stats = client.stats(program_id)
            assert program_stats["executor"] == "processes"
            assert program_stats["worker_failed"] == 0
            workers = program_stats["worker_stats"]
            assert workers, "per-worker SolveStats merge missing"
            assert sum(entry["sccs_timed"] for entry in workers.values()) > 0

            daemon_stats = client.stats()
            assert daemon_stats["backend"] == "processes"
            pool = daemon_stats["procpool"]
            assert pool["max_workers"] == 2
            assert pool["chunks_dispatched"] >= 1
            assert pool["workers"], "pool-level per-worker stats missing"


@pytest.mark.parametrize("backend", ["serial", "processes"])
def test_happy_path_identical_under_every_backend(backend, suite, expected):
    """The analyze -> query and corpus -> query happy paths, byte-identical
    whichever backend the daemon was started with (so backend regressions
    surface in tier-1)."""
    workload = suite[-1]
    reference = expected[workload.name]
    with running_server(backend=backend) as (host, port, _):
        with TypeQueryClient(host, port) as client:
            result = client.analyze(str(workload.program), kind="asm")
            assert result["signatures"] == {
                name: reference.signature(name) for name in sorted(reference.functions)
            }
            program_id = result["program_id"]
            remote = client.query(program_id)
            local = protocol.program_payload(reference, program_id)
            assert canonical(remote) == canonical(local)

            batch = client.corpus(
                {w.name: {"source": str(w.program), "kind": "asm"} for w in suite[-2:]}
            )
            for name, entry in batch["programs"].items():
                assert client.stats(entry["program_id"])["executor"] == backend
                assert client.query(entry["program_id"])["report"] == expected[name].report()
