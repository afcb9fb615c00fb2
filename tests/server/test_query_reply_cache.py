"""Whole-program ``query`` replies served from bytes encoded once per registry entry.

The wire must not change: every raw reply line equals a fresh
``encode(make_response(...))`` of the registry entry current at that moment,
whether the bytes were just built or came from the cache, and a re-admitted
or evicted entry never serves the bytes of the types it replaced.  Also
covers asm sessions, which hand the server's session the text itself.
"""

import hashlib
import json
import socket

import pytest
from test_server_end_to_end import SESSION_EDITED, SESSION_SOURCE, running_server

from repro import analyze_program
from repro.frontend import compile_c
from repro.gen.oracle import result_fingerprint
from repro.server import TypeQueryClient, TypeQueryError, protocol

BASE_ASM = str(compile_c(SESSION_SOURCE).program)
EDITED_ASM = str(compile_c(SESSION_EDITED).program)
MALFORMED_ASM = BASE_ASM + "\nbroken:\n    frobnicate eax, 1\n    ret\n"


def payload_fingerprint(payload) -> str:
    """``result_fingerprint`` applied to a wire payload instead of live types."""
    scrubbed = {k: v for k, v in payload.items() if k not in ("program_id", "stats")}
    canonical = json.dumps(scrubbed, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def raw_query(handle, request_id, program_id) -> bytes:
    """Send one whole-program ``query`` and return the reply line as sent."""
    request = protocol.make_request("query", {"program_id": program_id}, request_id)
    handle.write(protocol.encode(request))
    handle.flush()
    return handle.readline()


def fresh_reply(instance, request_id, program_id) -> bytes:
    """The reply line the plain path would send for the current entry."""
    types = instance.registry.get(program_id)
    payload = protocol.program_payload(types, program_id)
    return protocol.encode(protocol.make_response(request_id, payload))


def test_raw_reply_matches_a_fresh_encode_when_built_and_when_cached():
    with running_server() as (host, port, instance):
        with TypeQueryClient(host, port) as client:
            program_id = client.analyze(BASE_ASM)["program_id"]
        with socket.create_connection((host, port), timeout=60) as sock:
            handle = sock.makefile("rwb")
            first = raw_query(handle, 1, program_id)  # builds the bytes
            second = raw_query(handle, 'two "ids" \\ é', program_id)  # cache hit
        assert first == fresh_reply(instance, 1, program_id)
        assert second == fresh_reply(instance, 'two "ids" \\ é', program_id)
        assert json.loads(first)["result"] == json.loads(second)["result"]


def test_readmission_through_session_open_serves_the_new_entry():
    with running_server() as (host, port, instance):
        with TypeQueryClient(host, port) as client:
            opened = client.session_open(BASE_ASM)
            program_id = opened["program_id"]
            before = client.query(program_id)
            assert before["stats"]["sccs_solved"] == opened["sccs_solved"] > 0
            # A second session on the same text re-admits the id with new
            # stats: every SCC now comes from the summary store.
            reopened = client.session_open(BASE_ASM)
            assert reopened["program_id"] == program_id
            assert reopened["sccs_solved"] == 0
            after = client.query(program_id)
        assert after["stats"]["sccs_solved"] == 0
        assert after["stats"]["sccs_cached"] == reopened["sccs_cached"]
        assert protocol.encode(protocol.make_response(None, after)) == fresh_reply(
            instance, None, program_id
        )


def test_eviction_at_capacity_one_drops_the_cached_reply():
    with running_server(registry_capacity=1) as (host, port, instance):
        with TypeQueryClient(host, port) as client:
            first_id = client.analyze(BASE_ASM)["program_id"]
            cold = client.query(first_id)
            client.analyze(EDITED_ASM)  # evicts the first program and its bytes
            assert first_id not in instance.registry
            assert instance.registry.evictions == 1
            # Re-analyzed from the warm summary store: a new entry, new stats.
            assert client.analyze(BASE_ASM)["cached"] is False
            warm = client.query(first_id)
        assert cold["stats"]["sccs_solved"] > 0
        assert warm["stats"]["sccs_solved"] == 0
        assert payload_fingerprint(warm) == payload_fingerprint(cold)


def test_malformed_asm_edit_is_a_parse_error_and_leaves_the_session_intact():
    with running_server() as (host, port, instance):
        with TypeQueryClient(host, port) as client:
            session_id = client.session_open(BASE_ASM)["session_id"]
            # The session holds the text's parse table: asm is handed over
            # as text, not parsed into a Program first.
            assert instance._sessions[session_id].session._table is not None
            with pytest.raises(TypeQueryError) as err:
                client.session_edit(session_id, MALFORMED_ASM)
            assert err.value.code == protocol.ErrorCode.PARSE_ERROR
            assert "frobnicate" in err.value.message

            edited = client.session_edit(session_id, EDITED_ASM)
            remote = client.query(edited["program_id"])

            fresh_id = client.session_open(BASE_ASM)["session_id"]
            fresh = client.session_edit(fresh_id, EDITED_ASM)

    assert payload_fingerprint(remote) == result_fingerprint(analyze_program(EDITED_ASM))
    assert edited["invalidated_procedures"] == fresh["invalidated_procedures"]
    assert edited["invalidated_procedures"] == ["caller", "leaf"]
    assert edited["edits"] == 2


def test_mini_c_sessions_still_compile_to_a_program():
    with running_server() as (host, port, instance):
        with TypeQueryClient(host, port) as client:
            session_id = client.session_open(SESSION_SOURCE, kind="c")["session_id"]
            assert instance._sessions[session_id].session._table is None
            with pytest.raises(TypeQueryError) as err:
                client.session_edit(session_id, "int broken(", kind="c")
            assert err.value.code == protocol.ErrorCode.PARSE_ERROR
