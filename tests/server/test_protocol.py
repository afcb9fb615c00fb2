"""Wire protocol: framing, versioning, typed errors, payload builders."""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import analyze_program
from repro.core.ctype import ctype_from_json, ctype_to_json
from repro.frontend import compile_c
from repro.server import protocol
from repro.server.protocol import ErrorCode, ProtocolError

SOURCE = """
struct node { struct node * next; int value; };

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
    return analyze_program(compile_c(SOURCE).program)


def test_encode_decode_round_trip():
    request = protocol.make_request("query", {"program_id": "abc"}, request_id=7)
    line = protocol.encode(request)
    assert line.endswith(b"\n") and line.count(b"\n") == 1
    assert protocol.decode_line(line) == request


def test_encode_is_deterministic():
    a = protocol.encode(protocol.make_request("ping", {}, 1))
    b = protocol.encode(protocol.make_request("ping", {}, 1))
    assert a == b


def test_decode_rejects_garbage():
    with pytest.raises(ProtocolError) as err:
        protocol.decode_line(b"not json at all\n")
    assert err.value.code == ErrorCode.BAD_REQUEST
    with pytest.raises(ProtocolError):
        protocol.decode_line(b"[1, 2, 3]\n")  # not an object


def test_validate_checks_version_and_op():
    good = protocol.make_request("ping", {}, 1)
    op, params, request_id = protocol.validate_request(good)
    assert (op, params, request_id) == ("ping", {}, 1)

    wrong_version = dict(good, v=99)
    with pytest.raises(ProtocolError) as err:
        protocol.validate_request(wrong_version)
    assert err.value.code == ErrorCode.UNSUPPORTED_VERSION

    wrong_op = dict(good, op="frobnicate")
    with pytest.raises(ProtocolError) as err:
        protocol.validate_request(wrong_op)
    assert err.value.code == ErrorCode.UNKNOWN_OP

    bad_params = dict(good, params=[1])
    with pytest.raises(ProtocolError) as err:
        protocol.validate_request(bad_params)
    assert err.value.code == ErrorCode.INVALID_PARAMS


def test_error_codes_are_typed():
    assert ErrorCode.UNKNOWN_PROCEDURE in ErrorCode.ALL
    with pytest.raises(AssertionError):
        ProtocolError("made_up_code", "nope")


def test_source_kind_validation():
    assert protocol.source_kind({}) == "asm"
    assert protocol.source_kind({"kind": "c"}) == "c"
    with pytest.raises(ProtocolError) as err:
        protocol.source_kind({"kind": "rust"})
    assert err.value.code == ErrorCode.INVALID_PARAMS


def test_program_payload_is_json_able(analyzed):
    payload = protocol.program_payload(analyzed, "prog0")
    rehydrated = json.loads(json.dumps(payload))
    assert rehydrated["program_id"] == "prog0"
    assert set(rehydrated["functions"]) == set(analyzed.functions)
    assert rehydrated["report"] == analyzed.report()
    for name, entry in rehydrated["structs"].items():
        assert str(ctype_from_json(entry["type"])) + ";" == entry["c"]


def test_procedure_payload_matches_in_process(analyzed):
    payload = json.loads(
        json.dumps(protocol.procedure_payload(analyzed, "prog0", "total"))
    )
    assert payload["signature"] == analyzed.signature("total")
    assert payload["scheme_text"] == str(analyzed.scheme("total"))
    # The scheme JSON round-trips through the established decoder.
    from repro.core.schemes import TypeScheme

    assert str(TypeScheme.from_json(payload["scheme"])) == str(analyzed.scheme("total"))
    # Struct layouts cover exactly the procedure's reachable structs.
    assert set(payload["structs"]) == set(analyzed.procedure_structs("total"))
    # Parameters arrive with displayed C types.
    expected = analyzed.functions["total"]
    assert [p["name"] for p in payload["params"]] == expected.param_names
    assert [ctype_from_json(p["type"]) for p in payload["params"]] == list(
        expected.function_type.params
    )
    assert ctype_from_json(payload["return"]["type"]) == expected.function_type.ret


def test_procedure_payload_unknown_procedure(analyzed):
    with pytest.raises(ProtocolError) as err:
        protocol.procedure_payload(analyzed, "prog0", "missing")
    assert err.value.code == ErrorCode.UNKNOWN_PROCEDURE


def test_analyze_payload_summary_and_full(analyzed):
    summary = protocol.analyze_payload(analyzed, "prog0", cached=False)
    assert summary["procedures"] == sorted(analyzed.functions)
    assert "program" not in summary
    full = protocol.analyze_payload(analyzed, "prog0", cached=True, full=True)
    assert full["cached"] is True
    assert full["program"]["report"] == analyzed.report()


def test_ctype_json_survives_recursive_struct(analyzed):
    for struct in analyzed.procedure_structs("total").values():
        assert ctype_from_json(json.loads(json.dumps(ctype_to_json(struct)))) == struct


# ---------------------------------------------------------------------------
# Spliced responses: a pre-encoded result inside the envelope
# ---------------------------------------------------------------------------

#: every request id ``validate_request`` lets through: int (bool included,
#: it is an int), null, and any string.
_REQUEST_IDS = st.one_of(st.none(), st.booleans(), st.integers(), st.text())

_JSON_VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.floats(allow_nan=False),
        st.text(),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(request_id=_REQUEST_IDS, result=_JSON_VALUES)
@example(request_id='a "quoted" id', result={})
@example(request_id="back\\slash\\", result=[])
@example(request_id="nön-ÄSCII ✓ \u2028 \U0001f600", result={"ü": "\n"})
@example(request_id=None, result=None)
@example(request_id=-(2**70), result={"b": 1, "a": [2, {"d": 3, "c": 4}]})
def test_encode_response_matches_plain_encoding(request_id, result):
    spliced = protocol.encode_response(request_id, protocol.encode_value(result))
    assert spliced == protocol.encode(protocol.make_response(request_id, result))
