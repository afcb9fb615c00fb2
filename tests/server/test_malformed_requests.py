"""Malformed request lines get a typed error reply, never ``internal_error``.

A property test over what a client can put on the wire: arbitrary bytes,
arbitrary JSON values, and request objects whose ``v``, ``id``, ``op`` or
``params`` has the wrong type.  ``TypeQueryServer._respond`` turns one line
into one reply; every malformed line must come back as an error envelope
whose code the protocol defines and that is not ``internal_error`` (which
means the server failed, not the request).
"""

import asyncio
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.server import ServerConfig, TypeQueryServer, protocol
from repro.server.protocol import OPERATIONS, PROTOCOL_VERSION, ErrorCode

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=12),
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)

#: per field, values of a type the protocol rejects there.
WRONG = {
    "v": json_values.filter(lambda value: value != PROTOCOL_VERSION),
    "id": json_values.filter(lambda value: not isinstance(value, (int, str, type(None)))),
    "op": json_values.filter(lambda value: not (isinstance(value, str) and value in OPERATIONS)),
    "params": json_values.filter(lambda value: not isinstance(value, dict)),
}
#: per field, a well-formed value (so the wrong one is what the reply is about).
RIGHT = {
    "v": st.just(PROTOCOL_VERSION),
    "id": st.one_of(st.none(), st.integers(), st.text(max_size=8)),
    "op": st.sampled_from(sorted(OPERATIONS)),
    "params": st.dictionaries(st.text(max_size=8), json_values, max_size=3),
}


@st.composite
def malformed_requests(draw):
    """A request object with at least one field of the wrong type or missing."""
    wrong = draw(st.sets(st.sampled_from(sorted(WRONG)), min_size=1))
    message = {}
    for field in sorted(WRONG):
        if field in wrong:
            if field in ("v", "op") and draw(st.booleans()):
                continue  # missing: as wrong as a bad value (id and params may be absent)
            message[field] = draw(WRONG[field])
        else:
            message[field] = draw(RIGHT[field])
    return json.dumps(message).encode() + b"\n"


@pytest.fixture(scope="module")
def respond():
    loop = asyncio.new_event_loop()
    server = TypeQueryServer(ServerConfig(port=0))
    try:
        yield lambda line: json.loads(loop.run_until_complete(server._respond(line)))
    finally:
        loop.run_until_complete(server.aclose())
        loop.close()


def assert_typed_error(reply):
    assert reply["ok"] is False, reply
    assert reply["error"]["code"] in ErrorCode.ALL, reply
    assert reply["error"]["code"] != ErrorCode.INTERNAL_ERROR, reply


@settings(max_examples=300, deadline=None)
@given(malformed_requests())
def test_wrongly_typed_fields_get_a_typed_error(respond, line):
    assert_typed_error(respond(line))


@settings(max_examples=200, deadline=None)
@given(st.one_of(json_values.map(lambda value: json.dumps(value).encode()), st.binary(max_size=40)))
def test_arbitrary_lines_never_raise_an_internal_error(respond, line):
    reply = respond(line + b"\n")
    if not reply["ok"]:
        assert_typed_error(reply)
