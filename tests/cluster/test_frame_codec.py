"""The one-pass frame codec: byte-identical to the walk-then-dump
encoder, bit-exact on the way back, and a frame that does not decode
is a :class:`FrameError` wherever it arrives."""

from __future__ import annotations

import json
import math
import socket
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.cluster.protocol import (
    FrameError,
    decode_payload,
    encode_payload,
    pack_frame,
    recv_frame,
    send_frame,
)
from repro.cluster.transport import WorkerEndpoint

# ---------------------------------------------------------------- documents

_floats = st.floats(allow_nan=True, allow_infinity=True)
_arrays = hnp.arrays(
    dtype=st.sampled_from(["float64", "float32", "int64", "bool"]),
    shape=hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
)
_numpy_scalars = st.one_of(
    _floats.map(np.float64),
    st.floats(width=32, allow_nan=True, allow_infinity=True).map(np.float32),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)
_leaves = st.one_of(
    st.text(max_size=8),
    st.integers(),
    _floats,
    st.booleans(),
    st.none(),
    _arrays,
    st.binary(max_size=16),
    _numpy_scalars,
)


def _not_a_tag(obj) -> bool:
    """An object whose one key is ``__nd__`` or ``__bytes__`` is the
    codec's tag, and a malformed tag is a ``FrameError`` (see
    ``MALFORMED`` below), so a round-tripped document holds none."""
    return not (len(obj) == 1 and next(iter(obj)) in ("__nd__", "__bytes__"))


_values = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=4).filter(
            _not_a_tag
        ),
    ),
    max_leaves=16,
)
_documents = st.dictionaries(st.text(max_size=6), _values, max_size=5).filter(
    _not_a_tag
)


def walk_then_dump(document) -> bytes:
    """The encoder the one-pass codec replaced, kept as its reference."""
    return json.dumps(encode_payload(document), separators=(",", ":")).encode()


def assert_bit_exact(received, sent) -> None:
    """``received`` is what the wire makes of ``sent``: tuples arrive as
    lists, numpy scalars as Python numbers, every bit preserved."""
    if isinstance(sent, np.ndarray):
        assert isinstance(received, np.ndarray)
        assert received.dtype == sent.dtype and received.shape == sent.shape
        assert received.tobytes() == sent.tobytes()
        assert received.flags.writeable
    elif isinstance(sent, (bytes, bytearray)):
        assert type(received) is bytes and received == bytes(sent)
    elif isinstance(sent, dict):
        assert type(received) is dict and list(received) == list(sent)
        for key, item in sent.items():
            assert_bit_exact(received[key], item)
    elif isinstance(sent, (list, tuple)):
        assert type(received) is list and len(received) == len(sent)
        for got, item in zip(received, sent):
            assert_bit_exact(got, item)
    else:
        expected = sent.item() if isinstance(sent, np.generic) else sent
        assert type(received) is type(expected)
        if isinstance(expected, float) and math.isnan(expected):
            assert math.isnan(received)
        elif isinstance(expected, float):
            assert struct.pack(">d", received) == struct.pack(">d", expected)
        else:
            assert received == expected


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_documents)
def test_pack_frame_bytes_equal_the_walk_then_dump_encoder(document):
    frame = pack_frame(document)
    (length,) = struct.unpack(">I", frame[:4])
    assert frame[4:] == walk_then_dump(document)
    assert length == len(frame) - 4


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_documents)
def test_recv_frame_roundtrips_bit_exactly(document):
    left, right = socket.socketpair()
    try:
        send_frame(left, document)
        received = recv_frame(right)
    finally:
        left.close()
        right.close()
    assert_bit_exact(received, document)
    # The single-value codec decodes the same body to the same value.
    assert_bit_exact(decode_payload(json.loads(walk_then_dump(document))), document)


def test_non_string_keys_are_written_as_json_writes_them():
    """Every frame the cluster sends is keyed by strings (docs/cluster.md
    lists them).  For other keys ``pack_frame`` writes what JSON writes:
    the old ``str(key)`` bytes for ints and finite floats, JSON's own
    spelling for ``True``/``None``, and a ``TypeError`` for keys JSON
    cannot write."""
    for same in ({1: "a"}, {-7: [1]}, {2.5: None}, {np.float64(0.25): 1}):
        assert pack_frame(same)[4:] == walk_then_dump(same)
    assert pack_frame({True: 1, None: 2})[4:] == b'{"true":1,"null":2}'
    for rejected in ({(1, 2): "a"}, {np.int64(3): "a"}, {b"k": "a"}):
        with pytest.raises(TypeError):
            pack_frame(rejected)


def test_only_an_object_with_one_tag_key_is_tagged():
    document = {"a": {"__nd__": "x", "y": 1}, "b": {"__bytes__": "AA==", "z": None}}
    left, right = socket.socketpair()
    try:
        send_frame(left, document)
        assert recv_frame(right) == document
    finally:
        left.close()
        right.close()


def test_unknown_types_are_rejected_as_before():
    for value in ({1, 2}, object(), complex(1, 2)):
        with pytest.raises(TypeError):
            pack_frame({"payload": value})


# ----------------------------------------------------------- bad tagged data

EIGHT_BYTES = "AAAAAAAAAAA="
MALFORMED = {
    "nd_without_data": {"__nd__": {"dtype": "float64"}},
    "nd_unknown_dtype": {"__nd__": {"dtype": "nope", "shape": [1], "data": EIGHT_BYTES}},
    "nd_short_data": {"__nd__": {"dtype": "float64", "shape": [3], "data": "AAAA"}},
    "nd_data_not_base64": {
        "__nd__": {"dtype": "float64", "shape": [1], "data": "!!" + EIGHT_BYTES}
    },
    "nd_spec_not_object": {"__nd__": [1, 2]},
    "nd_object_dtype": {"__nd__": {"dtype": "O", "shape": [1], "data": EIGHT_BYTES}},
    "bytes_not_base64": {"__bytes__": "!!!"},
    "bytes_not_text": {"__bytes__": 7},
}


def _raw_frame(document) -> bytes:
    body = json.dumps(document).encode()
    return struct.pack(">I", len(body)) + body


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_tagged_object_is_a_frame_error(name):
    left, right = socket.socketpair()
    try:
        left.sendall(_raw_frame({"topic": "t", "kind": "k",
                                 "payload": {"x": [MALFORMED[name]]}}))
        with pytest.raises(FrameError, match="tagged"):
            recv_frame(right)
    finally:
        left.close()
        right.close()
    with pytest.raises(FrameError):
        decode_payload({"payload": MALFORMED[name]})


def test_worker_endpoint_turns_a_malformed_frame_into_connection_lost():
    head = socket.create_server(("127.0.0.1", 0))
    endpoint = WorkerEndpoint(*head.getsockname()[:2], "machine-00")
    try:
        endpoint.connect()
        conn, _ = head.accept()
        with conn:
            assert recv_frame(conn)["kind"] == "hello"
            conn.sendall(_raw_frame({
                "topic": "machine-00", "kind": "rpc", "sender": "head",
                "payload": MALFORMED["nd_without_data"],
            }))
            message = endpoint.mailbox.get(timeout=5.0)
        assert message is not None and message.kind == "connection_lost"
    finally:
        endpoint.close()
        head.close()
