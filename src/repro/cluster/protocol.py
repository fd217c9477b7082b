"""Wire protocol for the cluster runtime (the GRPC stand-in, §5).

Frames are length-prefixed JSON documents over a TCP stream: a 4-byte
big-endian unsigned length followed by that many bytes of UTF-8 JSON.
Every frame carries the :class:`~repro.framework.transport.Message`
envelope fields (``topic``, ``kind``, ``payload``, ``sender``) so the
socket hop preserves the in-process bus discipline exactly.  Frames
may additionally carry a ``trace`` field — the sender's trace context
(``{"trace_id", "span_id"}``, plus the head's experiment clock on
RPCs to workers that record telemetry) — so spans recorded on either
side of the socket join one distributed trace (see
``docs/observability.md``).

Payloads may contain numpy arrays and scalars (model weights inside
suspend snapshots, curve-prediction sample matrices); those are encoded
as tagged JSON objects::

    {"__nd__": {"dtype": "float64", "shape": [3, 2], "data": "<base64>"}}
    {"__bytes__": "<base64>"}

so the protocol stays inspectable with ``nc``/``tcpdump`` while still
round-tripping binary state bit-exactly.  Each direction is one pass:
the JSON encoder tags those values through its ``default`` hook and
the decoder untags them through its ``object_hook``.
"""

from __future__ import annotations

import base64
import json
import socket
import struct
from typing import Any, Dict, Optional

import numpy as np

__all__ = [
    "FrameError",
    "MAX_FRAME_BYTES",
    "encode_payload",
    "decode_payload",
    "pack_frame",
    "send_frame",
    "recv_frame",
]

#: Upper bound on one frame's body.  CRIU-style snapshots reach ~44 MB
#: (Fig. 10); 256 MB leaves headroom while catching corrupt length
#: prefixes before they turn into absurd allocations.
MAX_FRAME_BYTES = 256 * 1024 * 1024

_LENGTH = struct.Struct(">I")


class FrameError(ConnectionError):
    """The stream ended mid-frame or carried a malformed frame."""


def encode_payload(value: Any) -> Any:
    """Recursively map a payload onto JSON-representable values."""
    if isinstance(value, np.ndarray):
        return {
            "__nd__": {
                "dtype": str(value.dtype),
                "shape": list(value.shape),
                "data": base64.b64encode(np.ascontiguousarray(value).tobytes()).decode("ascii"),
            }
        }
    if isinstance(value, (bytes, bytearray)):
        return {"__bytes__": base64.b64encode(bytes(value)).decode("ascii")}
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, dict):
        return {str(key): encode_payload(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode_payload(item) for item in value]
    return value


def decode_payload(value: Any) -> Any:
    """Invert :func:`encode_payload` (tagged objects back to binary).

    Raises:
        FrameError: on a tagged object that does not decode.
    """
    if isinstance(value, dict):
        return _untag({key: decode_payload(item) for key, item in value.items()})
    if isinstance(value, list):
        return [decode_payload(item) for item in value]
    return value


def _tag(value: Any) -> Any:
    """``json.dumps`` hook: the values JSON cannot write itself."""
    if isinstance(value, (np.ndarray, bytes, bytearray, np.generic)):
        return encode_payload(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _untag(document: Dict[str, Any]) -> Any:
    """``json.loads`` hook: one decoded object, its members already done."""
    if len(document) != 1:
        return document
    try:
        if "__nd__" in document:
            spec = document["__nd__"]
            raw = base64.b64decode(spec["data"], validate=True)
            array = np.frombuffer(raw, dtype=np.dtype(spec["dtype"]))
            return array.reshape(spec["shape"]).copy()
        if "__bytes__" in document:
            return base64.b64decode(document["__bytes__"], validate=True)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FrameError(f"malformed tagged object: {exc!r}") from exc
    return document


# Built once, as ``json`` builds its own defaults: keyword arguments to
# ``json.dumps``/``json.loads`` would build a new coder per frame.
_ENCODER = json.JSONEncoder(separators=(",", ":"), default=_tag)
_DECODER = json.JSONDecoder(object_hook=_untag)


def pack_frame(document: Dict[str, Any]) -> bytes:
    """Serialise one frame (length prefix + JSON body) in one pass.

    The bytes are those of the compact
    ``json.dumps(encode_payload(document))`` for every document whose
    dict keys are strings, which is every frame the cluster sends.
    Other keys are written as JSON writes them (``1`` as ``"1"``,
    ``True`` as ``"true"``); a key JSON cannot write (a tuple, a numpy
    integer) raises ``TypeError``.
    """
    body = _ENCODER.encode(document).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {len(body)} bytes exceeds protocol maximum")
    return _LENGTH.pack(len(body)) + body


def send_frame(sock: socket.socket, document: Dict[str, Any]) -> None:
    """Write one frame to ``sock`` (atomic from the reader's view)."""
    sock.sendall(pack_frame(document))


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if remaining == n and not chunks:
                return None  # clean EOF on a frame boundary
            raise FrameError("stream ended mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """Read one frame, or None on clean EOF.

    Raises:
        FrameError: on a truncated stream, an oversized length prefix,
            a body that is not a JSON object, or a tagged object that
            does not decode.
    """
    prefix = _recv_exact(sock, _LENGTH.size)
    if prefix is None:
        return None
    (length,) = _LENGTH.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame length {length} exceeds protocol maximum")
    body = _recv_exact(sock, length)
    if body is None:
        raise FrameError("stream ended mid-frame")
    try:
        document = _DECODER.decode(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"malformed frame body: {exc}") from exc
    if not isinstance(document, dict):
        raise FrameError("frame body must be a JSON object")
    return document
