"""Wire-protocol contract: framing, malformed input, version handling.

Two layers of coverage:

* pure codec tests on :mod:`repro.service.protocol` (round-trips and
  the error taxonomy), and
* live-server tests proving that every malformed-input class maps to a
  structured ``error`` frame -- and that the server neither crashes nor
  poisons the connection for later well-formed requests.

The live server holds no analysis state (only ``ping`` is exercised),
so these tests are fast.
"""

from __future__ import annotations

import asyncio
import struct

import pytest

from repro.service import protocol
from repro.service.client import ServiceClient, ServiceError
from repro.service.protocol import (
    BadJson,
    BadRequest,
    FrameTooLarge,
    TruncatedFrame,
    VersionMismatch,
)
from repro.service.server import ServiceConfig, start_in_thread


@pytest.fixture(scope="module")
def server():
    handle = start_in_thread(ServiceConfig(heartbeat_interval=0.2))
    yield handle
    handle.stop()


@pytest.fixture
def client(server):
    with ServiceClient(server.host, server.port, timeout=30.0) as c:
        yield c


# ---------------------------------------------------------------------------
# Codec


def test_frame_roundtrip():
    payload = {"id": "r1", "op": "ping", "v": 1,
               "params": {"x": [1, 2, 3], "nested": {"a": None}}}
    frame = protocol.encode_frame(payload)
    (length,) = protocol.HEADER.unpack(frame[:4])
    assert length == len(frame) - 4
    assert protocol.decode_payload(frame[4:]) == payload


def test_encode_payload_is_canonical():
    a = protocol.encode_payload({"b": 1, "a": 2})
    b = protocol.encode_payload({"a": 2, "b": 1})
    assert a == b  # key order cannot change the bytes


def test_encode_frame_refuses_oversized():
    with pytest.raises(FrameTooLarge):
        protocol.encode_frame({"blob": "x" * 128}, max_bytes=64)


def test_decode_payload_rejects_non_object():
    with pytest.raises(BadJson):
        protocol.decode_payload(b"[1, 2, 3]")
    with pytest.raises(BadJson):
        protocol.decode_payload(b"{not json")
    with pytest.raises(BadJson):
        protocol.decode_payload(b"\xff\xfe")


def _read_from_bytes(data: bytes):
    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await protocol.read_frame(reader, max_bytes=1 << 16)

    return asyncio.run(run())


def test_read_frame_clean_eof_returns_none():
    assert _read_from_bytes(b"") is None


def test_read_frame_truncated_header():
    with pytest.raises(TruncatedFrame):
        _read_from_bytes(b"\x00\x00")


def test_read_frame_truncated_body():
    frame = protocol.encode_frame({"id": 1, "op": "ping", "v": 1})
    with pytest.raises(TruncatedFrame):
        _read_from_bytes(frame[:-3])


def test_read_frame_oversized_declared_length():
    header = protocol.HEADER.pack((1 << 16) + 1)
    with pytest.raises(FrameTooLarge):
        _read_from_bytes(header)


def test_validate_request_version_mismatch():
    with pytest.raises(VersionMismatch) as err:
        protocol.validate_request({"v": 999, "id": "r9", "op": "ping"})
    assert err.value.request_id == "r9"  # correlatable client-side


@pytest.mark.parametrize("payload,fragment", [
    ({"v": 1, "op": "ping"}, "id"),
    ({"v": 1, "id": "r1", "op": "explode"}, "unknown op"),
    ({"v": 1, "id": "r1", "op": "ping", "params": [1]}, "params"),
    ({"v": 1, "id": "r1", "op": "ping", "deadline_s": -2}, "deadline_s"),
    ({"v": 1, "id": "r1", "op": "ping", "effort": 3}, "effort"),
])
def test_validate_request_bad_envelope(payload, fragment):
    with pytest.raises(BadRequest, match=fragment):
        protocol.validate_request(payload)


# ---------------------------------------------------------------------------
# Live server: structured rejection without crashing


def send_raw(client, data: bytes) -> None:
    """Ship raw bytes on the client's connection (forged frames)."""
    client.connect()
    client._sock.sendall(data)


def read_frame(client):
    """Read one raw response frame off the client's connection."""
    client.connect()
    return client._read_frame()


def _assert_still_alive(client):
    """The acid test after every rejection: the same connection still
    serves a well-formed request."""
    result = client.call("ping")
    assert result["pong"] is True


def test_malformed_json_rejected_connection_survives(client):
    body = b"{definitely not json"
    send_raw(client, protocol.HEADER.pack(len(body)) + body)
    response = read_frame(client)
    assert response["kind"] == "error"
    assert response["code"] == "bad-json"
    _assert_still_alive(client)


def test_non_object_json_rejected(client):
    body = b'"just a string"'
    send_raw(client, protocol.HEADER.pack(len(body)) + body)
    response = read_frame(client)
    assert response["kind"] == "error"
    assert response["code"] == "bad-json"
    _assert_still_alive(client)


def test_version_mismatch_rejected(client):
    frame = protocol.encode_frame(
        {"v": 99, "id": "r1", "op": "ping", "params": {}})
    send_raw(client, frame)
    response = read_frame(client)
    assert response["kind"] == "error"
    assert response["code"] == "version-mismatch"
    assert response["id"] == "r1"
    assert response["v"] == protocol.PROTOCOL_VERSION
    _assert_still_alive(client)


def test_unknown_op_rejected(client):
    frame = protocol.encode_frame(
        {"v": 1, "id": "r2", "op": "frobnicate", "params": {}})
    send_raw(client, frame)
    response = read_frame(client)
    assert response["kind"] == "error"
    assert response["code"] == "bad-request"
    assert response["id"] == "r2"
    _assert_still_alive(client)


def test_bad_params_rejected_via_client(client):
    with pytest.raises(ServiceError) as err:
        client.call("analyze", {"netlist": "iscas:c17",
                                "definitely_not_a_field": 1})
    assert err.value.code == "bad-request"
    assert "definitely_not_a_field" in err.value.message
    _assert_still_alive(client)


def test_oversized_frame_rejected_and_connection_closed(server):
    # Oversized is the one fatal protocol error: the declared body
    # cannot be safely drained, so the server answers and disconnects.
    with ServiceClient(server.host, server.port, timeout=30.0) as client:
        send_raw(client, protocol.HEADER.pack(protocol.MAX_FRAME_BYTES + 1))
        response = read_frame(client)
        assert response["kind"] == "error"
        assert response["code"] == "oversized-frame"
        with pytest.raises((TruncatedFrame, ConnectionError, OSError)):
            send_raw(client, b"\x00" * 8)
            read_frame(client)
    # ...but the *server* survives for other connections.
    with ServiceClient(server.host, server.port, timeout=30.0) as fresh:
        assert fresh.call("ping")["pong"] is True


def test_truncated_request_does_not_crash_server(server):
    # Disconnect mid-frame: nothing to answer, but the next connection
    # must work.
    with ServiceClient(server.host, server.port, timeout=30.0) as client:
        send_raw(client, struct.pack("!I", 400) + b"partial")
    with ServiceClient(server.host, server.port, timeout=30.0) as fresh:
        assert fresh.call("ping")["pong"] is True


def test_request_ids_correlate_interleaved_kinds(client):
    # A single request id ties together every frame kind it produces.
    result = client.call("stats")
    assert result["kind"] == "result"
    assert result["requests"]["total"] >= 1
