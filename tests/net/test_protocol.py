"""Wire-protocol robustness: framing, handshake, heartbeats, payloads.

The satellite contract of the cluster PR: truncated/partial frames,
version-mismatch rejection, dead-peer heartbeat timeouts and oversized
frames must all produce clear errors — never hangs, never garbage.
"""

from __future__ import annotations

import random
import socket
import struct
import threading

import numpy as np
import pytest

from repro.net.server import FramedServer

from repro.net.protocol import (
    BYE,
    CALL,
    HELLO,
    MAGIC,
    PING,
    PROTOCOL_VERSION,
    REPLY,
    Connection,
    ConnectionClosed,
    FrameTooLarge,
    HandshakeError,
    PeerTimeout,
    ProtocolError,
    connect,
    decode_payload,
    encode_payload,
    parse_address,
    recv_frame,
    send_frame,
)


@pytest.fixture(autouse=True)
def close_socketpairs(monkeypatch):
    """Every socketpair end a test opens is closed when the test ends."""
    opened = []
    real = socket.socketpair

    def tracked(*args, **kwargs):
        ends = real(*args, **kwargs)
        opened.extend(ends)
        return ends

    monkeypatch.setattr(socket, "socketpair", tracked)
    yield
    for sock in opened:
        sock.close()


def pair(timeout=5.0, max_frame=None):
    a, b = socket.socketpair()
    kwargs = {"timeout": timeout}
    if max_frame is not None:
        kwargs["max_frame_bytes"] = max_frame
    return Connection(a, **kwargs), Connection(b, **kwargs)


# ----------------------------------------------------------------------
# Payload encoding
# ----------------------------------------------------------------------


class TestPayload:
    def test_json_roundtrip(self):
        obj = {"a": 1, "b": [1.5, "x", None, True], "c": {"d": 2**80}}
        assert decode_payload(encode_payload(obj)) == obj

    def test_array_roundtrip_exact(self):
        obj = {
            "f64": np.linspace(0, 1, 7),
            "f32": np.ones((2, 3), dtype=np.float32),
            "i64": np.arange(5),
            "bool": np.array([True, False]),
            "nested": [{"x": np.zeros(2)}],
        }
        out = decode_payload(encode_payload(obj))
        for key in ("f64", "f32", "i64", "bool"):
            assert out[key].dtype == obj[key].dtype
            assert (out[key] == obj[key]).all()
        assert (out["nested"][0]["x"] == obj["nested"][0]["x"]).all()

    def test_empty_payload_rejected(self):
        with pytest.raises(ProtocolError, match="empty payload"):
            decode_payload(b"")

    def test_unknown_encoding_rejected(self):
        with pytest.raises(ProtocolError, match="unknown payload encoding"):
            decode_payload(bytes([99]) + b"{}")

    def test_truncated_split_payload_rejected(self):
        full = encode_payload({"arr": np.arange(10)})
        with pytest.raises(ProtocolError):
            decode_payload(full[: len(full) // 2])


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------


class TestFraming:
    def test_roundtrip(self):
        a, b = socket.socketpair()
        send_frame(a, CALL, b"hello")
        ftype, payload = recv_frame(b)
        assert (ftype, payload) == (CALL, b"hello")

    def test_truncated_header_is_protocol_error(self):
        a, b = socket.socketpair()
        a.sendall(MAGIC + bytes([PROTOCOL_VERSION]))  # 3 of 8 header bytes
        a.close()
        with pytest.raises(ProtocolError, match="truncated frame"):
            recv_frame(b)

    def test_truncated_payload_is_protocol_error(self):
        a, b = socket.socketpair()
        header = struct.pack("!2sBBI", MAGIC, PROTOCOL_VERSION, CALL, 100)
        a.sendall(header + b"only-part")
        a.close()
        with pytest.raises(ProtocolError, match="truncated frame"):
            recv_frame(b)

    def test_clean_close_is_connection_closed(self):
        a, b = socket.socketpair()
        a.close()
        with pytest.raises(ConnectionClosed):
            recv_frame(b)

    def test_bad_magic_rejected(self):
        a, b = socket.socketpair()
        a.sendall(struct.pack("!2sBBI", b"ZZ", PROTOCOL_VERSION, CALL, 0))
        with pytest.raises(ProtocolError, match="bad frame magic"):
            recv_frame(b)

    def test_version_skew_rejected(self):
        a, b = socket.socketpair()
        a.sendall(struct.pack("!2sBBI", MAGIC, PROTOCOL_VERSION + 1, CALL, 0))
        with pytest.raises(ProtocolError, match="protocol version"):
            recv_frame(b)

    def test_oversized_announcement_rejected_without_reading(self):
        a, b = socket.socketpair()
        a.sendall(struct.pack("!2sBBI", MAGIC, PROTOCOL_VERSION, CALL, 1 << 30))
        with pytest.raises(FrameTooLarge, match="announced"):
            recv_frame(b, max_frame_bytes=1024)

    def test_oversized_send_refused(self):
        a, _b = socket.socketpair()
        with pytest.raises(FrameTooLarge, match="refusing to send"):
            send_frame(a, CALL, b"x" * 2048, max_frame_bytes=1024)


# ----------------------------------------------------------------------
# Heartbeats / dead peers
# ----------------------------------------------------------------------


class TestHeartbeat:
    def test_silent_peer_times_out(self):
        _quiet, listener = pair(timeout=0.2)
        with pytest.raises(PeerTimeout, match="silent"):
            listener.recv()

    def test_ping_pong(self):
        a, b = pair()

        def answer():
            ftype, _ = b.recv()
            assert ftype == PING
            b.send(5)  # PONG

        t = threading.Thread(target=answer)
        t.start()
        a.ping()
        t.join()

    def test_call_skips_interleaved_pong(self):
        a, b = pair()

        def answer():
            ftype, body = b.recv()
            assert ftype == CALL
            b.send(5)  # stale PONG from an earlier PING
            b.send(REPLY, {"ok": True})

        t = threading.Thread(target=answer)
        t.start()
        assert a.call("m")["ok"] is True
        t.join()


# ----------------------------------------------------------------------
# Handshake
# ----------------------------------------------------------------------


class TestHandshake:
    def test_hello_welcome(self):
        a, b = pair()
        t = threading.Thread(target=lambda: b.welcome(("actor",), body={"extra": 1}))
        t.start()
        welcome = a.hello("actor")
        t.join()
        assert welcome["version"] == PROTOCOL_VERSION
        assert welcome["extra"] == 1

    def test_version_mismatch_rejected_with_reason(self):
        a, b = pair()
        errors = []

        def listen():
            try:
                b.welcome(("actor",))
            except HandshakeError as exc:
                errors.append(exc)

        t = threading.Thread(target=listen)
        t.start()
        # A HELLO whose in-band version is stale (frame header is current).
        a.send(HELLO, {"version": PROTOCOL_VERSION + 9, "role": "actor"})
        ftype, body = a.recv()
        t.join()
        assert ftype == 3  # ERROR
        assert "version" in body["error"]
        assert errors and "version" in str(errors[0])

    def test_v1_peer_is_rejected_with_its_version_in_the_message(self):
        """The bump is what retires the pre-long-poll / graph-JSON shims:
        a v1 HELLO (v1 frame header, v1 in-band) never reaches a service."""
        assert PROTOCOL_VERSION == 2
        raw, b = socket.socketpair()
        listener = Connection(b)
        errors = []

        def listen():
            try:
                listener.welcome(("actor",))
            except HandshakeError as exc:
                errors.append(exc)

        t = threading.Thread(target=listen)
        t.start()
        payload = encode_payload({"version": 1, "role": "actor"})
        raw.sendall(struct.pack("!2sBBI", MAGIC, 1, HELLO, len(payload)) + payload)
        # The rejection comes back framed at the server's version, so a
        # v2-aware reader gets the reason; the old peer sees a skewed header.
        ftype, reason = recv_frame(raw)
        t.join()
        assert ftype == 3  # ERROR
        assert "version 1" in decode_payload(reason)["error"]
        assert errors and "version 1" in str(errors[0])
        raw.close()
        listener.close()

    def test_unexpected_role_rejected(self):
        a, b = pair()
        errors = []

        def listen():
            try:
                b.welcome(("actor",))
            except HandshakeError as exc:
                errors.append(exc)

        t = threading.Thread(target=listen)
        t.start()
        with pytest.raises(HandshakeError, match="rejected"):
            a.hello("impostor")
        t.join()
        assert errors and "role" in str(errors[0])

    def test_non_hello_first_frame_rejected(self):
        a, b = pair()

        def listen():
            with pytest.raises(HandshakeError):
                b.welcome()

        t = threading.Thread(target=listen)
        t.start()
        a.send(BYE)
        ftype, _body = a.recv()
        assert ftype == 3  # ERROR
        t.join()


# ----------------------------------------------------------------------
# Fuzz: a live server must shrug off hostile/broken clients
# ----------------------------------------------------------------------


class _EchoServer(FramedServer):
    roles = ("fuzz",)

    def __init__(self):
        super().__init__(("127.0.0.1", 0), heartbeat_timeout=2.0)
        self.methods = {"echo": lambda ctx, params: {"echo": params}}


class TestServerFuzz:
    """Garbage bytes, mid-frame disconnects and protocol abuse against a
    live server: every case must end in a clean per-connection teardown —
    the listener keeps serving well-behaved clients, and nothing hangs."""

    @pytest.fixture()
    def server(self):
        srv = _EchoServer()
        srv.start()
        yield srv
        srv.stop()

    @staticmethod
    def dial_raw(server) -> socket.socket:
        sock = socket.create_connection(server.address, timeout=5.0)
        sock.settimeout(5.0)
        return sock

    @staticmethod
    def assert_serving(server) -> None:
        conn, _welcome = connect(server.address, role="fuzz")
        try:
            assert conn.call("echo", {"n": 1}) == {"echo": {"n": 1}}
        finally:
            conn.close(bye=True)

    @staticmethod
    def drain(sock: socket.socket) -> None:
        try:
            while sock.recv(4096):
                pass
        except OSError:
            pass
        sock.close()

    def test_garbage_bytes_get_clean_teardown(self, server):
        rng = random.Random(0)
        for _ in range(8):
            sock = self.dial_raw(server)
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 512)))
            sock.sendall(blob)
            # Half-close so a short blob reads as EOF, not a slow timeout.
            # The server may already have reset the link (bad magic).
            try:
                sock.shutdown(socket.SHUT_WR)
            except OSError:
                pass
            self.drain(sock)
        self.assert_serving(server)

    def test_oversized_announcement_from_client_is_dropped(self, server):
        sock = self.dial_raw(server)
        sock.sendall(struct.pack("!2sBBI", MAGIC, PROTOCOL_VERSION, HELLO, 1 << 30))
        self.drain(sock)  # server refuses without reading the body
        self.assert_serving(server)

    def test_mid_frame_disconnects_do_not_wedge_the_server(self, server):
        header = struct.pack("!2sBBI", MAGIC, PROTOCOL_VERSION, HELLO, 64)
        for cut in (1, 4, 7):  # vanish mid-header
            sock = self.dial_raw(server)
            sock.sendall(header[:cut])
            sock.close()
        sock = self.dial_raw(server)
        sock.sendall(header + b"\x01{")  # vanish mid-payload (2 of 64 bytes)
        sock.close()
        self.assert_serving(server)

    def test_repeated_hello_on_live_connection_is_rejected(self, server):
        conn, _welcome = connect(server.address, role="fuzz")
        try:
            assert conn.call("echo", 1) == {"echo": 1}
            conn.send(HELLO, {"version": PROTOCOL_VERSION, "role": "fuzz"})
            ftype, body = conn.recv()
            assert ftype == 3  # ERROR
            assert "unexpected HELLO frame" in body["error"]
            with pytest.raises(ConnectionClosed):
                conn.recv()  # the abused connection is torn down...
        finally:
            conn.close()
        self.assert_serving(server)  # ...but only that connection


class TestAddresses:
    def test_parse_host_port(self):
        assert parse_address("10.0.0.1:9000") == ("10.0.0.1", 9000)

    def test_parse_bare_port_defaults_host(self):
        assert parse_address(":9000") == ("127.0.0.1", 9000)

    def test_parse_bare_host(self):
        assert parse_address("somehost", default_port=7) == ("somehost", 7)

    def test_parse_junk_rejected(self):
        with pytest.raises(ValueError, match="bad address"):
            parse_address("host:notaport")
