"""The cluster wire protocol: versioned length-prefixed frames (stdlib only).

Every byte that crosses a process or host boundary in the cluster runtime
(Section V-C's distributed actors and synthesis farm) goes through this
module. The design goals, in order: *fail loudly* (a truncated stream, a
version skew or an oversized payload is a clear :class:`ProtocolError`,
never a hang or a garbage deserialization), *carry numpy exactly*
(transition batches and weight publications round-trip byte-for-byte via
the checkpoint module's JSON/array split), and *stay stdlib*
(``socket`` + ``struct``; no external wire formats).

Frame layout (network byte order)::

    magic   2s   b"PX"
    version B    PROTOCOL_VERSION (bumped on any incompatible change)
    type    B    frame type (HELLO/WELCOME/ERROR/PING/PONG/CALL/REPLY/BYE)
    length  I    payload byte count (bounded by max_frame_bytes)
    payload length bytes

Payload encoding (:func:`encode_payload` / :func:`decode_payload`): a flag
byte selects plain JSON (``0``) or the JSON+npz split (``1``) used when the
structure contains numpy arrays — the same
:func:`repro.rl.checkpoint.flatten_arrays` scheme checkpoints use, so
anything checkpointable is also shippable.

Connection life cycle: the dialing side sends HELLO carrying its protocol
version and role; the listening side answers WELCOME (or ERROR and closes —
a version mismatch is rejected before any service traffic). After the
handshake, traffic is CALL/REPLY pairs (method name + payload) plus
PING/PONG heartbeats; either side closes with BYE. Silence beyond the
heartbeat timeout marks the peer dead and the connection is torn down.
"""

from __future__ import annotations

import json
import socket
import struct
import zipfile
from io import BytesIO

import numpy as np

from repro.obs import trace as obs_trace
from repro.rl.checkpoint import flatten_arrays, unflatten_arrays

MAGIC = b"PX"
# 2: waiting cache_claims always park server-side (no capability marker),
# actors rely on push_obs. A farm task is {"graph": graph JSON}; a farm
# worker answers any other task with an ERROR reply.
PROTOCOL_VERSION = 2

# Frame types.
HELLO = 1
WELCOME = 2
ERROR = 3
PING = 4
PONG = 5
CALL = 6
REPLY = 7
BYE = 8

FRAME_NAMES = {
    HELLO: "HELLO",
    WELCOME: "WELCOME",
    ERROR: "ERROR",
    PING: "PING",
    PONG: "PONG",
    CALL: "CALL",
    REPLY: "REPLY",
    BYE: "BYE",
}

_HEADER = struct.Struct("!2sBBI")
HEADER_BYTES = _HEADER.size

# Generous default: a paper-scale weight publication or a few hundred
# transitions fit comfortably; anything larger is a protocol bug.
DEFAULT_MAX_FRAME_BYTES = 64 * 1024 * 1024

# Heartbeat cadence: a peer silent for longer than the timeout is dead.
DEFAULT_HEARTBEAT_INTERVAL = 5.0
DEFAULT_HEARTBEAT_TIMEOUT = 3 * DEFAULT_HEARTBEAT_INTERVAL

_PAYLOAD_JSON = 0
_PAYLOAD_SPLIT = 1


class ProtocolError(RuntimeError):
    """The byte stream violated the framing or message contract."""


class FrameTooLarge(ProtocolError):
    """A frame announced (or would require) a length beyond the limit."""


class HandshakeError(ProtocolError):
    """The HELLO/WELCOME exchange failed (e.g. a protocol version skew)."""


class ConnectionClosed(ProtocolError):
    """The peer closed the connection (cleanly or mid-frame)."""


class PeerTimeout(ProtocolError):
    """The peer went silent beyond the heartbeat timeout."""


class RemoteError(RuntimeError):
    """The peer answered a call with an application-level error."""


# ----------------------------------------------------------------------
# Payload encoding
# ----------------------------------------------------------------------


def encode_payload(obj) -> bytes:
    """Serialize a nested scalar/list/dict/ndarray structure to bytes.

    Pure-JSON structures pay one flag byte of overhead; structures holding
    numpy arrays use the checkpoint JSON/array split with the arrays in an
    uncompressed in-memory ``.npz`` (wire transfers favour latency over
    the disk format's compression).
    """
    arrays: "dict[str, np.ndarray]" = {}
    payload = flatten_arrays(obj, arrays)
    text = json.dumps(payload, sort_keys=True).encode()
    if not arrays:
        return bytes([_PAYLOAD_JSON]) + text
    buf = BytesIO()
    np.savez(buf, **arrays)
    return bytes([_PAYLOAD_SPLIT]) + struct.pack("!I", len(text)) + text + buf.getvalue()


def decode_payload(data: bytes):
    """Inverse of :func:`encode_payload`."""
    if not data:
        raise ProtocolError("empty payload")
    kind = data[0]
    if kind == _PAYLOAD_JSON:
        try:
            return json.loads(data[1:])
        except (ValueError, UnicodeDecodeError) as exc:
            raise ProtocolError(f"undecodable JSON payload: {exc}") from exc
    if kind != _PAYLOAD_SPLIT:
        raise ProtocolError(f"unknown payload encoding {kind}")
    if len(data) < 5:
        raise ProtocolError("truncated split payload header")
    (text_len,) = struct.unpack_from("!I", data, 1)
    text = data[5 : 5 + text_len]
    if len(text) != text_len:
        raise ProtocolError("truncated split payload body")
    try:
        payload = json.loads(text)
        with np.load(BytesIO(data[5 + text_len :])) as npz:
            arrays = {k: npz[k] for k in npz.files}
    except (ValueError, UnicodeDecodeError, zipfile.BadZipFile, KeyError) as exc:
        raise ProtocolError(f"undecodable split payload: {exc}") from exc
    return unflatten_arrays(payload, arrays)


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------


def _recv_exactly(sock: socket.socket, count: int) -> bytes:
    """Read exactly ``count`` bytes or raise.

    EOF before the first byte is a clean :class:`ConnectionClosed`; EOF
    mid-read means the peer died inside a frame — a truncated frame. A
    socket timeout surfaces as :class:`PeerTimeout`.
    """
    chunks = []
    got = 0
    while got < count:
        try:
            chunk = sock.recv(min(count - got, 1 << 20))
        except socket.timeout as exc:
            raise PeerTimeout(
                f"peer silent beyond the heartbeat timeout ({got}/{count} bytes read)"
            ) from exc
        except OSError as exc:
            raise ConnectionClosed(f"connection lost: {exc}") from exc
        if not chunk:
            if got == 0:
                raise ConnectionClosed("peer closed the connection")
            raise ProtocolError(
                f"truncated frame: peer closed after {got} of {count} bytes"
            )
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def send_frame(
    sock: socket.socket,
    ftype: int,
    payload: bytes = b"",
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
) -> None:
    """Write one frame (header + payload) to the socket."""
    if len(payload) > max_frame_bytes:
        raise FrameTooLarge(
            f"refusing to send a {len(payload)}-byte {FRAME_NAMES.get(ftype, ftype)} "
            f"frame (limit {max_frame_bytes})"
        )
    header = _HEADER.pack(MAGIC, PROTOCOL_VERSION, ftype, len(payload))
    try:
        sock.sendall(header + payload)
    except OSError as exc:
        raise ConnectionClosed(f"connection lost while sending: {exc}") from exc


def recv_frame(
    sock: socket.socket,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
) -> "tuple[int, bytes]":
    """Read one frame; returns ``(type, payload)``.

    Raises :class:`ProtocolError` subclasses on bad magic, an unknown
    protocol version, an oversized announced length, truncation, timeout
    or close — the caller never sees a partial frame.
    """
    header = _recv_exactly(sock, HEADER_BYTES)
    magic, version, ftype, length = _HEADER.unpack(header)
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r} (not a cluster peer?)")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"peer speaks protocol version {version}, this build speaks "
            f"{PROTOCOL_VERSION}"
        )
    if length > max_frame_bytes:
        raise FrameTooLarge(
            f"peer announced a {length}-byte frame (limit {max_frame_bytes})"
        )
    payload = _recv_exactly(sock, length) if length else b""
    return ftype, payload


# ----------------------------------------------------------------------
# Connection
# ----------------------------------------------------------------------


class Connection:
    """One framed, heartbeat-guarded duplex channel over a socket.

    Used symmetrically by clients (actors, farm dispatchers) and server
    handlers. All methods raise :class:`ProtocolError` subclasses on wire
    trouble; :meth:`call` additionally raises :class:`RemoteError` when
    the peer reports an application failure.
    """

    def __init__(
        self,
        sock: socket.socket,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
    ):
        self.sock = sock
        self.max_frame_bytes = max_frame_bytes
        self.timeout = timeout
        sock.settimeout(timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # not a TCP socket (tests use socketpairs)

    # -- plumbing --------------------------------------------------------

    def send(self, ftype: int, obj=None) -> None:
        payload = encode_payload(obj) if obj is not None else b""
        send_frame(self.sock, ftype, payload, self.max_frame_bytes)

    def recv(self) -> "tuple[int, object]":
        ftype, payload = recv_frame(self.sock, self.max_frame_bytes)
        return ftype, decode_payload(payload) if payload else None

    def close(self, *, bye: bool = False) -> None:
        if bye:
            try:
                self.send(BYE)
            except ProtocolError:
                pass
        try:
            self.sock.close()
        except OSError:
            pass

    # -- handshake -------------------------------------------------------

    def hello(self, role: str, meta: "dict | None" = None) -> dict:
        """Dial-side handshake; returns the WELCOME body.

        The protocol version rides in every frame header, so a skewed
        peer is rejected by :func:`recv_frame` itself; HELLO additionally
        carries the version in-band for the listener's error message.
        """
        self.send(HELLO, {"version": PROTOCOL_VERSION, "role": role, **(meta or {})})
        ftype, body = self.recv()
        if ftype == ERROR:
            raise HandshakeError(f"peer rejected the handshake: {body.get('error')}")
        if ftype != WELCOME:
            raise HandshakeError(
                f"expected WELCOME, got {FRAME_NAMES.get(ftype, ftype)}"
            )
        return body

    def welcome(
        self,
        expected_roles: "tuple[str, ...]" = (),
        body: "dict | None" = None,
    ) -> dict:
        """Listen-side handshake; answers WELCOME and returns the HELLO
        body, or rejects.

        Rejection (version skew, unexpected role) sends an ERROR frame so
        the dialer gets a reason, then raises :class:`HandshakeError`.
        """
        try:
            ftype, hello = self.recv()
        except ProtocolError as exc:
            # recv_frame already rejected a bad header (e.g. version skew);
            # tell the peer why before giving up on the connection.
            self._reject(str(exc))
            raise HandshakeError(str(exc)) from exc
        if ftype != HELLO:
            self._reject(f"expected HELLO, got {FRAME_NAMES.get(ftype, ftype)}")
            raise HandshakeError(f"expected HELLO, got {FRAME_NAMES.get(ftype, ftype)}")
        version = hello.get("version") if isinstance(hello, dict) else None
        if version != PROTOCOL_VERSION:
            self._reject(
                f"protocol version {version} not supported (need {PROTOCOL_VERSION})"
            )
            raise HandshakeError(f"peer HELLO carries version {version}")
        role = hello.get("role")
        if expected_roles and role not in expected_roles:
            self._reject(f"role {role!r} not served here")
            raise HandshakeError(f"unexpected peer role {role!r}")
        self.send(WELCOME, {"version": PROTOCOL_VERSION, **(body or {})})
        return hello

    def _reject(self, reason: str) -> None:
        try:
            self.send(ERROR, {"error": reason})
        except ProtocolError:
            pass

    # -- request/response ------------------------------------------------

    def call(self, method: str, params=None):
        """One CALL/REPLY round trip; returns the reply result.

        Interleaved PONGs (a peer answering an earlier PING) are skipped;
        an ERROR reply raises :class:`RemoteError` with the peer's message.

        When an obs trace is installed (:mod:`repro.obs.trace`) the CALL
        body carries it as a ``trace`` sibling of ``method``/``params``
        — a payload field, not a frame-header change.
        """
        body = {"method": method, "params": params}
        trace = obs_trace.wire_context()
        if trace is not None:
            body["trace"] = trace
        self.send(CALL, body)
        while True:
            ftype, body = self.recv()
            if ftype == PONG:
                continue
            if ftype == REPLY:
                return body
            if ftype == ERROR:
                raise RemoteError(
                    f"{method} failed remotely: "
                    f"{body.get('error') if isinstance(body, dict) else body}"
                )
            if ftype == BYE:
                raise ConnectionClosed(f"peer said BYE while {method} was pending")
            raise ProtocolError(
                f"unexpected {FRAME_NAMES.get(ftype, ftype)} frame in reply to {method}"
            )

    def ping(self) -> None:
        """One PING/PONG round trip (the idle-connection keepalive)."""
        self.send(PING)
        ftype, _ = self.recv()
        if ftype != PONG:
            raise ProtocolError(f"expected PONG, got {FRAME_NAMES.get(ftype, ftype)}")


def connect(
    address: "tuple[str, int]",
    role: str,
    meta: "dict | None" = None,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
    connect_timeout: float = 30.0,
) -> "tuple[Connection, dict]":
    """Dial, handshake and return ``(connection, welcome_body)``."""
    try:
        sock = socket.create_connection(address, timeout=connect_timeout)
    except OSError as exc:
        raise ConnectionClosed(f"cannot reach {address[0]}:{address[1]}: {exc}") from exc
    conn = Connection(sock, max_frame_bytes=max_frame_bytes, timeout=timeout)
    try:
        welcome = conn.hello(role, meta)
    except ProtocolError:
        conn.close()
        raise
    return conn, welcome


def parse_address(spec: str, default_port: int = 0) -> "tuple[str, int]":
    """``"host:port"`` (or bare ``"host"``) to a connectable tuple."""
    host, sep, port = spec.rpartition(":")
    if not sep:
        return spec, default_port
    try:
        return host or "127.0.0.1", int(port)
    except ValueError as exc:
        raise ValueError(f"bad address {spec!r} (want host:port)") from exc
