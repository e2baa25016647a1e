"""The socket wire: framing, addressing and the error taxonomy.

The client is :class:`~repro.rmi.aio.AsyncSocketTransport` and the server
is :class:`~repro.rmi.server.SocketServer`; this module holds what both
sides of the wire share.

Wire format
-----------

A client opens a connection with the 4-byte :data:`MUX_MAGIC` preamble; a
server closes any connection that opens with anything else, without
dispatching a byte of it.  After the preamble every call is one *frame* in
each direction: a 4-byte big-endian request id, a 4-byte big-endian
payload length, then that many payload bytes.  Any number of calls may be
in flight on one connection; replies carry their request's id and may come
back in any order.  Payloads are produced by the
:class:`~repro.rmi.codec.Codec`, which already enforces that only
serialisable values cross the boundary.

* request payload — ``codec.encode({"method", "args", "kwargs"})``, byte
  for byte the request the simulated transport encodes, so per-server
  ``bytes_sent`` counters are identical between the two transports,
* response payload — one status byte (``+`` success, ``-`` failure)
  followed by ``codec.encode(result)`` on success (again byte-identical
  with the simulated response payload) or
  ``codec.encode({"type", "message"})`` describing the server-side
  exception on failure.  Failed calls record zero response bytes, exactly
  like :meth:`SimulatedTransport.invoke_detailed`.

Frames larger than ``max_frame_bytes`` are rejected *before* the body is
read — an oversized (or garbage) length field must not make the peer
allocate gigabytes or stall mid-stream.

Error taxonomy
--------------

All transport-level failures are :class:`ConnectionError` subclasses, which
is precisely the class the cluster fail-over path catches:

* :class:`ServerUnavailable` — could not connect (even after the reconnect
  backoff), the per-call timeout expired, or the server died mid-call,
* :class:`WireProtocolError` — the peer spoke garbage: malformed frame,
  truncated payload, oversized message, undecodable response.

Server-side exceptions travel back *typed*: well-known builtins
(``LookupError``, ``ValueError``, …) and :class:`~repro.rmi.codec.CodecError`
are reconstructed as themselves — a cluster replica raising ``LookupError``
for an unknown ``pre`` behaves identically over the wire and in-process —
while unknown types degrade to :class:`RemoteCallError`.  A call naming a
method the server does not export raises :class:`UnknownRemoteMethodError`.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.rmi.codec import CodecError
from repro.storage.errors import DenseOrderError, StaleVersionError, WriteConflictError

#: preamble a client sends right after connecting; a server drops any
#: connection that opens with other bytes
MUX_MAGIC = b"\xffMUX"

#: frame header: request id (4 bytes BE) + payload length (4 bytes BE).
#: The payload bytes are identical to the simulated transport's, so
#: per-server byte counters match across both transports.
MUX_HEADER_BYTES = 8

#: default ceiling on a single frame's payload (requests *and* responses)
DEFAULT_MAX_FRAME_BYTES = 64 * 1024 * 1024

#: default per-call timeout (connect, send and the full response read)
DEFAULT_TIMEOUT = 30.0

#: response status bytes
STATUS_OK = b"+"
STATUS_ERROR = b"-"

#: health-check handshake method served by every socket server
PING_METHOD = "__ping__"

#: graceful-shutdown method served by every socket server
SHUTDOWN_METHOD = "__shutdown__"

#: gateway introspection method: sessions, cache, fairness and per-server
#: wire counters as one snapshot (served by the gateway, not plain servers)
STATS_METHOD = "__stats__"

#: gateway cache-invalidation method: bump the deployment epoch, dropping
#: every cached result at once (the write path's wholesale handle)
BUMP_EPOCH_METHOD = "__bump_epoch__"


class SocketTransportError(ConnectionError):
    """Base class of socket-transport failures (a :class:`ConnectionError`,
    so the cluster fail-over path treats them like any unreachable server)."""


class ServerUnavailable(SocketTransportError):
    """The server could not be reached, timed out, or died mid-call."""


class WireProtocolError(SocketTransportError):
    """The peer violated the framing protocol (malformed, truncated or
    oversized frame, undecodable payload, unknown status byte)."""


class OversizedFrameError(WireProtocolError):
    """The peer announced a frame larger than ``max_frame_bytes``.

    The offending frame's request id is known from the header, so the server can still answer *that* call typed before
    dropping the connection (the body was never read, but the stream
    position after it is unknowable once trust in the peer is gone).
    """

    def __init__(self, message: str, call_id: Optional[int] = None):
        super().__init__(message)
        self.call_id = call_id


class RemoteCallError(RuntimeError):
    """A server-side exception of a type the wire cannot reconstruct."""


class UnknownRemoteMethodError(RemoteCallError):
    """The server does not export the requested method."""


#: exception types reconstructed as themselves when they cross the wire.
#: The filter protocol's semantic errors must survive the hop typed —
#: the cluster client re-raises a ``LookupError`` (unknown ``pre``) instead
#: of failing over, exactly as it does in-process.
_WIRE_EXCEPTION_TYPES: Dict[str, type] = {
    cls.__name__: cls
    for cls in (
        ArithmeticError,
        IndexError,
        KeyError,
        LookupError,
        NotImplementedError,
        OverflowError,
        RuntimeError,
        TypeError,
        ValueError,
        ZeroDivisionError,
        CodecError,
        RemoteCallError,
        UnknownRemoteMethodError,
        WireProtocolError,
        OversizedFrameError,
        # The write protocol's semantic failures: a coordinator must see a
        # typed conflict (retry against the new epoch) or stale-version
        # signal (trigger read-repair), not an opaque RemoteCallError.
        # Structured context (stale_pres, …) stays server-side; remote
        # repair re-derives it from ``row_versions``.
        WriteConflictError,
        StaleVersionError,
        DenseOrderError,
    )
}


def encode_exception(error: BaseException) -> Dict[str, str]:
    """The serialisable description of a server-side exception."""
    return {"type": type(error).__name__, "message": str(error)}


def decode_exception(payload: Any) -> BaseException:
    """Rebuild a typed exception from :func:`encode_exception` output."""
    if not isinstance(payload, dict) or not isinstance(payload.get("type"), str):
        return WireProtocolError("malformed error payload: %r" % (payload,))
    name = payload["type"]
    message = payload.get("message", "")
    cls = _WIRE_EXCEPTION_TYPES.get(name)
    if cls is not None:
        return cls(message)
    return RemoteCallError("%s: %s" % (name, message))


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------


def pack_mux_frame(call_id: int, payload: bytes, max_frame_bytes: int) -> bytes:
    """One frame: ``id(4 BE) + length(4 BE) + payload``."""
    if len(payload) > max_frame_bytes:
        raise WireProtocolError(
            "frame of %d bytes exceeds the %d-byte limit" % (len(payload), max_frame_bytes)
        )
    if not 0 <= call_id < 1 << 32:
        raise WireProtocolError("request id %d does not fit the 4-byte header" % call_id)
    return (
        call_id.to_bytes(4, "big")
        + len(payload).to_bytes(4, "big")
        + payload
    )


async def read_mux_frame(
    reader: asyncio.StreamReader, max_frame_bytes: int
) -> Optional[Tuple[int, bytes]]:
    """Read one frame; ``None`` on clean EOF at a boundary.

    A peer closing between frames ends the session normally; closing
    mid-frame is a :class:`WireProtocolError`.  An announced body beyond
    ``max_frame_bytes`` raises :class:`OversizedFrameError` *before* any of
    it is read, carrying the request id so a server can answer that call
    typed before giving up on the stream.
    """
    try:
        header = await reader.readexactly(MUX_HEADER_BYTES)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise WireProtocolError(
            "connection closed with %d of %d frame header bytes outstanding"
            % (MUX_HEADER_BYTES - len(exc.partial), MUX_HEADER_BYTES)
        )
    call_id = int.from_bytes(header[:4], "big")
    size = int.from_bytes(header[4:], "big")
    if size > max_frame_bytes:
        raise OversizedFrameError(
            "peer announced a %d-byte frame (limit %d)" % (size, max_frame_bytes),
            call_id=call_id,
        )
    try:
        payload = await reader.readexactly(size)
    except asyncio.IncompleteReadError as exc:
        raise WireProtocolError(
            "connection closed with %d of %d frame body bytes outstanding"
            % (size - len(exc.partial), size)
        )
    return call_id, payload


# ----------------------------------------------------------------------
# Addressing
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ServerAddress:
    """Where a socket server listens: TCP ``host:port`` or a Unix path."""

    host: Optional[str] = None
    port: Optional[int] = None
    path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.path is None and (self.host is None or self.port is None):
            raise ValueError("address needs host+port or a unix socket path")

    @property
    def is_unix(self) -> bool:
        """Whether this is a Unix-domain socket address."""
        return self.path is not None

    @classmethod
    def coerce(cls, value: "AddressLike") -> "ServerAddress":
        """Accept an address, a ``(host, port)`` pair or a unix path."""
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls(path=value)
        if isinstance(value, (tuple, list)) and len(value) == 2:
            return cls(host=value[0], port=int(value[1]))
        raise TypeError("cannot interpret %r as a server address" % (value,))

    def __str__(self) -> str:
        if self.is_unix:
            return "unix:%s" % self.path
        return "%s:%d" % (self.host, self.port)


AddressLike = Any  # ServerAddress | (host, port) | unix path
