"""The socket wire and server: framing, dispatch, error paths.

Everything here runs in-process (the server accepts on a background
thread), so the wire-level behaviour — byte parity with the simulated
transport, typed error mapping, malformed/truncated/oversized frames,
mid-call connection loss, connections that never send the preamble — is
exercised without subprocess overhead.  The client is the
:class:`~repro.rmi.aio.AsyncSocketTransport`, driven from synchronous
test code through a :class:`~repro.rmi.aio.LoopThread`.  Pipelining and
id routing are covered by ``tests/test_rmi_aio.py``; the subprocess fleet
(``ServerProcess`` / ``SocketCluster``) by ``tests/test_socket_cluster.py``.
"""

from __future__ import annotations

import os
import socket as socket_module
import threading
import time

import pytest

from repro.rmi.aio import AsyncSocketTransport, LoopThread
from repro.rmi.codec import Codec, CodecError
from repro.rmi.server import PROTOCOL_VERSION, SocketServer
from repro.rmi.socket import (
    MUX_HEADER_BYTES,
    MUX_MAGIC,
    PING_METHOD,
    SHUTDOWN_METHOD,
    STATUS_ERROR,
    STATUS_OK,
    RemoteCallError,
    ServerAddress,
    ServerUnavailable,
    UnknownRemoteMethodError,
    WireProtocolError,
    decode_exception,
    encode_exception,
    pack_mux_frame,
)
from repro.rmi.transport import SimulatedTransport


class Arithmetic:
    """A tiny target object covering the dispatch cases."""

    def __init__(self):
        self.calls = 0

    def add(self, a, b):
        self.calls += 1
        return a + b

    def echo(self, value=None):
        return value

    def lookup_fail(self):
        raise LookupError("no node with pre=99")

    def value_fail(self):
        raise ValueError("bad point 0")

    def custom_fail(self):
        class Unrepresentable(Exception):
            pass

        raise Unrepresentable("locally defined")

    def unencodable(self):
        return object()

    def big_list(self, count):
        return list(range(count))

    def _private(self):  # pragma: no cover - must never run remotely
        raise AssertionError("private method executed over the wire")


@pytest.fixture()
def server():
    with SocketServer(Arithmetic(), name="test-server") as srv:
        yield srv


@pytest.fixture()
def loop():
    thread = LoopThread("socket-test")
    yield thread
    thread.close()


class Client:
    """Sync calls on one transport, submitted to the test's loop thread."""

    def __init__(self, loop, address, **transport_kwargs):
        self.loop = loop
        self.transport = AsyncSocketTransport(address, **transport_kwargs)
        self.stats = self.transport.stats

    def invoke_detailed(self, method, args=(), kwargs=None):
        return self.loop.run(self.transport.ainvoke_detailed(None, method, args, kwargs))

    def invoke(self, method, args=(), kwargs=None):
        return self.loop.run(self.transport.ainvoke(None, method, args, kwargs))

    def close(self):
        self.loop.run(self.transport.aclose())


@pytest.fixture()
def client(loop, server):
    c = Client(loop, server.address, timeout=5.0)
    yield c
    c.close()


# ----------------------------------------------------------------------
# Round trips and parity with the simulated transport
# ----------------------------------------------------------------------


def test_roundtrip_values(client):
    assert client.invoke("add", (2, 3)) == 5
    payload = {"xs": [1, 2, 3], "label": "n", "flag": True, "none": None}
    assert client.invoke("echo", (), {"value": payload}) == payload


def test_ping_handshake(client):
    identity = client.invoke(PING_METHOD)
    assert identity["server"] == "test-server"
    assert identity["protocol"] == PROTOCOL_VERSION
    assert identity["target"] == "Arithmetic"
    assert isinstance(identity["pid"], int)


def test_byte_counters_match_simulated_transport(client):
    """The wire ships exactly the payloads the simulated transport models,
    so per-call byte accounting is identical between the two."""
    simulated = SimulatedTransport()
    for method, args in [("add", (17, 25)), ("echo", ([1, 2, 3],)), ("big_list", (50,))]:
        sim = simulated.invoke_detailed(Arithmetic(), method, args)
        sock = client.invoke_detailed(method, args)
        assert sock.ok and sim.ok
        assert sock.value == sim.value
        assert sock.request_bytes == sim.request_bytes
        assert sock.response_bytes == sim.response_bytes
    assert client.stats.bytes_sent == simulated.stats.bytes_sent
    assert client.stats.bytes_received == simulated.stats.bytes_received


def test_measured_latency_is_recorded(client):
    outcome = client.invoke_detailed("add", (1, 1))
    assert outcome.latency > 0.0
    assert client.stats.simulated_latency > 0.0


# ----------------------------------------------------------------------
# Typed server-side errors
# ----------------------------------------------------------------------


def test_semantic_errors_cross_the_wire_typed(client):
    with pytest.raises(LookupError, match="no node with pre=99"):
        client.invoke("lookup_fail")
    with pytest.raises(ValueError, match="bad point 0"):
        client.invoke("value_fail")
    assert client.stats.errors == 2
    assert client.stats.errors_by_method == {"lookup_fail": 1, "value_fail": 1}


def test_unknown_exception_type_degrades_to_remote_call_error(client):
    with pytest.raises(RemoteCallError, match="Unrepresentable: locally defined"):
        client.invoke("custom_fail")


def test_unknown_method_is_typed(client):
    with pytest.raises(UnknownRemoteMethodError, match="no method 'nope'"):
        client.invoke("nope")
    assert client.stats.errors == 1


def test_private_methods_are_not_exported(client):
    with pytest.raises(UnknownRemoteMethodError, match="not exported"):
        client.invoke("_private")


def test_unencodable_response_surfaces_as_codec_error(client):
    with pytest.raises(CodecError):
        client.invoke("unencodable")
    assert client.stats.errors == 1


def test_request_encoding_failure_raises_directly(client):
    """A caller-side bug raises before anything is sent or recorded —
    exactly the simulated transport's contract."""
    with pytest.raises(CodecError):
        client.invoke("echo", (object(),))
    assert client.stats.calls == 0


def test_error_codec_roundtrip():
    for error in [LookupError("x"), ValueError("y"), WireProtocolError("z")]:
        rebuilt = decode_exception(encode_exception(error))
        assert type(rebuilt) is type(error)
        assert str(rebuilt) == str(error)
    assert isinstance(decode_exception({"type": "Weird", "message": "m"}), RemoteCallError)
    assert isinstance(decode_exception("garbage"), WireProtocolError)


def test_failed_calls_record_zero_response_bytes(client):
    outcome = client.invoke_detailed("lookup_fail")
    assert not outcome.ok
    assert outcome.response_bytes == 0
    sim = SimulatedTransport()
    sim_outcome = sim.invoke_detailed(Arithmetic(), "lookup_fail")
    assert outcome.request_bytes == sim_outcome.request_bytes
    assert outcome.response_bytes == sim_outcome.response_bytes


# ----------------------------------------------------------------------
# Wire-level error paths: malformed, truncated, oversized, death — no hangs
# ----------------------------------------------------------------------


class RogueServer:
    """A raw socket peer scripted to misbehave for exactly one connection
    (after reading the client's preamble)."""

    def __init__(self, script):
        self._script = script
        self._listener = socket_module.socket(socket_module.AF_INET, socket_module.SOCK_STREAM)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(1)
        self.address = ServerAddress(host="127.0.0.1", port=self._listener.getsockname()[1])
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        try:
            conn, _ = self._listener.accept()
        except OSError:  # pragma: no cover - teardown race
            return
        try:
            assert _recv_exactly(conn, len(MUX_MAGIC)) == MUX_MAGIC
            self._script(conn)
        except OSError:  # pragma: no cover - client gone
            pass
        finally:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass

    def close(self):
        self._listener.close()
        self._thread.join(timeout=5.0)


def _recv_exactly(conn, count):
    data = b""
    while len(data) < count:
        chunk = conn.recv(count - len(data))
        if not chunk:
            break
        data += chunk
    return data


def _read_request(conn):
    """One request frame: its call id (the payload is drained)."""
    header = _recv_exactly(conn, MUX_HEADER_BYTES)
    _recv_exactly(conn, int.from_bytes(header[4:], "big"))
    return int.from_bytes(header[:4], "big")


def _rogue_call(loop, script, **transport_kwargs):
    rogue = RogueServer(script)
    client = Client(loop, rogue.address, timeout=2.0, connect_retries=1, **transport_kwargs)
    try:
        outcome = client.invoke_detailed("add", (1, 2))
    finally:
        client.close()
        rogue.close()
    assert client.stats.calls == 1 and client.stats.errors == 1
    return outcome


def test_malformed_response_frame_is_typed(loop):
    """Garbage status byte → WireProtocolError, recorded, no hang."""

    def script(conn):
        call_id = _read_request(conn)
        conn.sendall(pack_mux_frame(call_id, b"?" + b"junk", 1 << 20))

    outcome = _rogue_call(loop, script)
    assert isinstance(outcome.error, WireProtocolError)
    assert "status byte" in str(outcome.error)


def test_undecodable_response_payload_is_typed(loop):
    def script(conn):
        call_id = _read_request(conn)
        conn.sendall(pack_mux_frame(call_id, STATUS_OK + b"\xff\xff\xff", 1 << 20))

    outcome = _rogue_call(loop, script)
    assert isinstance(outcome.error, WireProtocolError)
    assert "undecodable" in str(outcome.error)


def test_truncated_response_frame_is_typed(loop):
    """A frame announcing more bytes than ever arrive → typed, no hang."""

    def script(conn):
        call_id = _read_request(conn)
        conn.sendall(call_id.to_bytes(4, "big") + (100).to_bytes(4, "big") + b"only-ten-b")

    outcome = _rogue_call(loop, script)
    assert isinstance(outcome.error, WireProtocolError)
    assert "outstanding" in str(outcome.error)


def test_oversized_response_frame_is_rejected_before_reading(loop):
    """A length field beyond max_frame_bytes is refused up front."""

    def script(conn):
        call_id = _read_request(conn)
        conn.sendall(call_id.to_bytes(4, "big") + (1 << 30).to_bytes(4, "big"))

    outcome = _rogue_call(loop, script, max_frame_bytes=4096)
    assert isinstance(outcome.error, WireProtocolError)
    assert "announced" in str(outcome.error)


def test_oversized_request_is_rejected_by_the_server(loop):
    """The server answers a too-large request with a typed error frame."""
    with SocketServer(Arithmetic(), max_frame_bytes=64) as small_server:
        client = Client(loop, small_server.address, timeout=2.0)
        try:
            with pytest.raises(WireProtocolError):
                client.invoke("echo", (list(range(200)),))
            # the server dropped that connection; the next call redials
            assert client.invoke("add", (1, 2)) == 3
            assert client.stats.errors == 1
        finally:
            client.close()


def test_oversized_response_answered_typed_and_connection_survives(loop):
    """A result too large for the server's frame limit comes back as a
    typed WireProtocolError — and the connection stays usable, since the
    size check precedes any write."""
    with SocketServer(Arithmetic(), max_frame_bytes=256) as small_server:
        client = Client(loop, small_server.address, timeout=2.0)
        try:
            with pytest.raises(WireProtocolError, match="exceeds"):
                client.invoke("big_list", (2000,))
            writer = client.transport._writer
            assert client.invoke("add", (1, 2)) == 3
            assert client.transport._writer is writer  # same connection
            assert client.stats.errors == 1
        finally:
            client.close()


def test_oversized_request_refused_client_side(loop):
    """The client refuses to even send a frame above its own limit — before
    dialing, so an unreachable peer still reports the protocol violation."""
    client = Client(loop, ("127.0.0.1", 1), max_frame_bytes=16, connect_retries=1)
    with pytest.raises(WireProtocolError):
        client.invoke("echo", (list(range(200)),))


def test_transport_validates_its_inputs():
    with pytest.raises(ValueError, match="timeout"):
        AsyncSocketTransport(("127.0.0.1", 1), timeout=0)
    with pytest.raises(ValueError, match="connect_retries"):
        AsyncSocketTransport(("127.0.0.1", 1), connect_retries=0)
    with pytest.raises(ValueError, match="max_frame_bytes"):
        AsyncSocketTransport(("127.0.0.1", 1), max_frame_bytes=0)


def test_mid_call_server_death_is_server_unavailable(loop):
    """The peer dies after reading the request → ServerUnavailable."""

    def script(conn):
        _read_request(conn)  # then close without replying

    outcome = _rogue_call(loop, script)
    assert isinstance(outcome.error, ServerUnavailable)


def test_unresponsive_server_times_out(loop):
    """A wedged server (reads, never replies) is bounded by the timeout."""
    release = threading.Event()

    def script(conn):
        _read_request(conn)
        release.wait(timeout=10.0)

    rogue = RogueServer(script)
    client = Client(loop, rogue.address, timeout=0.3, connect_retries=1)
    try:
        outcome = client.invoke_detailed("add", (1, 2))
        assert isinstance(outcome.error, ServerUnavailable)
        assert "timed out" in str(outcome.error)
        assert client.stats.errors == 1
    finally:
        release.set()
        client.close()
        rogue.close()


def test_unreachable_server_is_server_unavailable(loop):
    client = Client(
        loop, ("127.0.0.1", 1), timeout=0.5, connect_retries=2, connect_backoff=0.01
    )
    with pytest.raises(ServerUnavailable, match="after 2 attempts"):
        client.invoke("add", (1, 2))
    assert client.stats.calls == 1 and client.stats.errors == 1


def _raw_connection(address):
    return socket_module.create_connection((address.host, address.port), timeout=2.0)


def test_malformed_request_payload_answered_typed(server):
    """A syntactically framed but semantically garbage request gets a typed
    error response instead of killing the connection silently."""
    codec = Codec()
    sock = _raw_connection(server.address)
    try:
        payload = codec.encode([1, 2, 3])  # not a {method, args, kwargs} dict
        sock.sendall(MUX_MAGIC + pack_mux_frame(7, payload, 1 << 20))
        header = _recv_exactly(sock, MUX_HEADER_BYTES)
        assert int.from_bytes(header[:4], "big") == 7
        body = _recv_exactly(sock, int.from_bytes(header[4:], "big"))
        assert body[:1] == STATUS_ERROR
        error = decode_exception(codec.decode(body[1:]))
        assert isinstance(error, WireProtocolError)
    finally:
        sock.close()


def test_connection_without_the_preamble_is_closed_undispatched(loop):
    """Bytes that do not open with MUX_MAGIC — here a request behind a bare
    4-byte length prefix — are never dispatched: the server closes the
    connection unanswered and keeps serving everyone else."""
    server_target = Arithmetic()
    with SocketServer(server_target) as srv:
        request = Codec().encode({"method": "add", "args": [1, 2], "kwargs": {}})
        sock = _raw_connection(srv.address)
        try:
            sock.sendall(len(request).to_bytes(4, "big") + request)
            assert sock.recv(4096) == b""  # closed, nothing answered
        finally:
            sock.close()
        assert server_target.calls == 0
        other = Client(loop, srv.address, timeout=2.0)
        try:
            assert other.invoke("add", (2, 2)) == 4
        finally:
            other.close()
        assert server_target.calls == 1


# ----------------------------------------------------------------------
# Lifecycle, unix sockets
# ----------------------------------------------------------------------


def test_server_close_is_idempotent():
    server = SocketServer(Arithmetic())
    server.start()
    server.close()
    server.close()
    never_started = SocketServer(Arithmetic())
    never_started.close()


def test_transport_close_is_idempotent(client):
    client.invoke("add", (1, 1))
    client.close()
    client.close()


def test_graceful_shutdown_via_wire(loop, server):
    client = Client(loop, server.address, timeout=2.0, connect_retries=1)
    try:
        assert client.invoke(SHUTDOWN_METHOD) is True
    finally:
        client.close()
    # a wire shutdown fully closes the server even without serve_forever():
    # the listener is released, so a fresh connection is refused (not left
    # hanging in the backlog) and the accept thread is gone
    server._shutdown.wait(timeout=5.0)
    assert server._shutdown.is_set()
    start = time.monotonic()
    while server._listener is not None and time.monotonic() - start < 5.0:
        time.sleep(0.05)
    assert server._listener is None
    probe = Client(loop, server.address, timeout=1.0, connect_retries=1)
    with pytest.raises(ServerUnavailable):
        probe.invoke("add", (1, 2))


@pytest.mark.skipif(not hasattr(socket_module, "AF_UNIX"), reason="no unix sockets")
def test_unix_socket_roundtrip(loop, tmp_path):
    path = str(tmp_path / "repro.sock")
    with SocketServer(Arithmetic(), unix_path=path) as server:
        assert server.address.is_unix
        client = Client(loop, path, timeout=5.0)
        try:
            assert client.invoke("add", (20, 22)) == 42
            assert client.invoke(PING_METHOD)["target"] == "Arithmetic"
        finally:
            client.close()
    # close() unlinks the path, so the same path is immediately reusable
    assert not os.path.exists(path)
    with SocketServer(Arithmetic(), unix_path=path):
        client = Client(loop, path, timeout=5.0)
        try:
            assert client.invoke("add", (1, 1)) == 2
        finally:
            client.close()
    # a *stale* leftover file (crash: close() never ran) is healed at bind
    with open(path, "w"):
        pass
    with SocketServer(Arithmetic(), unix_path=path):
        client = Client(loop, path, timeout=5.0)
        try:
            assert client.invoke("add", (2, 3)) == 5
        finally:
            client.close()


def test_slow_trickling_peer_is_bounded_by_a_total_deadline(loop):
    """The timeout is a per-call deadline, not a per-recv allowance: a peer
    trickling bytes slower than the frame needs cannot stall the caller."""

    def script(conn):
        call_id = _read_request(conn)
        # announce a 40-byte body, then trickle one byte per 0.15s — each
        # recv() succeeds, so only a total deadline can stop the read
        conn.sendall(call_id.to_bytes(4, "big") + (40).to_bytes(4, "big"))
        try:
            for _ in range(40):
                conn.sendall(b"x")
                time.sleep(0.15)
        except OSError:
            pass  # client gave up, as it must

    rogue = RogueServer(script)
    client = Client(loop, rogue.address, timeout=0.6, connect_retries=1)
    try:
        start = time.monotonic()
        outcome = client.invoke_detailed("add", (1, 2))
        elapsed = time.monotonic() - start
        assert isinstance(outcome.error, ServerUnavailable)
        assert elapsed < 3.0  # 40 bytes * 0.15s = 6s if unbounded
    finally:
        client.close()
        rogue.close()


def test_server_address_coercion():
    assert ServerAddress.coerce(("localhost", 80)) == ServerAddress(host="localhost", port=80)
    assert ServerAddress.coerce("/tmp/x.sock") == ServerAddress(path="/tmp/x.sock")
    address = ServerAddress(host="h", port=1)
    assert ServerAddress.coerce(address) is address
    with pytest.raises(TypeError):
        ServerAddress.coerce(42)
    with pytest.raises(ValueError):
        ServerAddress(host="h")
