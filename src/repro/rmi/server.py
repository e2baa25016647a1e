"""Socket servers: host one ``ServerFilter`` shard behind a real socket.

Three layers, each building on the previous:

* :class:`SocketServer` — an in-process daemon: bind, then serve every
  connection on **one** asyncio event loop running in a single background
  thread — no thread per socket, no thread per in-flight call — and
  dispatch pipelined, id-tagged request frames (see
  :mod:`repro.rmi.socket`) against a target object (any object with public
  methods taking/returning codec-serialisable values — in practice a
  :class:`~repro.filters.server.ServerFilter`).  A connection that does
  not open with the :data:`~repro.rmi.socket.MUX_MAGIC` preamble is closed
  without dispatching anything.  Serves the ``__ping__`` health-check
  handshake and a graceful ``__shutdown__``.
* :class:`ServerProcess` — one server as a child *process*: spawns
  ``python -m repro.cli server`` (the ``repro-server`` entry point) on a
  saved database file, waits for the READY line announcing the bound port,
  health-checks the handshake, and supports both graceful shutdown and a
  hard :meth:`kill` (the fault-injection primitive: the process dies
  mid-call exactly like a crashed host).
* :class:`SocketCluster` — a whole deployment as subprocesses: writes each
  server's share table from a :class:`~repro.encode.deploy.ClusterDeployment`
  to disk, spawns ``n`` :class:`ServerProcess` es, health-checks them all,
  and hands out the :class:`~repro.rmi.aio.AsyncClusterTransport` that makes
  the existing :class:`~repro.filters.cluster.ClusterClient` run over real
  processes unmodified.

Dispatch discipline: only *public* methods of the target are reachable —
a request naming an underscore-prefixed or unknown attribute is answered
with a typed :class:`~repro.rmi.socket.UnknownRemoteMethodError`, never
executed.  Malformed or oversized request frames are answered with a
:class:`~repro.rmi.socket.WireProtocolError` description and the
connection is closed (framing sync is lost after a bad frame).  All
shutdown paths are idempotent.
"""

from __future__ import annotations

import asyncio
import os
import select
import shutil
import socket
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.rmi.aio import AsyncClusterTransport, AsyncSocketTransport
from repro.rmi.codec import Codec, CodecError
from repro.rmi.socket import (
    DEFAULT_MAX_FRAME_BYTES,
    DEFAULT_TIMEOUT,
    MUX_MAGIC,
    OversizedFrameError,
    PING_METHOD,
    SHUTDOWN_METHOD,
    STATUS_ERROR,
    STATUS_OK,
    ServerAddress,
    ServerUnavailable,
    UnknownRemoteMethodError,
    WireProtocolError,
    encode_exception,
    pack_mux_frame,
    read_mux_frame,
)

#: stdout line a spawned server prints once it accepts connections;
#: the parent parses ``port=``/``pid=`` from it (the handshake's first half)
READY_PREFIX = "REPRO-SERVER READY"

#: protocol revision announced by the ``__ping__`` handshake
PROTOCOL_VERSION = 1


class SocketServer:
    """Hosts one target object behind a TCP or Unix-domain socket.

    All connections are served by one asyncio event loop on a single
    background thread.  Each request is dispatched as its own task the
    moment its frame arrives; a synchronous target runs each call to
    completion, so one connection's calls still execute in arrival order —
    the protocol has stateful, order-dependent endpoints
    (``open_queue``/``next_node``) — while separate connections interleave
    freely at every await point.  ``delay`` sleeps (asynchronously) before
    answering each request: deterministic injected per-server latency for
    benchmarks exercising first-k quorum reads on a real wire.

    ``max_session_inflight`` bounds how many of one *connection's* mux
    requests may be dispatched concurrently (``None`` = unlimited, the
    historical behaviour).  Past the bound the connection's read loop
    stops pulling frames until a dispatch completes — per-connection
    backpressure that keeps a pipelining hog from parking an unbounded
    task pile on the loop, without ever affecting other connections.
    Subclasses with their own admission control (the gateway's weighted
    fair queue) normally leave this off and gate in dispatch instead.
    """

    def __init__(
        self,
        target: Any,
        host: str = "127.0.0.1",
        port: int = 0,
        unix_path: Optional[str] = None,
        codec: Optional[Codec] = None,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        name: str = "repro-server",
        delay: float = 0.0,
        max_session_inflight: Optional[int] = None,
        method_table: Optional[Iterable[str]] = None,
    ):
        if delay < 0:
            raise ValueError("delay must be non-negative")
        if max_session_inflight is not None and max_session_inflight < 1:
            raise ValueError(
                "max_session_inflight must be at least 1 (or None), got %r"
                % (max_session_inflight,)
            )
        self.max_session_inflight = max_session_inflight
        #: when set, the dispatchable surface is exactly this allowlist
        #: (the fleet passes the declarative spec table from
        #: :mod:`repro.rmi.methods`, so an endpoint must be registered
        #: there to be wire-reachable); ``None`` keeps the historical
        #: duck-typed dispatch for ad-hoc targets.
        self.method_table: Optional[FrozenSet[str]] = (
            frozenset(method_table) if method_table is not None else None
        )
        self.target = target
        self.codec = codec or Codec()
        self.max_frame_bytes = max_frame_bytes
        self.name = name
        self.delay = float(delay)
        self._host = host
        self._port = port
        self._unix_path = unix_path
        self._listener: Optional[socket.socket] = None
        self._address: Optional[ServerAddress] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._loop_thread: Optional[threading.Thread] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._shutdown = threading.Event()
        self._lock = threading.Lock()
        #: live connection writers; owned by the event loop thread
        self._writers: Set[asyncio.StreamWriter] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def address(self) -> ServerAddress:
        """Where the server listens (only valid after :meth:`start`)."""
        if self._address is None:
            raise RuntimeError("server has not been started")
        return self._address

    def start(self) -> ServerAddress:
        """Bind, listen and start accepting in a background thread."""
        if self._listener is not None:
            return self.address
        if self._shutdown.is_set():
            raise RuntimeError("server was already shut down")
        if self._unix_path is not None:
            if not hasattr(socket, "AF_UNIX"):  # pragma: no cover - non-POSIX
                raise RuntimeError("unix sockets are not supported on this platform")
            _unlink_stale_unix_socket(self._unix_path)
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                listener.bind(self._unix_path)
                listener.listen(16)
            except OSError:
                listener.close()
                raise
            self._address = ServerAddress(path=self._unix_path)
        else:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            try:
                listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                listener.bind((self._host, self._port))
                listener.listen(16)
            except OSError:
                listener.close()
                raise
            bound_host, bound_port = listener.getsockname()[:2]
            self._address = ServerAddress(host=bound_host, port=bound_port)
        listener.setblocking(False)
        self._listener = listener
        started = threading.Event()
        failures: List[BaseException] = []
        self._loop_thread = threading.Thread(
            target=self._run_loop,
            args=(listener, started, failures),
            name="%s-loop" % self.name,
            daemon=True,
        )
        self._loop_thread.start()
        started.wait()
        if failures:
            self._listener = None
            self._loop_thread = None
            try:
                listener.close()
            except OSError:  # pragma: no cover
                pass
            raise failures[0]
        return self._address

    def serve_forever(self) -> None:
        """Start (if needed) and block until :meth:`close` or ``__shutdown__``.

        A ``__shutdown__`` that lands between :meth:`start` and this call
        (the daemon prints its READY line in that window) is a normal
        outcome, not an error: the wait returns immediately.
        """
        if self._listener is None and not self._shutdown.is_set():
            self.start()
        self._shutdown.wait()
        self.close()

    def close(self) -> None:
        """Stop accepting, drop every connection, join the loop thread.

        Idempotent: closing a closed (or never-started) server is a no-op,
        so CI teardown paths can call it unconditionally.
        """
        self._shutdown.set()
        self._signal_stop()
        thread, self._loop_thread = self._loop_thread, None
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=5.0)
        self._finalize()

    def _signal_stop(self) -> None:
        """Ask the event loop (from any thread) to wind the server down."""
        loop = self._loop
        stop = self._stop_event
        if loop is None or stop is None:
            return
        try:
            loop.call_soon_threadsafe(stop.set)
        except RuntimeError:  # pragma: no cover - loop already closed
            pass

    def _finalize(self) -> None:
        """Release the listener socket and unix path (idempotent)."""
        with self._lock:
            listener, self._listener = self._listener, None
        if listener is not None:
            try:
                listener.close()
            except OSError:  # pragma: no cover
                pass
        if self._unix_path is not None:
            # AF_UNIX paths are not reclaimed by the OS (SO_REUSEADDR
            # does not apply); leaving the file would make the next
            # bind on this path fail.
            try:
                os.unlink(self._unix_path)
            except OSError:
                pass

    def __enter__(self) -> "SocketServer":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------

    def _run_loop(
        self,
        listener: socket.socket,
        started: threading.Event,
        failures: List[BaseException],
    ) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._main(listener, started, failures))
        finally:
            try:
                pending = [task for task in asyncio.all_tasks(loop) if not task.done()]
                for task in pending:
                    task.cancel()
                if pending:
                    loop.run_until_complete(
                        asyncio.gather(*pending, return_exceptions=True)
                    )
            finally:
                asyncio.set_event_loop(None)
                loop.close()
                self._loop = None
                self._stop_event = None
                # The wire-shutdown path never calls close(); releasing the
                # listener here lets callers observe completed teardown.
                self._finalize()

    async def _main(
        self,
        listener: socket.socket,
        started: threading.Event,
        failures: List[BaseException],
    ) -> None:
        self._stop_event = asyncio.Event()
        try:
            if self._unix_path is not None:
                server = await asyncio.start_unix_server(
                    self._on_connection, sock=listener
                )
            else:
                server = await asyncio.start_server(self._on_connection, sock=listener)
        except Exception as exc:  # pragma: no cover - loop refuses the socket
            failures.append(exc)
            started.set()
            return
        started.set()
        try:
            await self._stop_event.wait()
        finally:
            server.close()
            for writer in list(self._writers):
                _abort_writer(writer)
            await server.wait_closed()
            await self._on_loop_shutdown()

    async def _on_loop_shutdown(self) -> None:
        """Last words on the event loop before it winds down.

        Subclasses holding loop-bound resources beyond the connections (the
        gateway's upstream cluster transport) release them here — after the
        listener stopped accepting and every connection was dropped, while
        the loop still runs.
        """

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    def _make_session(self) -> Any:
        """Per-connection state, created as a connection opens.

        The base server is stateless per connection (the target object holds
        all state) and returns ``None``; the gateway binds each connection to
        its own client session here.
        """
        return None

    async def _release_session(self, session: Any) -> None:
        """Release per-connection state as the connection ends (hook)."""

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        session = self._make_session()
        try:
            await self._serve_connection(reader, writer, session)
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            pass  # peer vanished mid-session: a normal end
        except asyncio.CancelledError:
            # Loop teardown cancels connection tasks that were still parked
            # on a read; ending the task *cancelled* would make the streams
            # machinery re-raise from its done-callback and spray tracebacks
            # through the closing loop.  Finish quietly instead.
            pass
        finally:
            self._writers.discard(writer)
            _abort_writer(writer)
            await self._release_session(session)

    async def _serve_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        session: Any = None,
    ) -> None:
        """Check the preamble, then serve the session.

        A connection that opens with anything but
        :data:`~repro.rmi.socket.MUX_MAGIC` is closed unanswered: the peer
        does not speak this protocol, so nothing it sent is dispatched.
        """
        try:
            preamble = await reader.readexactly(len(MUX_MAGIC))
        except asyncio.IncompleteReadError:
            return
        if preamble == MUX_MAGIC:
            await self._serve_mux(reader, writer, session)

    async def _serve_mux(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        session: Any = None,
    ) -> None:
        """Pipelined id-tagged frames over one connection.

        Every request is dispatched as its own task the moment its frame
        arrives, so slow calls — an injected service delay, a dispatch that
        awaits upstream IO — overlap instead of queueing behind each other.
        Replies carry the request's id and go out in *completion* order; the
        mux client matches them by id, so reordering is part of the
        contract.  Only the reply writes are serialised (one frame at a
        time).  A ``__shutdown__`` stops the read loop once answered;
        dispatches already in flight are drained before the server stops.
        """
        write_lock = asyncio.Lock()
        stopping = asyncio.Event()
        inflight: Set["asyncio.Task[None]"] = set()
        limit = (
            asyncio.Semaphore(self.max_session_inflight)
            if self.max_session_inflight is not None
            else None
        )

        async def _dispatch(call_id: int, frame: bytes) -> None:
            try:
                response, stop_after = await self._respond(frame, session)
            finally:
                if limit is not None:
                    limit.release()
            try:
                if len(response) > self.max_frame_bytes:
                    async with write_lock:
                        await self._send_mux_error(
                            writer,
                            call_id,
                            WireProtocolError(
                                "frame of %d bytes exceeds the %d-byte limit"
                                % (len(response), self.max_frame_bytes)
                            ),
                        )
                else:
                    async with write_lock:
                        writer.write(
                            pack_mux_frame(call_id, response, self.max_frame_bytes)
                        )
                        await writer.drain()
            except (ConnectionError, OSError):
                pass  # peer gone: the read loop is ending too
            finally:
                if stop_after:
                    stopping.set()

        stop_wait = asyncio.ensure_future(stopping.wait())
        try:
            while not stopping.is_set():
                read = asyncio.ensure_future(
                    read_mux_frame(reader, self.max_frame_bytes)
                )
                await asyncio.wait({read, stop_wait}, return_when=asyncio.FIRST_COMPLETED)
                if not read.done():
                    # a __shutdown__ reply went out while we were blocked
                    # reading: stop accepting, drop the half-read frame
                    read.cancel()
                    await asyncio.gather(read, return_exceptions=True)
                    break
                try:
                    item = read.result()
                except OversizedFrameError as exc:
                    # The id is known from the header: answer that call
                    # typed, then drop — the body was never read, so sync
                    # is lost.
                    if exc.call_id is not None:
                        async with write_lock:
                            await self._send_mux_error(writer, exc.call_id, exc)
                    return
                except WireProtocolError:
                    return  # truncated mid-frame: nothing sane left to answer
                if item is None:
                    return  # clean EOF between frames
                call_id, frame = item
                if limit is not None:
                    # Backpressure: past the per-connection bound, stop
                    # pulling frames until a dispatch completes.  The
                    # wait always resolves — every counted dispatch ends.
                    await limit.acquire()
                task = asyncio.ensure_future(_dispatch(call_id, frame))
                inflight.add(task)
                task.add_done_callback(inflight.discard)
        finally:
            stop_wait.cancel()
            # Half-closed peers still read replies: finish every accepted
            # request before the connection (or the server) goes down.
            if inflight:
                await asyncio.gather(*inflight, return_exceptions=True)
            if stopping.is_set():
                self._shutdown.set()
                self._signal_stop()

    async def _respond(self, frame: bytes, session: Any = None) -> Tuple[bytes, bool]:
        """Dispatch one request frame (after the optional injected delay)."""
        if self.delay:
            await asyncio.sleep(self.delay)
        return self._handle(frame)

    async def _send_mux_error(
        self, writer: asyncio.StreamWriter, call_id: int, error: BaseException
    ) -> None:
        payload = STATUS_ERROR + self.codec.encode(encode_exception(error))
        try:
            writer.write(pack_mux_frame(call_id, payload, max(self.max_frame_bytes, 4096)))
            await writer.drain()
        except (ConnectionError, OSError, WireProtocolError):  # pragma: no cover
            pass

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _handle(self, frame: bytes) -> "tuple[bytes, bool]":
        """Decode one request, run it, encode one response frame payload."""
        try:
            request = self.codec.decode(frame)
        except CodecError as exc:
            return self._error_payload(WireProtocolError("malformed request: %s" % exc)), False
        if not isinstance(request, dict) or not isinstance(request.get("method"), str):
            return (
                self._error_payload(
                    WireProtocolError("request must be a {method, args, kwargs} dictionary")
                ),
                False,
            )
        method = request["method"]
        args = request.get("args") or []
        kwargs = request.get("kwargs") or {}
        if method == PING_METHOD:
            return STATUS_OK + self.codec.encode(self._identity()), False
        if method == SHUTDOWN_METHOD:
            return STATUS_OK + self.codec.encode(True), True
        if method.startswith("_") or (
            self.method_table is not None and method not in self.method_table
        ):
            return (
                self._error_payload(
                    UnknownRemoteMethodError("method %r is not exported" % method)
                ),
                False,
            )
        handler = getattr(self.target, method, None)
        if not callable(handler):
            return (
                self._error_payload(
                    UnknownRemoteMethodError(
                        "%s exports no method %r" % (type(self.target).__name__, method)
                    )
                ),
                False,
            )
        try:
            result = handler(*args, **kwargs)
        except Exception as exc:
            return self._error_payload(exc), False
        try:
            return STATUS_OK + self.codec.encode(result), False
        except CodecError as exc:
            return self._error_payload(exc), False

    def _error_payload(self, error: BaseException) -> bytes:
        return STATUS_ERROR + self.codec.encode(encode_exception(error))

    def _identity(self) -> Dict[str, Any]:
        """The ``__ping__`` reply: who is serving, over which protocol."""
        return {
            "server": self.name,
            "protocol": PROTOCOL_VERSION,
            "pid": os.getpid(),
            "target": type(self.target).__name__,
        }

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        where = str(self._address) if self._address is not None else "unbound"
        return "SocketServer(%s, %s)" % (type(self.target).__name__, where)


def _unlink_stale_unix_socket(path: str) -> None:
    """Remove a leftover socket file only if no server is answering on it.

    A crashed server (close() never ran) leaves its path behind; binding
    would fail even though nothing is listening.  A *live* server's path is
    left alone — the bind then fails loudly instead of hijacking it.
    """
    if not os.path.exists(path):
        return
    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        probe.settimeout(0.5)
        probe.connect(path)
    except OSError:
        try:
            os.unlink(path)
        except OSError:  # pragma: no cover - raced with another unlink
            pass
    else:
        pass  # someone is serving: let bind() report the conflict
    finally:
        probe.close()


def _abort_writer(writer: asyncio.StreamWriter) -> None:
    """Drop one connection immediately (idempotent, exception-quiet)."""
    try:
        transport = writer.transport
        if transport is not None:
            transport.abort()
    except (RuntimeError, OSError):  # pragma: no cover - already closed
        pass


# ----------------------------------------------------------------------
# Subprocess server
# ----------------------------------------------------------------------


def format_ready_line(address: ServerAddress, nodes: int) -> str:
    """The line a spawned server prints once it accepts connections."""
    if address.is_unix:
        return "%s unix=%s pid=%d nodes=%d" % (READY_PREFIX, address.path, os.getpid(), nodes)
    return "%s port=%d pid=%d nodes=%d" % (READY_PREFIX, address.port, os.getpid(), nodes)


def _parse_ready_line(line: str) -> Dict[str, str]:
    fields = {}
    for token in line[len(READY_PREFIX):].split():
        if "=" in token:
            key, value = token.split("=", 1)
            fields[key] = value
    return fields


class ServerProcess:
    """One share server running as a child process of this interpreter.

    The child runs ``python -m repro.cli server`` against a database file
    written with :meth:`repro.storage.database.Database.save`; the parent
    parses the READY line for the bound port, then completes the handshake
    with a ``__ping__`` over the wire.  ``kill()`` is the fault-injection
    primitive — SIGKILL, no goodbye, exactly a crashed host — while
    :meth:`shutdown` asks the server to stop via ``__shutdown__`` before
    escalating.  Both are idempotent.
    """

    def __init__(
        self,
        database_path: str,
        p: int,
        e: int = 1,
        host: str = "127.0.0.1",
        python: Optional[str] = None,
        startup_timeout: float = 30.0,
        name: Optional[str] = None,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        delay: float = 0.0,
        chaos: bool = False,
    ):
        self.database_path = database_path
        self.p = p
        self.e = e
        self.host = host
        self.python = python or sys.executable
        self.startup_timeout = startup_timeout
        self.name = name or os.path.basename(database_path)
        self.max_frame_bytes = max_frame_bytes
        self.delay = delay
        self.chaos = chaos
        self.process: Optional[subprocess.Popen] = None
        self.address: Optional[ServerAddress] = None
        self.pid: Optional[int] = None

    def launch(self) -> None:
        """Spawn the child without waiting for it (see :meth:`await_ready`).

        The child is started with a piped stdin and ``--parent-watch``: it
        reads that pipe and shuts itself down on EOF, so even a SIGKILLed
        or crashed parent (whose pipe ends close with it) cannot leave an
        orphan server holding its port and share table.
        """
        if self.process is not None:
            raise RuntimeError("server process %s already started" % self.name)
        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src_root if not existing else src_root + os.pathsep + existing
        self.process = subprocess.Popen(
            self._command(), stdout=subprocess.PIPE, stdin=subprocess.PIPE, env=env
        )

    def _command(self) -> List[str]:
        """The child's argv (hook: the gateway daemon overrides this)."""
        command = [
            self.python, "-m", "repro.cli", "server",
            "--db", self.database_path,
            "--p", str(self.p), "--e", str(self.e),
            "--host", self.host, "--port", "0",
            "--max-frame-bytes", str(self.max_frame_bytes),
            "--parent-watch",
        ]
        if self.delay:
            command.extend(["--delay", repr(self.delay)])
        if self.chaos:
            command.append("--chaos")
        return command

    def await_ready(self) -> ServerAddress:
        """Wait for the READY line (bounded); kill the child on any failure."""
        if self.process is None:
            raise RuntimeError("server process %s was never launched" % self.name)
        try:
            line = self._await_ready_line()
            fields = _parse_ready_line(line)
            if "unix" in fields:
                self.address = ServerAddress(path=fields["unix"])
            elif "port" in fields:
                self.address = ServerAddress(host=self.host, port=int(fields["port"]))
            else:
                raise ServerUnavailable(
                    "server %s printed a malformed READY line: %r" % (self.name, line)
                )
            self.pid = int(fields.get("pid", self.process.pid))
        except Exception:
            # Never leave a half-started child running (and bound to a
            # port) behind a failed handshake.
            self.kill()
            raise
        return self.address

    def start(self) -> ServerAddress:
        """Spawn the child and wait for its READY line (bounded)."""
        self.launch()
        return self.await_ready()

    def _await_ready_line(self) -> str:
        """Read child stdout until the READY line, the deadline, or death.

        Reads the raw pipe fd directly (``os.read`` after ``select``) —
        mixing ``select`` with a buffered file object would lose lines that
        are already sitting in the Python-level buffer, stalling the wait
        even though the READY line has arrived.
        """
        assert self.process is not None and self.process.stdout is not None
        deadline = time.monotonic() + self.startup_timeout
        fd = self.process.stdout.fileno()
        buffered = b""
        while True:
            while b"\n" in buffered:
                line, buffered = buffered.split(b"\n", 1)
                text = line.decode("utf-8", "replace").strip()
                if text.startswith(READY_PREFIX):
                    return text
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServerUnavailable(
                    "server %s did not become ready within %.1fs"
                    % (self.name, self.startup_timeout)
                )
            ready, _, _ = select.select([fd], [], [], min(remaining, 0.5))
            if not ready:
                if self.process.poll() is not None:
                    raise ServerUnavailable(
                        "server %s exited with code %s before becoming ready"
                        % (self.name, self.process.returncode)
                    )
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                raise ServerUnavailable(
                    "server %s closed stdout (exit code %s) before becoming ready"
                    % (self.name, self.process.poll())
                )
            buffered += chunk

    # ------------------------------------------------------------------
    # Introspection and control
    # ------------------------------------------------------------------

    def transport(self, **kwargs: Any) -> AsyncSocketTransport:
        """A fresh client transport pointed at this server."""
        if self.address is None:
            raise RuntimeError("server process %s is not running" % self.name)
        return AsyncSocketTransport(self.address, **kwargs)

    def _call(self, method: str, **kwargs: Any) -> Any:
        """One call on a fresh connection, closed afterwards (sync)."""
        transport = self.transport(**kwargs)

        async def call() -> Any:
            try:
                return await transport.ainvoke(None, method)
            finally:
                await transport.aclose()

        return asyncio.run(call())

    def ping(self, timeout: float = 5.0) -> Dict[str, Any]:
        """The health-check handshake (raises :class:`ServerUnavailable`)."""
        return self._call(PING_METHOD, timeout=timeout)

    def is_alive(self) -> bool:
        """Whether the child process is still running."""
        return self.process is not None and self.process.poll() is None

    def kill(self) -> None:
        """SIGKILL the child — the fault-injection primitive (idempotent)."""
        process = self.process
        if process is None:
            return
        if process.poll() is None:
            process.kill()
        process.wait()
        self._release_pipes()

    def shutdown(self, timeout: float = 5.0) -> None:
        """Graceful stop: ``__shutdown__`` over the wire, then escalate.

        Idempotent; safe to call on a server that was already killed.
        """
        process = self.process
        if process is None:
            return
        if process.poll() is None and self.address is not None:
            try:
                self._call(SHUTDOWN_METHOD, timeout=timeout, connect_retries=1)
            except (ConnectionError, RuntimeError):
                pass
            try:
                process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                pass
        if process.poll() is None:
            process.terminate()
            try:
                process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        self._release_pipes()

    def _release_pipes(self) -> None:
        process = self.process
        if process is None:
            return
        for pipe in (process.stdout, process.stdin):
            if pipe is not None:
                try:
                    pipe.close()
                except OSError:  # pragma: no cover - broken pipe on close
                    pass

    def __enter__(self) -> "ServerProcess":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return "ServerProcess(%s, %s, alive=%s)" % (
            self.name, self.address, self.is_alive()
        )


# ----------------------------------------------------------------------
# Cluster launcher
# ----------------------------------------------------------------------


class SocketCluster:
    """An n-server share deployment running as real subprocesses.

    Created via :meth:`from_deployment`: each server's node table is saved
    to ``directory`` and served by one :class:`ServerProcess`; every server
    is health-checked before the constructor returns (and every already-
    spawned server is torn down if any of them fails to come up).
    :meth:`cluster_transport` hands out an
    :class:`~repro.rmi.aio.AsyncClusterTransport` over the servers'
    :attr:`addresses`, which the existing cluster client stack consumes
    unchanged.

    :meth:`kill_server` maps the transport layer's down/fault semantics
    onto real processes: the victim dies mid-call with SIGKILL and every
    subsequent call to it surfaces as a recorded
    :class:`~repro.rmi.socket.ServerUnavailable` (a ``ConnectionError``,
    so quorum completion and fail-over engage exactly as for a simulated
    down server).  :meth:`shutdown` is idempotent and reclaims everything:
    server processes, and the on-disk tables when the cluster owns its
    directory.
    """

    def __init__(
        self,
        processes: Sequence[ServerProcess],
        directory: Optional[str] = None,
        owns_directory: bool = False,
        timeout: float = DEFAULT_TIMEOUT,
    ):
        self.processes = list(processes)
        self.directory = directory
        #: per-call timeout of the client transports this cluster hands out
        self.timeout = timeout
        self._owns_directory = owns_directory
        self._closed = False
        #: table-generation counter per healed slot (names replacement files)
        self._generations: Dict[int, int] = {}

    @classmethod
    def from_deployment(
        cls,
        deployment: Any,
        directory: Optional[str] = None,
        startup_timeout: float = 30.0,
        timeout: float = DEFAULT_TIMEOUT,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        delay: float = 0.0,
        chaos: bool = False,
    ) -> "SocketCluster":
        """Launch one subprocess server per share table of ``deployment``.

        ``delay`` injects a per-request service delay into every child (a
        modeled network/IO round trip) — load benchmarks use it to make
        queries IO-bound on an otherwise zero-latency loopback.  ``chaos``
        launches every child with the ``corrupt_share`` fault injector
        exported (chaos benches only).
        """
        owns_directory = directory is None
        if directory is None:
            directory = tempfile.mkdtemp(prefix="repro-socket-cluster-")
        field = deployment.ring.field
        processes: List[ServerProcess] = []
        try:
            # Launch every child first (Popen does not block), then await
            # the READY lines: fleet startup costs the slowest child's boot
            # instead of the sum over all n.
            for index, database in enumerate(deployment.databases):
                path = os.path.join(directory, "server-%d.json" % index)
                database.save(path)
                process = ServerProcess(
                    path,
                    p=field.characteristic,
                    e=field.degree,
                    startup_timeout=startup_timeout,
                    name="server-%d" % index,
                    max_frame_bytes=max_frame_bytes,
                    delay=delay,
                    chaos=chaos,
                )
                processes.append(process)
                process.launch()
            for process in processes:
                process.await_ready()
                process.ping(timeout=timeout)
        except Exception:
            for process in processes:
                process.kill()
            if owns_directory:
                shutil.rmtree(directory, ignore_errors=True)
            raise
        return cls(
            processes, directory=directory, owns_directory=owns_directory, timeout=timeout
        )

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    @property
    def num_servers(self) -> int:
        """Number of server processes in the cluster."""
        return len(self.processes)

    @property
    def addresses(self) -> List[ServerAddress]:
        """Every server's listen address, in server order."""
        return [process.address for process in self.processes]

    def _transport(self, index: int) -> AsyncSocketTransport:
        # Two dial attempts, not the lone-transport default of four: the
        # cluster has quorum completion and fail-over for dead peers, so
        # burning backoff per call on a crashed server would only stretch
        # every round's tail.
        return self.processes[index].transport(
            timeout=self.timeout,
            max_frame_bytes=self.processes[index].max_frame_bytes,
            connect_retries=2,
        )

    def cluster_transport(
        self, round_overhead: float = 0.0, hedge: Any = False
    ) -> AsyncClusterTransport:
        """The scatter-gather transport over this cluster's socket peers."""
        return AsyncClusterTransport(
            self.addresses,
            transports=[self._transport(index) for index in range(len(self.processes))],
            round_overhead=round_overhead,
            hedge=hedge,
        )

    # ------------------------------------------------------------------
    # Fault injection and teardown
    # ------------------------------------------------------------------

    def _check_index(self, index: int) -> None:
        if not 0 <= index < len(self.processes):
            raise IndexError(
                "server index %d out of range for %d servers" % (index, len(self.processes))
            )

    def kill_server(self, index: int) -> None:
        """SIGKILL one server — real, wire-level fault injection."""
        self._check_index(index)
        self.processes[index].kill()

    def spawn_replacement(self, index: int, database: Any) -> AsyncSocketTransport:
        """Boot a fresh server for one slot from a re-derived table (heal path).

        Saves ``database`` beside the original slice as
        ``server-<index>-gen<g>.json`` (the original file stays pristine so
        a healed table can be byte-compared against it), spawns a
        replacement :class:`ServerProcess` with the old child's parameters,
        health-checks it over the wire, then retires whatever is left of
        the old child and swaps the new process into this cluster's slot.
        Returns a transport to the new server (for
        :meth:`~repro.rmi.cluster.ClusterTransportBase.mark_healed`).  A
        failed boot leaves the slot untouched.
        """
        self._check_index(index)
        old = self.processes[index]
        generation = self._generations.get(index, 0) + 1
        directory = self.directory
        if directory is None:  # pragma: no cover - manually assembled cluster
            directory = tempfile.mkdtemp(prefix="repro-heal-")
            self.directory = directory
            self._owns_directory = True
        path = os.path.join(directory, "server-%d-gen%d.json" % (index, generation))
        database.save(path)
        replacement = ServerProcess(
            path,
            p=old.p,
            e=old.e,
            host=old.host,
            python=old.python,
            startup_timeout=old.startup_timeout,
            name="server-%d-gen%d" % (index, generation),
            max_frame_bytes=old.max_frame_bytes,
            delay=old.delay,
            chaos=old.chaos,
        )
        try:
            replacement.start()
            replacement.ping()
        except Exception:
            replacement.kill()
            raise
        self._generations[index] = generation
        # Retire the old child (idempotent against an already-dead one)
        # before the slot changes hands.
        old.kill()
        self.processes[index] = replacement
        return self._transport(index)

    def shutdown(self) -> None:
        """Tear everything down (idempotent): processes, files."""
        if self._closed:
            return
        self._closed = True
        for process in self.processes:
            process.shutdown()
        if self._owns_directory and self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)

    close = shutdown

    def __enter__(self) -> "SocketCluster":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        alive = sum(1 for process in self.processes if process.is_alive())
        return "SocketCluster(servers=%d, alive=%d)" % (len(self.processes), alive)
