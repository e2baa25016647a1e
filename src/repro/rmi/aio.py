"""The socket client: one multiplexed connection per server, pipelined calls.

* :class:`AsyncSocketTransport` — a **single** connection per server
  carrying any number of in-flight calls as id-tagged frames (see
  :mod:`repro.rmi.socket` for the wire format).  Each call parks on a
  future; one reader task settles them as tagged replies arrive, in
  whatever order the server answers.  ``Codec`` payloads are
  byte-identical with the simulated transport, so per-server call/byte
  counters match across both.
* :class:`AsyncClusterTransport` — the scatter-gather layer over those
  connections: ``ainvoke_all`` gathers coroutines, and ``ainvoke_quorum``
  admits replies **on arrival** — the k-th reply returns the round,
  stragglers drain in the background — with optional hedging driven by
  *observed* per-server RTT percentiles (a
  :class:`~repro.rmi.stats.QuantileSketch` per server).  The sync cluster
  surface is presented on top via :class:`LoopThread`, so the
  :class:`~repro.filters.cluster.ClusterClient`, both engines and the
  facade run unmodified over the wire.  A one-server instance is also
  the sync client of a single server or gateway.
* :class:`WeightedFairScheduler` — the gateway's cost-aware admission
  control over one event loop's dispatches.

Error taxonomy and fail-over semantics are unchanged: connect failures,
timeouts and mid-call connection loss surface as
:class:`~repro.rmi.socket.ServerUnavailable`, protocol violations as
:class:`~repro.rmi.socket.WireProtocolError` (both ``ConnectionError``
subclasses, which is what the cluster fail-over path catches), and
server-side exceptions come back typed through
:func:`~repro.rmi.socket.decode_exception`.  A dying connection settles
*every* pending future with the typed error — no caller is ever left
hanging on a dead wire.
"""

from __future__ import annotations

import asyncio
import heapq
import threading
import time
from contextlib import suppress
from typing import Any, Awaitable, Dict, List, Optional, Sequence, Set, Tuple, TypeVar

from repro.rmi.codec import Codec, CodecError
from repro.rmi.cluster import ClusterReply, ClusterTransportBase, _arrival_key
from repro.rmi.socket import (
    DEFAULT_MAX_FRAME_BYTES,
    DEFAULT_TIMEOUT,
    MUX_MAGIC,
    STATUS_ERROR,
    STATUS_OK,
    AddressLike,
    OversizedFrameError,
    ServerAddress,
    ServerUnavailable,
    SocketTransportError,
    WireProtocolError,
    decode_exception,
    pack_mux_frame,
    read_mux_frame,
)
from repro.rmi.stats import CallStats, QuantileSketch
from repro.rmi.transport import CallOutcome

T = TypeVar("T")

#: RTT quantile used when hedging is enabled with ``hedge=True``
DEFAULT_HEDGE_QUANTILE = 0.95


class LoopThread:
    """One asyncio event loop on a dedicated daemon thread.

    The sync façade over the asyncio stack: callers on ordinary threads
    submit coroutines with :meth:`run` and block on the result, while the
    loop multiplexes every connection and in-flight call underneath.  One
    instance is shared by all of a cluster's transports — a single loop
    from socket frames to quorum admission.
    """

    def __init__(self, name: str = "repro-aio"):
        self._loop = asyncio.new_event_loop()
        self._closed = False
        started = threading.Event()
        self._thread = threading.Thread(
            target=self._main, args=(started,), name=name, daemon=True
        )
        self._thread.start()
        started.wait()

    def _main(self, started: threading.Event) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.call_soon(started.set)
        try:
            self._loop.run_forever()
        finally:
            try:
                pending = [t for t in asyncio.all_tasks(self._loop) if not t.done()]
                for task in pending:
                    task.cancel()
                if pending:
                    self._loop.run_until_complete(
                        asyncio.gather(*pending, return_exceptions=True)
                    )
            finally:
                asyncio.set_event_loop(None)
                self._loop.close()

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        return self._loop

    def is_loop_thread(self) -> bool:
        """Whether the calling thread is the loop thread itself."""
        return threading.current_thread() is self._thread

    def run(self, coroutine: Awaitable[T]) -> T:
        """Run one coroutine on the loop and block for its result.

        Must not be called *from* the loop thread — the wait would deadlock
        the loop against itself; async-native callers (the gateway) use the
        ``a``-prefixed methods directly instead.
        """
        if self.is_loop_thread():
            coroutine.close()  # type: ignore[attr-defined]
            raise RuntimeError(
                "the sync transport surface must not be driven from the event "
                "loop thread; await the async method instead"
            )
        if self._closed:
            coroutine.close()  # type: ignore[attr-defined]
            raise RuntimeError("the loop thread is closed")
        return asyncio.run_coroutine_threadsafe(coroutine, self._loop).result()

    def close(self) -> None:
        """Stop the loop and join its thread (idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._loop.call_soon_threadsafe(self._loop.stop)
        except RuntimeError:  # pragma: no cover - loop already closed
            pass
        if not self.is_loop_thread():
            self._thread.join(timeout=5.0)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return "LoopThread(%s, closed=%s)" % (self._thread.name, self._closed)


class _FairState:
    """Per-session scheduling state of one :class:`WeightedFairScheduler`."""

    __slots__ = ("inflight", "vfinish", "weight")

    def __init__(self, weight: float):
        self.inflight = 0
        self.vfinish = 0.0
        self.weight = weight


class _FairWaiter:
    """One queued admission request (owner + the future it parks on)."""

    __slots__ = ("owner", "future")

    def __init__(self, owner: Any, future: "asyncio.Future"):
        self.owner = owner
        self.future = future


class WeightedFairScheduler:
    """Cost-aware weighted fair queueing for one event loop's dispatches.

    The gateway's admission-control half: without it, one hog session
    streaming large ``fetch_shares_batch`` rounds monopolises the shared
    upstream connections and every other session's small structural call
    queues behind the batches.  Each session accrues *virtual finish
    time* proportional to the cost of its admitted work (batch reads
    cost ~batch-size, structural calls cost 1), and the waiter with the
    smallest finish time is admitted first — so a session that has
    consumed little service jumps ahead of one that has consumed a lot,
    bounding the small calls' latency regardless of the hog's backlog.

    Two concurrency bounds compose with the ordering: ``session_cap``
    limits any one session's in-flight dispatches (a hog saturates its
    own lane, never the loop), and optional ``max_inflight`` caps the
    global total.  A waiter at its session cap is skipped — it never
    blocks *other* sessions' admissions behind it.

    Scheduling state is **loop-confined**: :meth:`acquire` /
    :meth:`release` / :meth:`forget` must run on the owning event loop.
    The counters are lock-guarded so :meth:`snapshot` is safe from any
    thread.
    """

    def __init__(
        self,
        session_cap: int = 8,
        max_inflight: Optional[int] = None,
        default_weight: float = 1.0,
    ):
        if session_cap < 1:
            raise ValueError("session_cap must be at least 1, got %r" % (session_cap,))
        if max_inflight is not None and max_inflight < 1:
            raise ValueError(
                "max_inflight must be at least 1 (or None), got %r" % (max_inflight,)
            )
        if default_weight <= 0:
            raise ValueError("default_weight must be positive")
        self.session_cap = int(session_cap)
        self.max_inflight = max_inflight
        self.default_weight = float(default_weight)
        self._states: Dict[Any, _FairState] = {}
        #: (virtual finish, seq, waiter) — seq breaks ties deterministically
        self._heap: List[Tuple[float, int, _FairWaiter]] = []
        self._seq = 0
        self._virtual = 0.0
        self._total = 0
        self._counter_lock = threading.Lock()
        self._admitted = 0
        self._queued = 0
        self._peak_waiting = 0

    def _state(self, owner: Any) -> _FairState:
        state = self._states.get(owner)
        if state is None:
            state = _FairState(self.default_weight)
            self._states[owner] = state
        return state

    async def acquire(self, owner: Any, cost: float = 1.0) -> None:
        """Wait for admission of one dispatch of ``owner`` costing ``cost``.

        Every successful acquire MUST be paired with one :meth:`release`
        (use ``try/finally``).  Cancellation while queued withdraws the
        request; cancellation that races an admission gives the slot
        back before re-raising.
        """
        cost = max(1.0, float(cost))
        state = self._state(owner)
        # Classic start-time fair queueing: a session idle since before
        # the current virtual time starts *now*, not at zero — it cannot
        # bank credit while idle and then burst past everyone.
        start = max(self._virtual, state.vfinish)
        state.vfinish = start + cost / state.weight
        waiter = _FairWaiter(owner, asyncio.get_event_loop().create_future())
        self._seq += 1
        heapq.heappush(self._heap, (state.vfinish, self._seq, waiter))
        self._pump()
        if waiter.future.done() and not waiter.future.cancelled():
            await waiter.future
            with self._counter_lock:
                self._admitted += 1
            return
        with self._counter_lock:
            self._queued += 1
            self._peak_waiting = max(self._peak_waiting, len(self._heap))
        try:
            await waiter.future
        except asyncio.CancelledError:
            if waiter.future.done() and not waiter.future.cancelled():
                # Admitted in the same tick the caller was cancelled: the
                # slot was taken, give it back.
                self.release(owner)
            raise
        with self._counter_lock:
            self._admitted += 1

    def release(self, owner: Any) -> None:
        """Return one admitted slot of ``owner`` and admit eligible waiters."""
        state = self._states.get(owner)
        if state is not None and state.inflight > 0:
            state.inflight -= 1
            self._total -= 1
        self._pump()

    def forget(self, owner: Any) -> None:
        """Drop a departed session: frees its slots, cancels its waiters."""
        state = self._states.pop(owner, None)
        if state is not None:
            self._total -= state.inflight
        for _, _, waiter in self._heap:
            if waiter.owner is owner and not waiter.future.done():
                waiter.future.cancel()
        self._pump()

    def _pump(self) -> None:
        """Admit waiters in virtual-finish order while capacity allows.

        Waiters whose session is at its cap are skipped (and re-queued at
        their original position) so they never head-of-line-block other
        sessions; cancelled waiters are discarded.
        """
        skipped: List[Tuple[float, int, _FairWaiter]] = []
        while self._heap:
            if self.max_inflight is not None and self._total >= self.max_inflight:
                break
            vfinish, seq, waiter = self._heap[0]
            if waiter.future.done():  # cancelled while queued
                heapq.heappop(self._heap)
                continue
            state = self._states.get(waiter.owner)
            if state is None:  # forgotten owner: withdraw the request
                heapq.heappop(self._heap)
                waiter.future.cancel()
                continue
            if state.inflight >= self.session_cap:
                skipped.append(heapq.heappop(self._heap))
                continue
            heapq.heappop(self._heap)
            state.inflight += 1
            self._total += 1
            self._virtual = max(self._virtual, vfinish)
            waiter.future.set_result(None)
        for entry in skipped:
            heapq.heappush(self._heap, entry)

    def snapshot(self) -> Dict[str, Any]:
        """Counters plus occupancy, as one fresh plain dict."""
        with self._counter_lock:
            data: Dict[str, Any] = {
                "admitted": self._admitted,
                "queued": self._queued,
                "peak_waiting": self._peak_waiting,
            }
        data.update(
            {
                "active": self._total,
                "waiting": len(self._heap),
                "sessions": len(self._states),
                "session_cap": self.session_cap,
                "max_inflight": self.max_inflight,
            }
        )
        return data

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return "WeightedFairScheduler(active=%d, waiting=%d, cap=%d)" % (
            self._total,
            len(self._heap),
            self.session_cap,
        )


class AsyncSocketTransport:
    """One multiplexed connection to one server; any number of in-flight calls.

    After dialing, the client sends the :data:`~repro.rmi.socket.MUX_MAGIC`
    preamble and every call becomes one id-tagged frame; a single reader
    task routes id-tagged replies back to the per-call futures, so a
    64-deep pipelined burst costs one socket and zero extra threads.  The
    server processes one connection's requests in order — the pipelining
    win is eliminating the per-request round-trip gap, not reordering.

    Failure semantics (all recorded in :attr:`stats`):

    * dial failure after ``connect_retries`` attempts, a call exceeding
      ``timeout`` (the *total* deadline: dial + send + reply), and a
      connection dying mid-call all surface as :class:`ServerUnavailable`;
    * a protocol violation (oversized/truncated frame, undecodable
      payload, unknown status byte) is :class:`WireProtocolError` and
      poisons the connection — framing sync is unrecoverable, so every
      pending call is settled with the error and the next call redials;
    * a *timed-out* call leaves the connection usable: its id is simply
      abandoned, and the late reply (if any) is dropped by the reader.
      The same applies to replies for ids this client never issued.

    Not thread-safe by design: one instance belongs to one event loop.
    The cluster layer's :class:`LoopThread` provides the sync bridge.
    """

    #: measured transports have no modeled latency terms
    per_call_latency = 0.0
    per_byte_latency = 0.0

    def __init__(
        self,
        address: AddressLike,
        codec: Optional[Codec] = None,
        stats: Optional[CallStats] = None,
        timeout: float = DEFAULT_TIMEOUT,
        connect_retries: int = 4,
        connect_backoff: float = 0.05,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ):
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        if connect_retries < 1:
            raise ValueError("connect_retries must be at least 1")
        if max_frame_bytes < 1:
            raise ValueError("max_frame_bytes must be positive")
        self.address = ServerAddress.coerce(address)
        self.codec = codec or Codec()
        self.stats = stats or CallStats()
        self.timeout = timeout
        self.connect_retries = connect_retries
        self.connect_backoff = connect_backoff
        self.max_frame_bytes = max_frame_bytes
        self._reader_task: Optional[asyncio.Task] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._pending: Dict[int, asyncio.Future] = {}
        self._next_id = 0
        self._conn_lock: Optional[asyncio.Lock] = None

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------

    async def _ensure_connection(self) -> asyncio.StreamWriter:
        if self._conn_lock is None:
            self._conn_lock = asyncio.Lock()
        async with self._conn_lock:
            if self._writer is not None:
                return self._writer
            last_error: Optional[BaseException] = None
            for attempt in range(self.connect_retries):
                if attempt:
                    await asyncio.sleep(self.connect_backoff * (2 ** (attempt - 1)))
                try:
                    if self.address.is_unix:
                        opening = asyncio.open_unix_connection(self.address.path)
                    else:
                        opening = asyncio.open_connection(
                            self.address.host, self.address.port
                        )
                    reader, writer = await asyncio.wait_for(opening, self.timeout)
                except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
                    last_error = exc
                    continue
                writer.write(MUX_MAGIC)
                self._writer = writer
                self._reader_task = asyncio.ensure_future(self._read_loop(reader))
                return writer
            raise ServerUnavailable(
                "cannot connect to %s after %d attempts: %s"
                % (self.address, self.connect_retries, last_error)
            )

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        """Route id-tagged replies to their futures until the stream ends."""
        try:
            while True:
                item = await read_mux_frame(reader, self.max_frame_bytes)
                if item is None:
                    error: SocketTransportError = ServerUnavailable(
                        "server %s closed the connection mid-call" % (self.address,)
                    )
                    break
                call_id, payload = item
                future = self._pending.pop(call_id, None)
                if future is not None and not future.done():
                    future.set_result(payload)
                # else: a late reply for a timed-out call, or an id this
                # client never issued — drop it; framing stays in sync.
        except WireProtocolError as exc:
            error = exc
        except (ConnectionError, OSError) as exc:
            error = ServerUnavailable(
                "connection to %s lost mid-call: %s" % (self.address, exc)
            )
        except asyncio.CancelledError:
            self._teardown(ServerUnavailable("transport to %s closed" % (self.address,)))
            raise
        self._teardown(error)

    def _teardown(self, error: SocketTransportError) -> None:
        """Drop the connection and settle *every* pending call typed."""
        writer, self._writer = self._writer, None
        self._reader_task = None
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(error)
        if writer is not None:
            with suppress(RuntimeError, OSError):
                transport = writer.transport
                if transport is not None:
                    transport.abort()

    async def aclose(self) -> None:
        """Close the connection; pending calls settle as unavailable."""
        task = self._reader_task
        self._teardown(ServerUnavailable("transport to %s closed" % (self.address,)))
        if task is not None:
            task.cancel()
            with suppress(asyncio.CancelledError):
                await task

    # ------------------------------------------------------------------
    # Invocation
    # ------------------------------------------------------------------

    async def _roundtrip(self, request: bytes) -> Tuple[bytes, asyncio.StreamWriter]:
        """Ship one request; the reply payload and the connection it used."""
        call_id = self._next_id
        # Packed before dialing: an oversized request is a protocol
        # violation whether or not the peer is reachable.
        frame = pack_mux_frame(call_id, request, self.max_frame_bytes)
        self._next_id = (call_id + 1) % (1 << 32)
        writer = await self._ensure_connection()
        future: asyncio.Future = asyncio.get_event_loop().create_future()
        self._pending[call_id] = future
        try:
            try:
                writer.write(frame)
                await writer.drain()
            except SocketTransportError:
                raise
            except (ConnectionError, OSError) as exc:
                raise ServerUnavailable(
                    "send to %s failed: %s" % (self.address, exc)
                )
            return await future, writer
        finally:
            # On success the reader already removed the id; on timeout or
            # failure this abandons it so a late reply is dropped.
            self._pending.pop(call_id, None)

    async def ainvoke_detailed(
        self,
        target: Any,
        method: str,
        args: Tuple[Any, ...] = (),
        kwargs: Optional[Dict[str, Any]] = None,
    ) -> CallOutcome:
        """One pipelined remote call; failures captured, never raised.

        ``target`` is accepted and ignored (the remote object lives behind
        the address), so the signature matches
        :meth:`SimulatedTransport.invoke_detailed`.  The call is recorded in
        :attr:`stats` whatever happens; failed calls record zero response
        bytes, exactly like the simulated transport.
        """
        kwargs = kwargs or {}
        request = self.codec.encode(
            {"method": method, "args": list(args), "kwargs": kwargs}
        )
        started = time.perf_counter()
        value: Any = None
        error: Optional[BaseException] = None
        response_size = 0
        try:
            payload, writer = await asyncio.wait_for(self._roundtrip(request), self.timeout)
        except asyncio.TimeoutError:
            error = ServerUnavailable(
                "call %r to %s timed out after %.1fs"
                % (method, self.address, self.timeout)
            )
        except SocketTransportError as exc:
            error = exc
        else:
            status, body = payload[:1], payload[1:]
            if status == STATUS_OK:
                try:
                    value = self.codec.decode(body)
                    response_size = len(body)
                except CodecError as exc:
                    error = WireProtocolError("undecodable response payload: %s" % exc)
            elif status == STATUS_ERROR:
                try:
                    described = self.codec.decode(body)
                except CodecError as exc:
                    error = WireProtocolError("undecodable error payload: %s" % exc)
                else:
                    error = decode_exception(described)
                    if isinstance(error, OversizedFrameError) and self._writer is writer:
                        # The server drops a connection after refusing an
                        # oversized request; the next call must redial.
                        self._teardown(
                            ServerUnavailable(
                                "server %s closed the connection after an "
                                "oversized request" % (self.address,)
                            )
                        )
            else:
                # The stream is formally in sync, but a peer inventing
                # status bytes has lost our trust: drop the connection.
                error = WireProtocolError(
                    "unknown response status byte %r" % (status,)
                )
                self._teardown(
                    WireProtocolError(
                        "connection to %s poisoned by an unknown status byte"
                        % (self.address,)
                    )
                )
        latency = time.perf_counter() - started
        self.stats.record(
            method, len(request), response_size, latency, error=error is not None
        )
        return CallOutcome(
            value=value,
            error=error,
            latency=latency,
            request_bytes=len(request),
            response_bytes=response_size,
        )

    async def ainvoke(
        self,
        target: Any,
        method: str,
        args: Tuple[Any, ...] = (),
        kwargs: Optional[Dict[str, Any]] = None,
    ) -> Any:
        """Like :meth:`ainvoke_detailed` but raising the captured error."""
        outcome = await self.ainvoke_detailed(target, method, args, kwargs)
        if outcome.error is not None:
            raise outcome.error
        return outcome.value

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return "AsyncSocketTransport(%s, in_flight=%d)" % (
            self.address,
            len(self._pending),
        )


class AsyncClusterTransport(ClusterTransportBase):
    """Asyncio-native scatter-gather over one multiplexed connection per server.

    The async core (:meth:`ainvoke`, :meth:`ainvoke_all`,
    :meth:`ainvoke_quorum`) runs entirely on one event loop: a scatter is
    ``asyncio.gather`` over per-server coroutines, and a first-k quorum
    read admits replies **on arrival** — the round returns at the k-th
    successful reply's real completion, stragglers drain in the background
    and still land in their server's stats.

    Hedging (``hedge`` = an RTT quantile in ``(0, 1)``, or ``True`` for
    0.95) replaces the modeled static-ratio trigger of the simulated
    stack: each server's successful-call RTTs feed a
    :class:`~repro.rmi.stats.QuantileSketch`, and when the quorum round is
    still short of ``k`` replies after the slowest target's estimated
    ``hedge``-quantile RTT, the round co-issues the same call to every
    live non-target spare.  Before any RTT has been observed the deadline
    is unknown and hedging simply stays quiet.

    The fleet state (down set, fault budgets, clock, accounting) comes
    from :class:`~repro.rmi.cluster.ClusterTransportBase`; the sync call
    surface (``invoke``, ``invoke_all``, ``invoke_quorum``) submits the
    async core to the owned :class:`LoopThread` — which is how the
    ``ClusterClient``/engine/facade stack runs over this transport.  The
    makespan clock charges each round its measured wall-clock.
    """

    #: the asyncio transport is inherently concurrent (there is no
    #: sequential mode: one event loop multiplexes every call)
    concurrency = True

    def __init__(
        self,
        servers: Sequence[AddressLike],
        transports: Optional[Sequence[AsyncSocketTransport]] = None,
        codec: Optional[Codec] = None,
        timeout: float = DEFAULT_TIMEOUT,
        connect_retries: int = 2,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        round_overhead: float = 0.0,
        hedge: Any = False,
        hedge_window: int = 256,
        loop_thread: Optional[LoopThread] = None,
        name: str = "repro-aio",
    ):
        addresses = [ServerAddress.coerce(server) for server in servers]
        if transports is None:
            transports = [
                AsyncSocketTransport(
                    address,
                    codec=codec,
                    timeout=timeout,
                    connect_retries=connect_retries,
                    max_frame_bytes=max_frame_bytes,
                )
                for address in addresses
            ]
        elif len(transports) != len(addresses):
            raise ValueError(
                "got %d transports for %d servers" % (len(transports), len(addresses))
            )
        super().__init__(addresses, transports, round_overhead)
        # The loop thread is created lazily on the first *sync* call: an
        # async-native consumer (the gateway) runs the transport on its own
        # event loop and must not spawn a bridge thread it never uses.
        self._owns_loop = loop_thread is None
        self._loop_thread: Optional[LoopThread] = loop_thread
        self._loop_name = name
        self._hedge_quantile = self._coerce_hedge(hedge)
        #: per-server sketches of successful-call RTTs (hedging deadlines)
        self.rtt_sketches: List[QuantileSketch] = [
            QuantileSketch(hedge_window) for _ in self.servers
        ]
        self._background: Set["asyncio.Task"] = set()
        self._closed = False

    @staticmethod
    def _coerce_hedge(hedge: Any) -> Optional[float]:
        if hedge is False or hedge is None or hedge == 0:
            return None
        if hedge is True:
            return DEFAULT_HEDGE_QUANTILE
        quantile = float(hedge)
        if not 0.0 < quantile < 1.0:
            raise ValueError(
                "hedge must be an RTT quantile in (0, 1) (or True for %.2f), got %r"
                % (DEFAULT_HEDGE_QUANTILE, hedge)
            )
        return quantile

    def _retire(self, transport: AsyncSocketTransport) -> None:
        self._run(transport.aclose())

    # ------------------------------------------------------------------
    # Async core
    # ------------------------------------------------------------------

    async def _aoutcome(
        self,
        index: int,
        method: str,
        args: Tuple[Any, ...],
        kwargs: Optional[Dict[str, Any]],
    ) -> ClusterReply:
        """One call against one server, with failures captured, not raised."""
        refused = self._refused(index, method)
        if refused is not None:
            return refused
        try:
            outcome = await self.transports[index].ainvoke_detailed(
                None, method, args, kwargs
            )
        except Exception as exc:
            # Request-encoding failures (a caller-side bug) are captured so
            # a scattered round never aborts half-issued.
            return ClusterReply(index, error=exc)
        if outcome.ok:
            self.rtt_sketches[index].observe(outcome.latency)
        return ClusterReply(
            index, value=outcome.value, error=outcome.error, latency=outcome.latency
        )

    async def ainvoke(
        self,
        index: int,
        method: str,
        args: Tuple[Any, ...] = (),
        kwargs: Optional[Dict[str, Any]] = None,
        overlap: bool = False,
    ) -> Any:
        """One remote call against server ``index`` (errors raise, recorded)."""
        self._check_index(index)
        started = time.perf_counter()
        reply = await self._aoutcome(index, method, args, kwargs)
        self._advance_clock(time.perf_counter() - started, overlap)
        if reply.error is not None:
            raise reply.error
        return reply.value

    async def ainvoke_all(
        self,
        method: str,
        args: Tuple[Any, ...] = (),
        kwargs: Optional[Dict[str, Any]] = None,
        indices: Optional[Sequence[int]] = None,
        overlap: bool = False,
    ) -> List[ClusterReply]:
        """Scatter one call, gather every reply (failures captured)."""
        targets = self._targets(indices)
        started = time.perf_counter()
        replies = await asyncio.gather(
            *(self._aoutcome(index, method, args, kwargs) for index in targets)
        )
        self._advance_clock(time.perf_counter() - started, overlap)
        return list(replies)

    async def ainvoke_quorum(
        self,
        method: str,
        args: Tuple[Any, ...] = (),
        k: int = 1,
        kwargs: Optional[Dict[str, Any]] = None,
        indices: Optional[Sequence[int]] = None,
        overlap: bool = False,
    ) -> List[ClusterReply]:
        """Scatter to every target, return at the k-th *arrived* success.

        Replies are admitted in real completion order; outstanding calls
        keep draining in the background (their stats land when they
        complete — see :meth:`drain`).  With hedging enabled and at least
        one observed RTT, a round still short of ``k`` successes after the
        targets' estimated ``hedge``-quantile RTT co-issues the call to
        every live non-target spare; whichever replies arrive first are
        admitted, regardless of who was hedged.
        """
        if k < 1:
            raise ValueError("quorum size must be at least 1, got %d" % k)
        targets = self._targets(indices)
        if not targets:
            return []
        started = time.perf_counter()
        pending: Set["asyncio.Task"] = {
            asyncio.ensure_future(self._aoutcome(index, method, args, kwargs))
            for index in targets
        }
        admitted: List[ClusterReply] = []
        successes = 0
        hedge_deadline = self._hedge_deadline(targets)
        while successes < k and pending:
            wait_timeout: Optional[float] = None
            if hedge_deadline is not None:
                wait_timeout = max(0.0, hedge_deadline - (time.perf_counter() - started))
            done, pending = await asyncio.wait(
                pending, return_when=asyncio.FIRST_COMPLETED, timeout=wait_timeout
            )
            if not done:
                # The hedge timer fired before the quorum filled: co-issue
                # the call to every live spare, then keep waiting.
                hedge_deadline = None
                for spare in self._spare_targets(targets):
                    pending.add(
                        asyncio.ensure_future(
                            self._aoutcome(spare, method, args, kwargs)
                        )
                    )
                continue
            # Simultaneously-completed tasks carry no further arrival
            # information; order them by measured latency for stability.
            for task in sorted(done, key=lambda item: _arrival_key(item.result())):
                reply = task.result()
                admitted.append(reply)
                if reply.ok:
                    successes += 1
                    if successes >= k:
                        break
        if pending:
            with self._lock:
                self._background.update(pending)
            for task in pending:
                task.add_done_callback(self._background_done)
        self._advance_clock(time.perf_counter() - started, overlap)
        return admitted

    def _hedge_deadline(self, targets: Sequence[int]) -> Optional[float]:
        """Seconds after round start at which to co-issue spares (or None)."""
        if self._hedge_quantile is None:
            return None
        if not self._spare_targets(targets):
            return None  # nobody to hedge to
        estimates = [
            self.rtt_sketches[index].quantile(self._hedge_quantile)
            for index in targets
            if len(self.rtt_sketches[index])
        ]
        if not estimates:
            return None  # no observations yet: deadline unknowable
        return max(estimates)

    def _spare_targets(self, targets: Sequence[int]) -> List[int]:
        chosen = set(targets)
        with self._lock:
            down = set(self._down)
        return [
            index
            for index in range(len(self.servers))
            if index not in chosen and index not in down
        ]

    def _background_done(self, task: "asyncio.Task") -> None:
        with self._lock:
            self._background.discard(task)
        with suppress(asyncio.CancelledError):
            task.exception()  # outcome tasks never raise; silence warnings

    async def adrain(self) -> None:
        """Await every background-draining straggler (async side)."""
        while True:
            with self._lock:
                stragglers = list(self._background)
            if not stragglers:
                return
            await asyncio.gather(*stragglers, return_exceptions=True)

    async def aclose(self) -> None:
        """Drain stragglers and close every connection (async side)."""
        await self.adrain()
        for transport in self.transports:
            await transport.aclose()

    # ------------------------------------------------------------------
    # Sync surface (the ClusterTransport contract, bridged via LoopThread)
    # ------------------------------------------------------------------

    def _run(self, coroutine: Awaitable[T]) -> T:
        if self._loop_thread is None:
            self._loop_thread = LoopThread(self._loop_name)
        return self._loop_thread.run(coroutine)

    def invoke(
        self,
        index: int,
        method: str,
        args: Tuple[Any, ...] = (),
        kwargs: Optional[Dict[str, Any]] = None,
        overlap: bool = False,
    ) -> Any:
        """Sync :meth:`ainvoke` (errors raise, but are recorded)."""
        return self._run(self.ainvoke(index, method, args, kwargs, overlap))

    def invoke_all(
        self,
        method: str,
        args: Tuple[Any, ...] = (),
        kwargs: Optional[Dict[str, Any]] = None,
        indices: Optional[Sequence[int]] = None,
        overlap: bool = False,
    ) -> List[ClusterReply]:
        """Sync :meth:`ainvoke_all`."""
        return self._run(self.ainvoke_all(method, args, kwargs, indices, overlap))

    def invoke_quorum(
        self,
        method: str,
        args: Tuple[Any, ...] = (),
        k: int = 1,
        kwargs: Optional[Dict[str, Any]] = None,
        indices: Optional[Sequence[int]] = None,
        overlap: bool = False,
    ) -> List[ClusterReply]:
        """Sync :meth:`ainvoke_quorum` (admit-on-arrival first-k)."""
        return self._run(self.ainvoke_quorum(method, args, k, kwargs, indices, overlap))

    def drain(self) -> None:
        """Wait for every background-draining straggler to finish."""
        self._run(self.adrain())

    def close(self) -> None:
        """Drain, close every connection, and stop the owned loop (idempotent).

        Only for transports driven through the sync surface.  An
        async-native consumer (whose connections live on *its* event loop)
        must ``await aclose()`` on that loop instead — this method would
        touch those connections from the wrong loop.
        """
        if self._closed:
            return
        self._closed = True
        if self._loop_thread is None:
            # Never driven through the sync surface: any connections belong
            # to the async consumer's loop, and closing them is its job.
            return
        self._run(self.aclose())
        if self._owns_loop:
            self._loop_thread.close()
