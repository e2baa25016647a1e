"""The gateway: many concurrent client sessions over one shared server fleet.

A :class:`Gateway` is a socket daemon (built on the asyncio
:class:`~repro.rmi.server.SocketServer`) whose target is not a share table
but a whole cluster: it holds **one** multiplexed
:class:`~repro.rmi.aio.AsyncClusterTransport` connection per share server
and serves any number of concurrent client connections over it — all on
the same single event loop, from client socket frames to upstream quorum
admission.

Each client connection gets its own :class:`AsyncClusterClient` session —
the async mirror of :class:`~repro.filters.cluster.ClusterClient` — so
per-session state (``open_queue``/``next_node`` cursors, the sticky
structural primary, prefetch credits) is isolated between clients, while
the upstream connections, their pipelined frames, and the per-server call
statistics are shared by everyone.  Sessions expose exactly the
single-server surface the remote :class:`~repro.filters.client.ClientFilter`
expects; share reads come back *combined* (the gateway holds the sharing
scheme and recombines quorum replies), so a remote client drives the
gateway like a lone plaintext-protocol server.

Lifecycle: a client disconnect (clean or mid-query) releases its session's
server-side queues; a ``__shutdown__`` request **drains in-flight calls of
every session** before the gateway answers it and stops — no client's
half-finished scatter is cut off by another client's shutdown.

:class:`GatewayProcess` runs the gateway as a child process (the
``repro-gateway`` entry point), and :class:`GatewayEndpoint` is the tiny
client-side proxy that turns the remote gateway into the in-process
endpoint object a ``ClientFilter`` consumes.
"""

from __future__ import annotations

import asyncio
import os
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.filters.cluster import ClusterClient, ClusterUnavailableError
from repro.rmi.aio import AsyncClusterTransport, WeightedFairScheduler
from repro.rmi.cache import CACHEABLE_METHODS, GatewayCache
from repro.rmi.codec import Codec, CodecError
from repro.rmi.methods import (
    GATEWAY_EXPORTED_METHODS,
    QUEUE_METHODS,
    QUEUE_OPEN_METHODS,
    STRUCTURAL_READ_METHODS,
    request_cost as _request_cost,
)
from repro.rmi.server import PROTOCOL_VERSION, ServerProcess, SocketServer
from repro.rmi.socket import (
    BUMP_EPOCH_METHOD,
    DEFAULT_MAX_FRAME_BYTES,
    PING_METHOD,
    SHUTDOWN_METHOD,
    STATS_METHOD,
    STATUS_OK,
    AddressLike,
    ServerAddress,
    UnknownRemoteMethodError,
    WireProtocolError,
)
from repro.secretshare.scheme import SharingScheme

# The method sets below come from the declarative spec table in
# :mod:`repro.rmi.methods` (one row per method: kind, cacheable,
# mutating, cost); ``EXPORTED_METHODS`` keeps its historical name
# as the gateway's public session surface.  Everything off the surface
# is answered with a typed UnknownRemoteMethodError, never executed —
# including the write protocol, which goes through the
# :class:`~repro.rmi.write.WriteCoordinator` straight to the share
# servers, never through a shared read gateway.
EXPORTED_METHODS = GATEWAY_EXPORTED_METHODS

_QUEUE_METHODS = QUEUE_METHODS

_STRUCTURAL_METHODS = STRUCTURAL_READ_METHODS

_QUEUE_OPEN_METHODS = QUEUE_OPEN_METHODS


class AsyncClusterClient(ClusterClient):
    """One gateway session: ``ClusterClient`` semantics, awaited upstream.

    Inherits every pure-compute piece of :class:`ClusterClient` — scheme
    combination, share regeneration, consistency verification, queue-route
    bookkeeping — and mirrors only the transport-crossing paths as
    coroutines over :class:`~repro.rmi.aio.AsyncClusterTransport`, so many
    sessions interleave on one event loop instead of blocking a thread
    each.

    Client-side *modeled* hedging is permanently off (there are no modeled
    latencies to compare); the transport's RTT-percentile hedging covers
    the same ground with measured data.  The shared transport is owned by
    the gateway: :meth:`close` here is a deliberate no-op.
    """

    def __init__(
        self,
        transport: AsyncClusterTransport,
        scheme: SharingScheme,
        read_quorum: Optional[int] = None,
        verify_shares: bool = True,
        prefetch: int = 0,
    ):
        super().__init__(
            transport,
            scheme,
            read_quorum=read_quorum,
            verify_shares=verify_shares,
            hedge=False,
            prefetch=prefetch,
        )

    # ------------------------------------------------------------------
    # Async mirrors of the transport-crossing paths
    # ------------------------------------------------------------------

    async def _acall_any(self, method: str, args: Tuple[Any, ...]) -> Any:
        """Async mirror of ``_call_any``: one live server, fail-over on loss."""
        last_error: Optional[BaseException] = None
        overlap = self._take_overlap()
        for index in self._server_order():
            try:
                result = await self.transport.ainvoke(index, method, args, overlap=overlap)
            except ConnectionError as exc:
                last_error = exc
                continue
            self._primary = index
            return result
        raise ClusterUnavailableError(
            "no live server could answer %s: %s" % (method, last_error)
        )

    async def _aopen_queue(self, method: str, pres: List[int]) -> int:
        """Async mirror of ``_open_queue_on_primary``."""
        last_error: Optional[BaseException] = None
        overlap = self._take_overlap()
        for index in self._server_order():
            try:
                remote_id = await self.transport.ainvoke(
                    index, method, (list(pres),), overlap=overlap
                )
            except ConnectionError as exc:
                last_error = exc
                continue
            self._primary = index
            local_id = self._next_local_queue_id
            self._next_local_queue_id += 1
            self._queue_routes[local_id] = (index, remote_id)
            return local_id
        raise ClusterUnavailableError(
            "no live server could answer %s: %s" % (method, last_error)
        )

    async def _agather(
        self, method: str, args: Tuple[Any, ...]
    ) -> Tuple[Dict[int, Any], Dict[int, BaseException]]:
        """Async mirror of ``_gather`` (transport-level hedging instead of
        the modeled client-side co-issue; same quorum/escalation logic)."""
        replies: Dict[int, Any] = {}
        failures: Dict[int, BaseException] = {}

        def absorb(batch) -> None:
            for reply in batch:
                if reply.ok:
                    replies[reply.server] = reply.value
                elif isinstance(reply.error, ConnectionError):
                    failures[reply.server] = reply.error
                else:
                    raise reply.error

        order = self._server_order(start=0)
        targets = order[: self._read_quorum]
        spares = order[self._read_quorum :]
        quorum = len(targets) if self._verify else min(self.scheme.threshold, len(targets))
        absorb(await self.transport.ainvoke_quorum(method, args, k=quorum, indices=targets))
        if not self.scheme.sufficient(replies):
            remaining = [
                index for index in spares if index not in replies and index not in failures
            ]
            if remaining:
                absorb(await self.transport.ainvoke_all(method, args, indices=remaining))
        self._overlap_credits = self._prefetch
        return replies, failures

    async def aevaluate(self, pre: int, point: int) -> int:
        """Async mirror of :meth:`ClusterClient.evaluate`."""
        replies, failures = await self._agather("evaluate", (pre, point))
        replies = self._complete_with_regenerated(
            replies,
            failures,
            lambda index: self.ring.evaluate(self.scheme.regenerate_share(pre, index), point),
            "evaluate",
        )
        vectors = {index: (value,) for index, value in replies.items()}
        self._verify_vectors(vectors, "evaluate")
        return self.scheme.combine_vectors(vectors)[0]

    async def aevaluate_batch(self, pres: List[int], point: int) -> List[int]:
        """Async mirror of :meth:`ClusterClient.evaluate_batch`."""
        pres = list(pres)
        if not pres:
            return []
        replies, failures = await self._agather("evaluate_batch", (pres, point))

        def regenerate(index: int) -> List[int]:
            shares = [self.scheme.regenerate_share(pre, index) for pre in pres]
            return self.ring.evaluate_many(shares, point)

        replies = self._complete_with_regenerated(replies, failures, regenerate, "evaluate_batch")
        self._verify_vectors(replies, "evaluate_batch")
        return self.scheme.combine_values_many(replies)

    async def afetch_share(self, pre: int) -> List[int]:
        """Async mirror of :meth:`ClusterClient.fetch_share`."""
        replies, failures = await self._agather("fetch_share", (pre,))
        replies = self._complete_with_regenerated(
            replies,
            failures,
            lambda index: list(self.scheme.regenerate_share(pre, index).coeffs),
            "fetch_share",
        )
        self._verify_vectors(replies, "fetch_share")
        return self.scheme.combine_vectors(replies)

    async def afetch_shares_batch(self, pres: List[int]) -> List[List[int]]:
        """Async mirror of :meth:`ClusterClient.fetch_shares_batch`."""
        pres = list(pres)
        if not pres:
            return []
        replies, failures = await self._agather("fetch_shares_batch", (pres,))

        def regenerate(index: int) -> List[List[int]]:
            return [list(self.scheme.regenerate_share(pre, index).coeffs) for pre in pres]

        replies = self._complete_with_regenerated(
            replies, failures, regenerate, "fetch_shares_batch"
        )
        flat = {
            index: [value for vector in vectors for value in vector]
            for index, vectors in replies.items()
        }
        self._verify_vectors(flat, "fetch_shares_batch")
        combined = self.scheme.combine_vectors(flat)
        length = self.ring.length
        return [combined[start : start + length] for start in range(0, len(combined), length)]

    # ------------------------------------------------------------------
    # Dispatch and lifecycle
    # ------------------------------------------------------------------

    async def adispatch(self, method: str, args: Sequence[Any], kwargs: Dict[str, Any]) -> Any:
        """Route one wire request to the matching session coroutine."""
        if kwargs:
            raise TypeError(
                "gateway calls take positional arguments only, got keywords %s"
                % sorted(kwargs)
            )
        args = tuple(args)
        if method in _STRUCTURAL_METHODS:
            return await self._acall_any(method, args)
        if method in _QUEUE_OPEN_METHODS:
            (pres,) = args
            return await self._aopen_queue(method, pres)
        if method == "next_node":
            (queue_id,) = args
            server, remote_id = self._queue_route(queue_id)
            return await self.transport.ainvoke(server, "next_node", (remote_id,))
        if method == "queue_size":
            (queue_id,) = args
            server, remote_id = self._queue_route(queue_id)
            return await self.transport.ainvoke(server, "queue_size", (remote_id,))
        if method == "close_queue":
            (queue_id,) = args
            server, remote_id = self._queue_routes.pop(queue_id, (None, None))
            if server is None:
                return False
            return await self.transport.ainvoke(server, "close_queue", (remote_id,))
        if method == "evaluate":
            pre, point = args
            return await self.aevaluate(pre, point)
        if method == "evaluate_batch":
            pres, point = args
            return await self.aevaluate_batch(pres, point)
        if method == "fetch_share":
            (pre,) = args
            return await self.afetch_share(pre)
        if method == "fetch_shares_batch":
            (pres,) = args
            return await self.afetch_shares_batch(pres)
        raise UnknownRemoteMethodError("gateway exports no method %r" % method)

    async def arelease(self) -> None:
        """Release per-session server-side resources (open queue cursors).

        Called when the client connection ends — cleanly or mid-query — so
        abandoned cursors never pile up on the share servers.  A server
        that is gone (or already dropped the queue) is not an error here.
        """
        routes, self._queue_routes = self._queue_routes, {}
        for server, remote_id in routes.values():
            try:
                await self.transport.ainvoke(server, "close_queue", (remote_id,))
            except (ConnectionError, LookupError, RuntimeError):
                pass

    def close(self) -> None:
        """A session must NOT close the shared transport: deliberate no-op."""


class Gateway(SocketServer):
    """Serves many concurrent client sessions over one shared fleet.

    One event loop runs everything: the client-facing accept loop, every
    session's pipelined dispatches, and the
    multiplexed upstream connections of the shared
    :class:`~repro.rmi.aio.AsyncClusterTransport`.  The transport must not
    have a sync loop thread of its own — the gateway *is* its event loop.
    """

    def __init__(
        self,
        cluster: AsyncClusterTransport,
        scheme: SharingScheme,
        read_quorum: Optional[int] = None,
        verify_shares: bool = True,
        host: str = "127.0.0.1",
        port: int = 0,
        unix_path: Optional[str] = None,
        codec: Optional[Codec] = None,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        name: str = "repro-gateway",
        cache_bytes: int = 0,
        fair: bool = False,
        fair_session_cap: int = 8,
        fair_max_inflight: Optional[int] = None,
    ):
        super().__init__(
            target=cluster,
            host=host,
            port=port,
            unix_path=unix_path,
            codec=codec,
            max_frame_bytes=max_frame_bytes,
            name=name,
        )
        self.cluster = cluster
        self.scheme = scheme
        self.read_quorum = read_quorum
        self.verify_shares = verify_shares
        #: shared result cache over the read surface (None = caching off).
        #: A hit answers from the gateway without touching the fleet; a
        #: miss is single-flight, so N sessions asking the same question
        #: concurrently cost one upstream scatter.
        self.cache: Optional[GatewayCache] = (
            GatewayCache(cache_bytes) if cache_bytes else None
        )
        #: weighted fair queue over *upstream-bound* work (None = FIFO).
        #: Cache hits bypass admission entirely — they cost the fleet
        #: nothing — so a hog only competes where it actually hogs.
        self.scheduler: Optional[WeightedFairScheduler] = (
            WeightedFairScheduler(
                session_cap=fair_session_cap, max_inflight=fair_max_inflight
            )
            if fair
            else None
        )
        #: live sessions (loop-confined; for introspection and tests)
        self.sessions: Set[AsyncClusterClient] = set()
        self._inflight = 0
        self._drain_waiters: List["asyncio.Future"] = []

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------

    def _make_session(self) -> AsyncClusterClient:
        session = AsyncClusterClient(
            self.cluster,
            self.scheme,
            read_quorum=self.read_quorum,
            verify_shares=self.verify_shares,
        )
        self.sessions.add(session)
        return session

    async def _release_session(self, session: Any) -> None:
        if session is None:  # pragma: no cover - defensive
            return
        self.sessions.discard(session)
        if self.scheduler is not None:
            # Return the departed session's admission slots and wake any
            # queued work that was waiting behind them.
            self.scheduler.forget(session)
        await session.arelease()

    async def _on_loop_shutdown(self) -> None:
        # Every connection is gone; release the upstream fleet connections
        # on the loop they live on, before it closes.
        await self.cluster.aclose()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    async def _respond(self, frame: bytes, session: Any = None) -> Tuple[bytes, bool]:
        """Decode, dispatch against the session, encode — all awaited.

        Unlike the base server's synchronous ``_handle``, a dispatch here
        crosses the upstream wire, so it awaits — which is exactly what
        lets other sessions' requests interleave on the loop meanwhile.
        """
        if self.delay:
            await asyncio.sleep(self.delay)
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
            # Graceful drain: every other session's in-flight dispatch
            # completes (and is answered) before the gateway goes down.
            await self._drain_inflight()
            return STATUS_OK + self.codec.encode(True), True
        if method == STATS_METHOD:
            return STATUS_OK + self.codec.encode(self.stats_snapshot()), False
        if method == BUMP_EPOCH_METHOD:
            epoch = self.cache.bump_epoch() if self.cache is not None else 0
            return STATUS_OK + self.codec.encode(epoch), False
        if method.startswith("_") or method not in EXPORTED_METHODS:
            return (
                self._error_payload(
                    UnknownRemoteMethodError("gateway exports no method %r" % method)
                ),
                False,
            )
        if session is None:  # pragma: no cover - defensive
            return self._error_payload(RuntimeError("connection has no session")), False
        self._inflight += 1
        try:
            value = await self._dispatch_session(session, method, args, kwargs)
        except Exception as exc:
            return self._error_payload(exc), False
        finally:
            self._inflight -= 1
            if self._inflight == 0 and self._drain_waiters:
                waiters, self._drain_waiters = self._drain_waiters, []
                for waiter in waiters:
                    if not waiter.done():
                        waiter.set_result(None)
        try:
            return STATUS_OK + self.codec.encode(value), False
        except CodecError as exc:
            return self._error_payload(exc), False

    async def _dispatch_session(
        self, session: Any, method: str, args: Sequence[Any], kwargs: Dict[str, Any]
    ) -> Any:
        """One session request through the cache (if on), then admission.

        Only the read surface with positional args routes through the
        cache; queue-cursor methods (session-private mutable state) and
        anything uncacheable go straight to fair admission.  On a cache
        hit or coalesce nothing is admitted — no upstream work happens.
        """
        if self.cache is not None and not kwargs and method in CACHEABLE_METHODS:
            return await self.cache.aget_or_compute(
                method,
                args,
                lambda: self._admit_and_dispatch(session, method, args, kwargs),
            )
        return await self._admit_and_dispatch(session, method, args, kwargs)

    async def _admit_and_dispatch(
        self, session: Any, method: str, args: Sequence[Any], kwargs: Dict[str, Any]
    ) -> Any:
        """Run one upstream-bound dispatch under fair admission (if on)."""
        if self.scheduler is None:
            return await session.adispatch(method, args, kwargs)
        await self.scheduler.acquire(session, cost=_request_cost(method, args))
        try:
            return await session.adispatch(method, args, kwargs)
        finally:
            self.scheduler.release(session)

    def stats_snapshot(self) -> Dict[str, Any]:
        """One codec-serialisable view of gateway health (``__stats__``).

        Reads the upstream transports' :class:`~repro.rmi.stats.CallStats`
        directly — deliberately NOT via ``aggregate_stats()``/``drain()``,
        which are sync-bridge paths that must never run on the gateway's
        own loop.
        """
        server_snapshots = [
            transport.stats.snapshot() for transport in self.cluster.transports
        ]
        live = set(self.cluster.live_servers())
        return {
            "server": self.name,
            "sessions": len(self.sessions),
            "cache": self.cache.snapshot() if self.cache is not None else None,
            "fairness": self.scheduler.snapshot() if self.scheduler is not None else None,
            "servers": server_snapshots,
            # Fleet-health rollup (supervisor quarantine/heal activity):
            # per-server counters summed, plus which indices are currently
            # routed around — one line for operators and the chaos bench.
            "health": {
                "quarantines": sum(row["quarantines"] for row in server_snapshots),
                "heals": sum(row["heals"] for row in server_snapshots),
                "down": [
                    index
                    for index in range(self.cluster.num_servers)
                    if index not in live
                ],
            },
        }

    async def _drain_inflight(self) -> None:
        while self._inflight:
            waiter: "asyncio.Future" = asyncio.get_event_loop().create_future()
            self._drain_waiters.append(waiter)
            await waiter

    def _identity(self) -> Dict[str, Any]:
        return {
            "server": self.name,
            "protocol": PROTOCOL_VERSION,
            "pid": os.getpid(),
            "target": "AsyncClusterClient",
            "servers": self.cluster.num_servers,
        }

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        where = str(self._address) if self._address is not None else "unbound"
        return "Gateway(servers=%d, sessions=%d, %s)" % (
            self.cluster.num_servers,
            len(self.sessions),
            where,
        )


class GatewayEndpoint:
    """Client-side proxy: the remote gateway as an in-process endpoint.

    Every public attribute access yields a callable that performs one
    remote call, so the object drops into any slot expecting a single
    ``ServerFilter``-surface endpoint — in particular the first argument
    of :class:`~repro.filters.client.ClientFilter`.  The calls travel over
    a one-server :class:`~repro.rmi.aio.AsyncClusterTransport` (its sync
    bridge); its one connection is this endpoint's gateway session.
    ``kwargs`` configure that transport (``timeout``, ``connect_retries``,
    …).
    """

    def __init__(self, address: AddressLike, **kwargs: Any):
        self.transport = AsyncClusterTransport([address], **kwargs)

    def _invoke(self, method: str, args: Sequence[Any] = (), kwargs: Any = None) -> Any:
        return self.transport.invoke(0, method, tuple(args), kwargs)

    def __getattr__(self, name: str) -> Any:
        if name.startswith("_"):
            raise AttributeError(name)
        invoke = self._invoke

        def remote_call(*args: Any, **kwargs: Any) -> Any:
            return invoke(name, args, kwargs)

        remote_call.__name__ = name
        return remote_call

    def ping(self) -> Dict[str, Any]:
        """The gateway's ``__ping__`` identity (health check)."""
        return self._invoke(PING_METHOD)

    def stats(self) -> Dict[str, Any]:
        """The gateway's ``__stats__`` snapshot: sessions, cache counters,
        fairness queue state, per-server upstream call statistics."""
        return self._invoke(STATS_METHOD)

    def bump_epoch(self) -> int:
        """Invalidate the gateway's result cache wholesale (new epoch).

        The over-the-wire handle a writer calls after mutating rows;
        returns the new epoch (0 when the gateway runs without a cache).
        """
        return self._invoke(BUMP_EPOCH_METHOD)

    def close(self) -> None:
        """Close the session's connection and its loop thread."""
        self.transport.close()

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return "GatewayEndpoint(%s)" % (self.transport.servers[0],)


class GatewayProcess(ServerProcess):
    """The gateway as a child process (the ``repro-gateway`` daemon).

    Reuses the :class:`~repro.rmi.server.ServerProcess` machinery — READY
    line handshake, ``__ping__`` health check, parent-watch, graceful
    ``__shutdown__`` with escalation, SIGKILL fault injection — and swaps
    only the spawned command: ``python -m repro.cli gateway`` pointed at an
    already-running server fleet and the deployment's seed file.
    """

    def __init__(
        self,
        servers: Sequence[AddressLike],
        seed_path: str,
        p: int,
        e: int = 1,
        sharing: str = "additive",
        threshold: Optional[int] = None,
        read_quorum: Optional[int] = None,
        verify_shares: bool = True,
        hedge: float = 0.0,
        host: str = "127.0.0.1",
        python: Optional[str] = None,
        startup_timeout: float = 30.0,
        name: Optional[str] = None,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        cache_bytes: int = 0,
        fair: bool = False,
        fair_cap: int = 8,
    ):
        super().__init__(
            database_path=seed_path,
            p=p,
            e=e,
            host=host,
            python=python,
            startup_timeout=startup_timeout,
            name=name or "repro-gateway",
            max_frame_bytes=max_frame_bytes,
        )
        self.servers = [ServerAddress.coerce(server) for server in servers]
        for address in self.servers:
            if address.is_unix:
                raise ValueError(
                    "the gateway daemon reaches its fleet over TCP; got unix "
                    "address %s" % address
                )
        self.seed_path = seed_path
        self.sharing = sharing
        self.threshold = threshold
        self.read_quorum = read_quorum
        self.verify_shares = verify_shares
        self.hedge = hedge
        self.cache_bytes = cache_bytes
        self.fair = fair
        self.fair_cap = fair_cap

    def _command(self) -> List[str]:
        command = [
            self.python, "-m", "repro.cli", "gateway",
            "--seed", self.seed_path,
            "--p", str(self.p), "--e", str(self.e),
            "--sharing", self.sharing,
            "--host", self.host, "--port", "0",
            "--max-frame-bytes", str(self.max_frame_bytes),
            "--parent-watch",
        ]
        for address in self.servers:
            command.extend(["--server", "%s:%d" % (address.host, address.port)])
        if self.threshold is not None:
            command.extend(["--threshold", str(self.threshold)])
        if self.read_quorum is not None:
            command.extend(["--read-quorum", str(self.read_quorum)])
        if not self.verify_shares:
            command.append("--no-verify")
        if self.hedge:
            command.extend(["--hedge", repr(self.hedge)])
        if self.cache_bytes:
            command.extend(["--cache-bytes", str(self.cache_bytes)])
        if self.fair:
            command.extend(["--fair", "--fair-cap", str(self.fair_cap)])
        return command

    def endpoint(self, **kwargs: Any) -> GatewayEndpoint:
        """A fresh client-side proxy session against this gateway."""
        if self.address is None:
            raise RuntimeError("gateway process %s is not running" % self.name)
        return GatewayEndpoint(self.address, **kwargs)
