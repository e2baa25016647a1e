"""Client/server remote-invocation substrate (the prototype's Java RMI stand-in).

The prototype splits the filter across a thin client and a big server that
talk over Java RMI (section 5.2).  Rebuilding a JVM RMI stack is neither
possible offline nor necessary: what the experiments depend on is the *call
boundary* — every filter operation is one remote round trip whose arguments
and results must be serialisable, and whose count/byte volume determine the
communication cost of a query.

This package provides that boundary in-process:

* :class:`~repro.rmi.codec.Codec` — a small, self-contained binary
  serialisation format for the value types the filters exchange,
* :class:`~repro.rmi.transport.SimulatedTransport` — a channel that counts
  calls and bytes and can model per-call latency,
* :class:`~repro.rmi.cluster.ClusterTransport` — the scatter-gather
  layer over n such channels: ``invoke_all``, first-k ``invoke_quorum``
  reads in modeled arrival order, and a makespan clock that models the
  wall-clock of each round,
* :class:`~repro.rmi.proxy.RemoteProxy` / :class:`~repro.rmi.proxy.Registry`
  — RMI-style stubs: the client holds a proxy, every method call is encoded,
  shipped through the transport, executed on the server object and the result
  shipped back,
* :class:`~repro.rmi.stats.CallStats` — the per-session accounting the
  benchmark harness reads out.

And the same boundary over a *real* wire (``transport="asyncio"`` on the
facade): :class:`~repro.rmi.aio.AsyncSocketTransport` multiplexes any
number of pipelined, id-tagged calls over **one** TCP or Unix connection
per server — same codec, measured latency and bytes — against a
:class:`~repro.rmi.server.SocketServer` daemon;
:class:`~repro.rmi.aio.AsyncClusterTransport` scatter-gathers them on a
single event loop, admitting first-k quorum replies on real arrival and
hedging stragglers by observed RTT percentiles.  Both cluster transports
share their fleet state through
:class:`~repro.rmi.cluster.ClusterTransportBase`.
:class:`~repro.rmi.server.ServerProcess` and
:class:`~repro.rmi.server.SocketCluster` run one server (or a whole
deployment) as child processes with health-check handshake, graceful
shutdown and kill-based fault injection, and
:class:`~repro.rmi.gateway.Gateway` serves many concurrent client sessions
over one shared fleet (the ``repro-gateway`` daemon;
:class:`~repro.rmi.gateway.GatewayProcess` spawns it,
:class:`~repro.rmi.gateway.GatewayEndpoint` is the client-side proxy).
"""

from repro.rmi.aio import (
    AsyncClusterTransport,
    AsyncSocketTransport,
    LoopThread,
    WeightedFairScheduler,
)
from repro.rmi.cache import GatewayCache

from repro.rmi.cluster import (
    ClusterReply,
    ClusterTransport,
    ClusterTransportBase,
    InjectedFaultError,
    ServerDownError,
)
from repro.rmi.codec import Codec, CodecError
from repro.rmi.proxy import Registry, RemoteProxy
from repro.rmi.server import ServerProcess, SocketCluster, SocketServer
from repro.rmi.socket import (
    OversizedFrameError,
    RemoteCallError,
    ServerAddress,
    ServerUnavailable,
    SocketTransportError,
    UnknownRemoteMethodError,
    WireProtocolError,
)
from repro.rmi.stats import CacheStats, CallStats
from repro.rmi.transport import CallOutcome, SimulatedTransport

#: gateway names resolved lazily (PEP 562): repro.rmi.gateway sits on top
#: of repro.filters.cluster, which itself imports this package — an eager
#: import here would be circular.
_GATEWAY_EXPORTS = ("AsyncClusterClient", "Gateway", "GatewayEndpoint", "GatewayProcess")


def __getattr__(name: str):
    if name in _GATEWAY_EXPORTS:
        from repro.rmi import gateway

        return getattr(gateway, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))

__all__ = [
    "Codec",
    "CodecError",
    "SimulatedTransport",
    "CallOutcome",
    "ClusterTransport",
    "ClusterTransportBase",
    "ClusterReply",
    "ServerDownError",
    "InjectedFaultError",
    "RemoteProxy",
    "Registry",
    "CallStats",
    "ServerAddress",
    "SocketTransportError",
    "ServerUnavailable",
    "WireProtocolError",
    "OversizedFrameError",
    "RemoteCallError",
    "UnknownRemoteMethodError",
    "SocketServer",
    "ServerProcess",
    "SocketCluster",
    "CacheStats",
    "GatewayCache",
    "WeightedFairScheduler",
    "LoopThread",
    "AsyncSocketTransport",
    "AsyncClusterTransport",
    "AsyncClusterClient",
    "Gateway",
    "GatewayEndpoint",
    "GatewayProcess",
]
