"""Scatter-gather over a cluster of share servers.

:class:`ClusterTransportBase` holds the fleet state both cluster
transports share; the subclasses differ only in how one call executes:

* :class:`ClusterTransport` — one
  :class:`~repro.rmi.transport.SimulatedTransport` per in-process server,
  each with its own :class:`~repro.rmi.stats.CallStats`, codec round-trip
  and latency model; every call runs in the caller's thread,
* :class:`~repro.rmi.aio.AsyncClusterTransport` — one multiplexed socket
  connection per server process, driven by one event loop.

The shared surface is what the :class:`~repro.filters.cluster.ClusterClient`
needs:

* :meth:`~ClusterTransport.invoke` — one call against one named server,
* :meth:`~ClusterTransport.invoke_all` — scatter the same call to every (or
  a chosen subset of) server(s) and gather per-server :class:`ClusterReply`
  values *without* aborting on individual failures — the caller decides
  whether the surviving subset suffices,
* :meth:`~ClusterTransport.invoke_quorum` — the first-k read path: the
  replies admitted up to the ``k``-th success,
* fault injection: :meth:`~ClusterTransportBase.set_down` (a server that
  stays unreachable) and :meth:`~ClusterTransportBase.inject_faults` (the
  next *k* calls fail), both recorded as errors in the affected server's
  stats so flaky-run traffic is never under-counted,
* the supervisor hooks :meth:`~ClusterTransportBase.mark_quarantined` and
  :meth:`~ClusterTransportBase.mark_healed`,
* :meth:`~ClusterTransportBase.aggregate_stats` — the merged cluster-wide
  :class:`~repro.rmi.stats.CallStats` via :meth:`CallStats.merge`.

Modeled arrival order
---------------------

Simulated latencies are modeled (accumulated in the stats), never slept, so
"which reply arrives first" is a function of the configuration alone:
replies are admitted in **modeled arrival order**, sorted by ``(latency,
server index)``.  :class:`ClusterTransport` issues every call of a round,
then admits the sorted prefix up to the ``k``-th success; the admitted
sequence — and with it every downstream reconstruction, verification and
counter — is deterministic.  Deterministic per-server latency jitter (a
seeded multiplier on the configured latencies) models heterogeneous
hardware.

The makespan clock
------------------

``simulated_latency`` accumulates per-server busy time; the *makespan*
clock models the client's wall-clock instead.  ``concurrency`` chooses how
:class:`ClusterTransport` charges a round to it:

* the **sum** of the contacted servers' call latencies with
  ``concurrency=False`` — servers answer one after the other,
* the **maximum** (for a full gather) or the **k-th modeled arrival** (for
  a first-k quorum read) with ``concurrency=True`` — the servers answer in
  parallel,

plus a fixed ``round_overhead``.  Replies and counters are identical in both
modes; only the clock differs.  A round flagged ``overlap=True`` starts at
the previous round's start time instead of the current clock — the prefetch
pipeline uses this to model structural work hidden behind in-flight share
fetches.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.prg.generator import SplitMix64
from repro.rmi.codec import Codec
from repro.rmi.stats import CallStats
from repro.rmi.transport import SimulatedTransport


class ServerDownError(ConnectionError):
    """Raised when invoking a server marked down (unreachable)."""


class InjectedFaultError(ConnectionError):
    """Raised by the transport for an injected transient failure."""


@dataclass(frozen=True)
class ClusterReply:
    """One server's answer to a scattered call."""

    #: index of the answering server
    server: int
    #: decoded return value (``None`` when the call failed)
    value: Any = None
    #: the exception the call raised, ``None`` on success
    error: Optional[BaseException] = None
    #: latency of this call on its server (modeled or measured)
    latency: float = 0.0

    @property
    def ok(self) -> bool:
        """Whether the call succeeded."""
        return self.error is None


def _arrival_key(reply: ClusterReply) -> Tuple[float, int]:
    """Arrival order: by latency, server index breaking ties."""
    return (reply.latency, reply.server)


def _admit(arrivals: Sequence[ClusterReply], k: int) -> List[ClusterReply]:
    """The prefix of ``arrivals`` up to (and including) the k-th success."""
    admitted: List[ClusterReply] = []
    successes = 0
    for reply in arrivals:
        admitted.append(reply)
        if reply.ok:
            successes += 1
            if successes >= k:
                break
    return admitted


class ClusterTransportBase:
    """The fleet state of a cluster transport: everything but the calls.

    Holds the per-server transports (each with its own
    :class:`~repro.rmi.stats.CallStats`), the down set and fault budgets,
    the makespan clock and the accounting readers.  Subclasses execute the
    calls and may leave stragglers running; :meth:`drain` waits for them,
    and every accounting reader drains first, so counters are settled
    whenever they are read.

    One lock covers the fault state (the read-then-decrement of a budget
    must be atomic), the clock and the subclasses' straggler bookkeeping:
    the asyncio transport mutates them on its loop thread while sync
    callers read them from their own.
    """

    def __init__(
        self,
        servers: Sequence[Any],
        transports: Sequence[Any],
        round_overhead: float = 0.0,
    ):
        if not servers:
            raise ValueError("a cluster needs at least one server")
        if round_overhead < 0:
            raise ValueError("round_overhead must be non-negative")
        self.servers = list(servers)
        self.transports: List[Any] = list(transports)
        self.round_overhead = round_overhead
        self._lock = threading.Lock()
        self._down: set = set()
        self._fault_budget: Dict[int, int] = {}
        self._clock = 0.0
        self._round_start = 0.0

    # ------------------------------------------------------------------
    # Topology and fault control
    # ------------------------------------------------------------------

    @property
    def num_servers(self) -> int:
        """Number of servers behind this transport."""
        return len(self.servers)

    def _check_index(self, index: int) -> None:
        if not 0 <= index < len(self.servers):
            raise IndexError("server index %d out of range for %d servers" % (index, len(self.servers)))

    def _targets(self, indices: Optional[Sequence[int]]) -> List[int]:
        """The checked target list of one scatter (``None`` = every server)."""
        targets = list(range(len(self.servers)) if indices is None else indices)
        for index in targets:
            self._check_index(index)
        return targets

    def set_down(self, index: int, down: bool = True) -> None:
        """Mark a server unreachable (or bring it back with ``down=False``).

        In-flight stragglers are drained first, so the flag only affects
        calls issued *after* this point — never a race with a first-k round
        that is still settling.
        """
        self._check_index(index)
        self.drain()
        with self._lock:
            if down:
                self._down.add(index)
            else:
                self._down.discard(index)

    def is_down(self, index: int) -> bool:
        """Whether a server is currently marked unreachable."""
        self._check_index(index)
        with self._lock:
            return index in self._down

    def live_servers(self) -> List[int]:
        """Indices of servers not marked down."""
        with self._lock:
            down = set(self._down)
        return [index for index in range(len(self.servers)) if index not in down]

    def mark_quarantined(self, index: int) -> None:
        """Route reads around a server for health reasons (supervisor path).

        Same routing effect as :meth:`set_down`, but the event is accounted:
        the server's :class:`~repro.rmi.stats.CallStats` quarantine counter
        ticks, so ``aggregate_stats()`` and the gateway ``__stats__`` wire
        method expose how often the fleet degraded.
        """
        self.set_down(index, True)
        self.transports[index].stats.count_quarantine()

    def mark_healed(
        self,
        index: int,
        transport: Optional[Any] = None,
        server: Optional[Any] = None,
    ) -> None:
        """Bring a healed server back into rotation (supervisor path).

        Optionally swaps in a replacement per-server ``transport`` (socket
        fleets: the new subprocess's connection) and/or ``server`` target
        (simulated fleets: the rebuilt :class:`ServerFilter`; socket fleets:
        the new address).  A swapped-in transport inherits the old one's
        accumulated counters so the per-server trace stays continuous
        across the generation change; the old transport is retired.
        Finally the down flag clears and the heal counter ticks.
        """
        self._check_index(index)
        self.drain()
        if server is not None:
            self.servers[index] = server
        if transport is not None:
            old = self.transports[index]
            transport.stats.merge(old.stats)
            self._retire(old)
            self.transports[index] = transport
        self.set_down(index, False)
        self.transports[index].stats.count_heal()

    def _retire(self, transport: Any) -> None:
        """Release a per-server transport swapped out by a heal (hook)."""

    def inject_faults(self, index: int, count: int = 1) -> None:
        """Make the next ``count`` invocations of one server fail transiently.

        Drains in-flight calls first: a straggler from an earlier first-k
        round must not race the next round for the new budget.
        """
        self._check_index(index)
        if count < 0:
            raise ValueError("fault count must be non-negative")
        self.drain()
        with self._lock:
            self._fault_budget[index] = self._fault_budget.get(index, 0) + count

    def _refused(self, index: int, method: str) -> Optional[ClusterReply]:
        """The failed reply of a call the fleet state refuses, or ``None``.

        A call to a down server, or one that draws an injected fault, is
        recorded in that server's stats (zero payload bytes, the per-call
        latency as the timeout cost, ``error=True``) and never issued.
        """
        with self._lock:
            if index in self._down:
                error: ConnectionError = ServerDownError("server %d is down" % index)
            else:
                budget = self._fault_budget.get(index, 0)
                if budget <= 0:
                    return None
                self._fault_budget[index] = budget - 1
                error = InjectedFaultError("injected fault on server %d (%s)" % (index, method))
        transport = self.transports[index]
        transport.stats.record(method, 0, 0, transport.per_call_latency, error=True)
        return ClusterReply(index, error=error, latency=transport.per_call_latency)

    def latency_of(self, index: int) -> float:
        """The configured per-call latency of one server (0.0 when measured).

        This is also the *lower bound* of any call's latency on that
        server.
        """
        self._check_index(index)
        return self.transports[index].per_call_latency

    # ------------------------------------------------------------------
    # Makespan clock
    # ------------------------------------------------------------------

    def _advance_clock(self, elapsed: float, overlap: bool) -> None:
        """Charge one round to the wall-clock gauge.

        A normal round starts when the previous one ended; an ``overlap``
        round starts *alongside* the previous round (the prefetch pipeline),
        so it only advances the clock past the previous round's end when it
        is the longer of the two.
        """
        elapsed += self.round_overhead
        with self._lock:
            if overlap:
                self._clock = max(self._clock, self._round_start + elapsed)
            else:
                self._round_start = self._clock
                self._clock += elapsed

    def makespan(self) -> float:
        """The wall-clock spent so far (drains in-flight calls first).

        Unlike the per-server ``simulated_latency`` sums, this gauge charges
        every scatter round with its *critical path* (see the module
        docstring).
        """
        self.drain()
        with self._lock:
            return self._clock

    def reset_makespan(self) -> None:
        """Zero the wall-clock gauge (between experiment runs)."""
        self.drain()
        with self._lock:
            self._clock = 0.0
            self._round_start = 0.0

    def drain(self) -> None:
        """Wait for every straggler of earlier rounds (none by default)."""

    def close(self) -> None:
        """Release connection resources (none by default; idempotent)."""

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def stats_of(self, index: int) -> CallStats:
        """The per-server call statistics (drains in-flight calls first)."""
        self._check_index(index)
        self.drain()
        return self.transports[index].stats

    @property
    def per_server_stats(self) -> List[CallStats]:
        """Every server's stats, in server order (drained first, so the
        counters are settled even right after a first-k quorum read)."""
        self.drain()
        return [transport.stats for transport in self.transports]

    def count_query(self, amount: int = 1) -> None:
        """Tick the query counter on every server's stats.

        Each server's ``calls_per_query`` then reads "calls this server did
        per executed query", whether or not the query touched it.  Draining
        first settles any straggler calls of the finished query.
        """
        self.drain()
        for transport in self.transports:
            transport.stats.count_query(amount)

    def aggregate_stats(self) -> CallStats:
        """A merged snapshot of every server's stats.

        ``queries`` is the maximum over servers rather than the sum: the
        per-server traces cover the *same* queries, so summing (what
        :meth:`CallStats.merge` does for disjoint traces) would deflate the
        cluster-wide per-query figures by a factor of n.  ``makespan`` is
        the cluster clock, not the per-server sum, for the same reason.
        """
        self.drain()
        merged = CallStats()
        for transport in self.transports:
            merged.merge(transport.stats)
        merged.queries = max(
            (transport.stats.queries for transport in self.transports), default=0
        )
        with self._lock:
            merged.makespan = self._clock
        return merged

    def reset_stats(self) -> None:
        """Zero every server's counters and the clock (between runs)."""
        self.drain()
        for transport in self.transports:
            transport.stats.reset()
        with self._lock:
            self._clock = 0.0
            self._round_start = 0.0

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        with self._lock:
            down = sorted(self._down)
        return "%s(servers=%d, down=%s)" % (type(self).__name__, len(self.servers), down)


class ClusterTransport(ClusterTransportBase):
    """Carries calls between one client and ``n`` in-process share servers."""

    def __init__(
        self,
        servers: Sequence[Any],
        per_call_latency: float = 0.0,
        per_byte_latency: float = 0.0,
        codec: Optional[Codec] = None,
        latency_jitter: float = 0.0,
        jitter_seed: int = 20050905,
        concurrency: bool = True,
        round_overhead: float = 0.0,
        per_server_latency: Optional[Sequence[float]] = None,
    ):
        """``servers`` are the target objects (typically ``ServerFilter`` s).

        ``latency_jitter`` spreads the configured latencies per server by a
        deterministic factor in ``[1, 1 + latency_jitter)`` drawn from
        ``jitter_seed`` — server 2 of a jittered cluster is always exactly
        as slow, so experiments stay reproducible.  ``per_server_latency``
        pins each server's per-call latency explicitly instead (jitter does
        not apply on top); tests use it to drive quorum completion orders.

        ``concurrency`` only sets the makespan clock: ``True`` charges a
        round with its critical path, ``False`` with the sum of the
        per-server latencies.  ``round_overhead`` is added to the clock
        once per round, modelling the fixed cost of issuing a scatter.
        """
        if latency_jitter < 0:
            raise ValueError("latency_jitter must be non-negative")
        if per_server_latency is not None and len(per_server_latency) != len(servers):
            raise ValueError(
                "per_server_latency has %d entries for %d servers"
                % (len(per_server_latency), len(servers))
            )
        rng = SplitMix64(jitter_seed)
        transports = []
        for index in range(len(servers)):
            factor = 1.0 + latency_jitter * rng.next_float()
            if per_server_latency is not None:
                call_latency = per_server_latency[index]
                byte_latency = per_byte_latency
            else:
                call_latency = per_call_latency * factor
                byte_latency = per_byte_latency * factor
            transports.append(
                SimulatedTransport(
                    per_call_latency=call_latency,
                    per_byte_latency=byte_latency,
                    codec=codec,
                )
            )
        super().__init__(servers, transports, round_overhead)
        self.concurrency = bool(concurrency)

    # ------------------------------------------------------------------
    # Invocation
    # ------------------------------------------------------------------

    def _outcome(
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
            outcome = self.transports[index].invoke_detailed(
                self.servers[index], method, args, kwargs
            )
        except Exception as exc:
            # Request-encoding failures (a caller-side bug) are captured like
            # any other per-server failure so a scattered round never aborts
            # half-issued; they carry no latency and are not in the stats,
            # matching the single-transport behaviour.
            return ClusterReply(index, error=exc)
        return ClusterReply(
            index, value=outcome.value, error=outcome.error, latency=outcome.latency
        )

    def _elapsed(self, replies: Sequence[ClusterReply], last: float) -> float:
        """Round cost: ``last`` (the critical path) when the servers answer
        concurrently, the latency sum when they answer one after the other."""
        if self.concurrency:
            return last
        return sum(reply.latency for reply in replies)

    def invoke(
        self,
        index: int,
        method: str,
        args: Tuple[Any, ...] = (),
        kwargs: Optional[Dict[str, Any]] = None,
        overlap: bool = False,
    ) -> Any:
        """One remote call against server ``index``.

        Unreachable servers and injected faults raise — but are still
        recorded in that server's stats (zero payload bytes, the per-call
        latency as the timeout cost, ``error=True``).
        """
        self._check_index(index)
        reply = self._outcome(index, method, args, kwargs)
        self._advance_clock(reply.latency, overlap)
        if reply.error is not None:
            raise reply.error
        return reply.value

    def invoke_all(
        self,
        method: str,
        args: Tuple[Any, ...] = (),
        kwargs: Optional[Dict[str, Any]] = None,
        indices: Optional[Sequence[int]] = None,
        overlap: bool = False,
    ) -> List[ClusterReply]:
        """Scatter one call to many servers, gather per-server replies.

        Individual failures are captured in the reply's ``error`` instead of
        propagating, so a partial gather is an ordinary outcome — threshold
        schemes only need enough of the replies to be good.  Replies come
        back in target order; with ``concurrency`` the round costs the
        slowest server instead of the sum.
        """
        replies = [
            self._outcome(index, method, args, kwargs) for index in self._targets(indices)
        ]
        slowest = max((reply.latency for reply in replies), default=0.0)
        self._advance_clock(self._elapsed(replies, slowest), overlap)
        return replies

    def invoke_quorum(
        self,
        method: str,
        args: Tuple[Any, ...] = (),
        k: int = 1,
        kwargs: Optional[Dict[str, Any]] = None,
        indices: Optional[Sequence[int]] = None,
        overlap: bool = False,
    ) -> List[ClusterReply]:
        """Scatter to every target and admit replies up to the ``k``-th success.

        The returned list holds the replies *admitted* before the quorum was
        reached, in modeled arrival order — the first ``k`` successes plus
        any failures that arrived among them.  Every target is still called
        (and recorded in its server's stats), which is exactly the traffic
        of a real first-k read: the client stops waiting, the wire traffic
        happens anyway.

        When fewer than ``k`` targets succeed, every reply is admitted and
        the caller sees the shortfall.  With ``concurrency`` the makespan
        clock is charged the k-th modeled arrival (or the last arrival on a
        shortfall), otherwise the sum.
        """
        if k < 1:
            raise ValueError("quorum size must be at least 1, got %d" % k)
        targets = self._targets(indices)
        if not targets:
            return []
        replies = [self._outcome(index, method, args, kwargs) for index in targets]
        admitted = _admit(sorted(replies, key=_arrival_key), k)
        self._advance_clock(self._elapsed(replies, admitted[-1].latency), overlap)
        return admitted
