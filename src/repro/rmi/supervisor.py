"""Fleet supervision: corruption attribution → quarantine → self-healing.

The cluster stack below this module already *detects* trouble — redundant
share reads raise :class:`~repro.filters.cluster.InconsistentShareError`
(now carrying majority-vote ``suspects``), dead peers surface as recorded
``ConnectionError`` s — but nothing *acts* on it: a corrupt server keeps
poisoning every read it lands in, and a crashed one stays dead until the
operator re-encodes the document.  The :class:`FleetSupervisor` closes that
loop over either cluster transport (simulated or socket-backed, see
:class:`~repro.rmi.cluster.ClusterTransportBase`):

1. **Observe** — feed it the attribution verdicts of inconsistency errors
   (:meth:`~FleetSupervisor.observe_inconsistency`) and run periodic
   :meth:`~FleetSupervisor.ping_sweep` s; per-server health records count
   corruption votes, unavailability streaks and ping failures against
   configurable thresholds.
2. **Quarantine** — a server past any threshold is routed around via
   :meth:`~repro.rmi.cluster.ClusterTransportBase.mark_quarantined` — but only
   while the remaining fleet still satisfies the scheme's quorum, so the
   supervisor never quarantines itself out of availability.
3. **Heal** — the quarantined server's table is re-derived *without
   re-encoding the document*: additive lanes regenerate from the
   ``KeyedPRG`` seed (:meth:`SharingScheme.regenerate_share`), Shamir
   slices re-share from any k healthy servers' rows through the existing
   Lagrange machinery (:meth:`ShamirSharing.reshare_vectors`).  The fresh
   table is swapped in — for socket fleets a replacement ``repro-server``
   subprocess is spawned, health-checked and connected
   (:meth:`SocketCluster.spawn_replacement`); for simulated fleets a new
   :class:`~repro.filters.server.ServerFilter` replaces the call target —
   and the fleet returns to full n-strength.

Healed tables are **byte-identical** to the original deployment slice: the
re-derived rows are inserted in ascending post order (the encoder emits a
row whenever a node completes) into a table with the same schema and
indexes, so ``Database.save`` produces the same JSON bytes — the chaos
bench's strongest end-to-end check.

Every quarantine and heal ticks the per-server
:class:`~repro.rmi.stats.CallStats` counters, which flow through
``aggregate_stats()`` and the gateway's ``__stats__`` wire method.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, TypeVar

from repro.encode.encoder import NODE_TABLE_NAME, node_table_schema
from repro.filters.cluster import InconsistentShareError
from repro.secretshare.scheme import SharingError, SharingScheme
from repro.storage.database import Database

T = TypeVar("T")


class SupervisorError(RuntimeError):
    """A quarantine or heal operation could not complete."""


@dataclass
class ServerHealth:
    """Mutable per-server health record kept by the supervisor."""

    #: times this server was a majority-vote corruption suspect
    corruption_votes: int = 0
    #: consecutive failed invocations / pings since the last success
    unavailable_streak: int = 0
    #: consecutive failed health-check pings
    ping_failures: int = 0
    #: currently routed around?
    quarantined: bool = False
    #: why the last quarantine happened ("corruption" / "unreachable")
    reason: Optional[str] = None
    #: lifetime quarantine / heal counts (mirrors the CallStats counters)
    quarantines: int = 0
    heals: int = 0

    def snapshot(self) -> Dict[str, object]:
        return {
            "corruption_votes": self.corruption_votes,
            "unavailable_streak": self.unavailable_streak,
            "ping_failures": self.ping_failures,
            "quarantined": self.quarantined,
            "reason": self.reason,
            "quarantines": self.quarantines,
            "heals": self.heals,
        }


@dataclass
class HealReport:
    """What one heal did (returned by :meth:`FleetSupervisor.heal`)."""

    server: int
    rows: int
    mode: str  # "reshare" (Shamir), "regenerate" (additive lane), …
    path: Optional[str] = None  # replacement table file (socket fleets)
    extra: Dict[str, object] = field(default_factory=dict)


class FleetSupervisor:
    """Quarantines unhealthy share servers and heals them back to strength.

    ``transport`` is the fleet's :class:`~repro.rmi.cluster.ClusterTransport`
    or :class:`~repro.rmi.aio.AsyncClusterTransport`; ``scheme`` the deployment's
    sharing scheme.  ``cluster`` optionally names the backing
    :class:`~repro.rmi.server.SocketCluster` — with it, heals spawn real
    replacement subprocesses; without it (simulated fleets), heals swap a
    rebuilt :class:`~repro.filters.server.ServerFilter` into the transport's
    call targets.

    Thresholds: ``corruption_votes`` majority-vote verdicts, or
    ``unavailable_streak`` consecutive failures, or ``ping_failures``
    consecutive failed health checks — whichever trips first quarantines
    the server (quorum permitting).
    """

    def __init__(
        self,
        transport: Any,
        scheme: SharingScheme,
        cluster: Optional[Any] = None,
        corruption_votes: int = 1,
        unavailable_streak: int = 3,
        ping_failures: int = 2,
        heal_chunk: int = 512,
        coordinator: Optional[Any] = None,
    ):
        if transport.num_servers != scheme.num_servers:
            raise SharingError(
                "transport has %d servers but the scheme shards across %d"
                % (transport.num_servers, scheme.num_servers)
            )
        for name, value in (
            ("corruption_votes", corruption_votes),
            ("unavailable_streak", unavailable_streak),
            ("ping_failures", ping_failures),
            ("heal_chunk", heal_chunk),
        ):
            if value < 1:
                raise ValueError("%s must be at least 1, got %d" % (name, value))
        self.transport = transport
        self.scheme = scheme
        self.ring = scheme.ring
        self.cluster = cluster
        self.corruption_votes = corruption_votes
        self.unavailable_streak = unavailable_streak
        self.ping_failures = ping_failures
        self.heal_chunk = heal_chunk
        #: optional :class:`~repro.rmi.write.WriteCoordinator` of the same
        #: fleet: heals then hold its fence (no delta commits into a
        #: half-copied table) and replay-repair lagging peers first, so
        #: every source row is read at one consistent epoch
        self.coordinator = coordinator
        self.health: List[ServerHealth] = [
            ServerHealth() for _ in range(transport.num_servers)
        ]
        #: chronological quarantine / heal / refusal events (plain dicts)
        self.log: List[Dict[str, object]] = []

    # ------------------------------------------------------------------
    # Observation surface
    # ------------------------------------------------------------------

    def observe_inconsistency(self, error: Exception) -> List[int]:
        """Count an inconsistency's attributed suspects; quarantine over threshold.

        Accepts any error carrying a ``suspects`` attribute (an
        :class:`~repro.filters.cluster.InconsistentShareError`).  An
        inconclusive attribution (no suspects) counts nothing — guessing
        would risk quarantining a healthy server.  Returns the indices
        newly quarantined by this observation.
        """
        quarantined: List[int] = []
        for index in getattr(error, "suspects", ()) or ():
            record = self.health[index]
            record.corruption_votes += 1
            if (
                not record.quarantined
                and record.corruption_votes >= self.corruption_votes
                and self.quarantine(index, reason="corruption")
            ):
                quarantined.append(index)
        return quarantined

    def observe_failure(self, index: int, error: Optional[BaseException] = None) -> bool:
        """Count one failed invocation; quarantine past the streak threshold.

        Returns whether this observation quarantined the server.
        """
        record = self.health[index]
        record.unavailable_streak += 1
        if not record.quarantined and record.unavailable_streak >= self.unavailable_streak:
            return self.quarantine(index, reason="unreachable")
        return False

    def observe_success(self, index: int) -> None:
        """Reset the failure streaks (corruption votes are stickier)."""
        record = self.health[index]
        record.unavailable_streak = 0
        record.ping_failures = 0

    def ping_sweep(self) -> Dict[int, bool]:
        """Health-check every non-quarantined server; quarantine repeat offenders.

        Every server answers the cheapest structural read, over whichever
        transport the fleet runs.  Returns ``{index: healthy}`` for the
        swept servers.
        """
        results: Dict[int, bool] = {}
        for index in range(self.transport.num_servers):
            record = self.health[index]
            if record.quarantined:
                continue
            try:
                self.transport.invoke(index, "node_count", ())
            except (ConnectionError, OSError, RuntimeError):
                record.ping_failures += 1
                record.unavailable_streak += 1
                results[index] = False
                if record.ping_failures >= self.ping_failures:
                    self.quarantine(index, reason="unreachable")
            else:
                results[index] = True
                self.observe_success(index)
        return results

    # ------------------------------------------------------------------
    # Quarantine
    # ------------------------------------------------------------------

    def quarantine(self, index: int, reason: str = "manual") -> bool:
        """Route reads around one server — if the rest still makes quorum.

        Refuses (returns ``False``, logs the refusal) when losing this
        server would leave the live fleet unable to satisfy the scheme —
        a degraded-but-available fleet beats an unavailable one.
        """
        record = self.health[index]
        if record.quarantined:
            return True
        remaining = [
            live for live in self.transport.live_servers() if live != index
        ]
        if not self.scheme.sufficient(remaining):
            self.log.append(
                {
                    "event": "quarantine_refused",
                    "server": index,
                    "reason": reason,
                    "live_remaining": remaining,
                }
            )
            return False
        self.transport.mark_quarantined(index)
        record.quarantined = True
        record.reason = reason
        record.quarantines += 1
        self.log.append({"event": "quarantine", "server": index, "reason": reason})
        return True

    def quarantined_servers(self) -> List[int]:
        """Indices currently quarantined."""
        return [
            index for index, record in enumerate(self.health) if record.quarantined
        ]

    # ------------------------------------------------------------------
    # Heal
    # ------------------------------------------------------------------

    def heal(self, index: int) -> HealReport:
        """Re-derive one server's table from healthy peers and swap it in.

        Works for quarantined *and* merely-dead servers.  Raises
        :class:`SupervisorError` when the table cannot be re-derived (no
        quorum of healthy peers, or an additive residual share that only
        the original encoding run could produce).

        With a :attr:`coordinator` attached, the whole heal runs under its
        write fence — concurrent :meth:`~repro.rmi.write.WriteCoordinator.apply`
        calls block until the swap finishes instead of committing an epoch
        the copy misses — and lagging healthy peers are journal-replayed
        first, so every source row is read at one consistent version.
        """
        if self.coordinator is not None:
            with self.coordinator.fence():
                return self._heal_fenced(index)
        return self._heal_fenced(index)

    def _heal_fenced(self, index: int) -> HealReport:
        if self.coordinator is not None:
            try:
                self.coordinator.repair_stale()
            except Exception as error:
                raise SupervisorError(
                    "cannot bring healthy peers to a consistent epoch "
                    "before healing server %d: %s" % (index, error)
                ) from error
        rows, mode, epoch = self._derive_rows(index)
        database = self._build_database(rows)
        path: Optional[str] = None
        if self.cluster is not None:
            transport = self.cluster.spawn_replacement(index, database)
            path = self.cluster.processes[index].database_path
            self.transport.mark_healed(
                index, transport=transport, server=transport.address
            )
        else:
            from repro.filters.server import ServerFilter

            table = database.table(NODE_TABLE_NAME)
            self.transport.mark_healed(index, server=ServerFilter(table, self.ring))
        if epoch:
            # Stamp the rebuilt slice with the epoch its rows were read at,
            # so the next two-phase prepare sees a consistent fleet.
            self.transport.invoke(index, "set_table_epoch", (epoch,))
        record = self.health[index]
        record.quarantined = False
        record.reason = None
        record.corruption_votes = 0
        record.unavailable_streak = 0
        record.ping_failures = 0
        record.heals += 1
        self.log.append(
            {"event": "heal", "server": index, "rows": len(rows), "mode": mode}
        )
        return HealReport(server=index, rows=len(rows), mode=mode, path=path)

    def _healthy_peers(self, index: int) -> List[int]:
        """Servers fit to source a heal: live, not the victim, not quarantined."""
        return [
            peer
            for peer in self.transport.live_servers()
            if peer != index and not self.health[peer].quarantined
        ]

    def _invoke_healthy(self, healthy: Sequence[int], method: str, args: tuple) -> Any:
        """First successful reply across the healthy peers (structural reads)."""
        last: Optional[BaseException] = None
        for peer in healthy:
            try:
                return self.transport.invoke(peer, method, args)
            except (ConnectionError, OSError) as error:
                self.observe_failure(peer, error)
                last = error
        raise SupervisorError(
            "no healthy peer answered %s (tried %s): %s" % (method, list(healthy), last)
        )

    def _gather_peer_rows(
        self, healthy: Sequence[int], chunk: Sequence[int], need: int
    ) -> Dict[int, List[List[int]]]:
        """Share rows for ``chunk`` from ``need`` distinct healthy peers."""
        collected: Dict[int, List[List[int]]] = {}
        for peer in healthy:
            try:
                collected[peer] = self.transport.invoke(
                    peer, "fetch_shares_batch", (list(chunk),)
                )
            except (ConnectionError, OSError) as error:
                self.observe_failure(peer, error)
                continue
            if len(collected) >= need:
                break
        if len(collected) < need:
            raise SupervisorError(
                "heal needs share rows from %d healthy servers, reached %d "
                "(healthy candidates %s)" % (need, len(collected), list(healthy))
            )
        return collected

    def _peer_epochs(self, healthy: Sequence[int]) -> Dict[int, int]:
        """Each healthy peer's table epoch (write-path version fencing)."""
        epochs: Dict[int, int] = {}
        for peer in healthy:
            try:
                epochs[peer] = self.transport.invoke(peer, "table_epoch", ())
            except (ConnectionError, OSError) as error:
                self.observe_failure(peer, error)
        return epochs

    def _derive_rows(self, index: int) -> "tuple[List[Dict[str, Any]], str, int]":
        """The victim's full node table, re-derived without re-encoding.

        Returns ``(rows, mode, epoch)`` — ``epoch`` being the consistent
        table epoch the source rows were read at (0 for a never-written
        fleet).  Peers at mixed epochs (a write committed on some of them
        while others lagged) are fenced out: only the newest-epoch peers
        source the heal, and only if enough of them remain.
        """
        healthy = self._healthy_peers(index)
        if not healthy:
            raise SupervisorError(
                "cannot heal server %d: no healthy peers remain" % index
            )
        epochs = self._peer_epochs(healthy)
        epoch = max(epochs.values()) if epochs else 0
        current = [peer for peer in healthy if epochs.get(peer) == epoch]
        if len(current) < len(healthy):
            stale = sorted(set(healthy) - set(current))
            self.log.append(
                {
                    "event": "heal_fenced_stale_peers",
                    "server": index,
                    "epoch": epoch,
                    "stale_peers": stale,
                }
            )
            healthy = current
        if not healthy:
            raise SupervisorError(
                "cannot heal server %d: no peers at a consistent epoch" % index
            )
        scheme = self.scheme
        regenerable = scheme.regenerable(index)
        if not regenerable and scheme.threshold >= scheme.num_servers:
            # n-of-n without a regenerable lane (the additive residual):
            # peers hold statistically independent slices, so nothing short
            # of the original encoding run can rebuild this table.
            raise SupervisorError(
                "server %d's share is neither regenerable from the seed nor "
                "re-derivable from peers under %s sharing" % (index, scheme.name)
            )
        # The structural skeleton is replicated on every server: the full
        # pre-order is the root plus its descendant scan, in document order
        # — which is exactly the encoder's insertion order.
        root = self._invoke_healthy(healthy, "root_pre", ())
        pres: List[int] = [root] + list(
            self._invoke_healthy(healthy, "descendants_of", (root,))
        )
        length = self.ring.length
        mode = "regenerate" if regenerable else "reshare"
        rows: List[Dict[str, Any]] = []
        for start in range(0, len(pres), self.heal_chunk):
            chunk = pres[start : start + self.heal_chunk]
            infos = self._invoke_healthy(healthy, "node_infos", (list(chunk),))
            versions = self._chunk_versions(healthy, chunk, epoch)
            if regenerable:
                shares = [
                    list(scheme.regenerate_share(pre, index, version).coeffs)
                    for pre, version in zip(chunk, versions)
                ]
            else:
                peer_rows = self._gather_peer_rows(healthy, chunk, scheme.threshold)
                flat = {
                    peer: [value for vector in vectors for value in vector]
                    for peer, vectors in peer_rows.items()
                }
                try:
                    derived = scheme.reshare_vectors(flat, index)
                except SharingError as error:
                    raise SupervisorError(
                        "cannot re-derive server %d's shares: %s" % (index, error)
                    ) from error
                shares = [
                    derived[offset : offset + length]
                    for offset in range(0, len(derived), length)
                ]
            for pre, info, share, version in zip(chunk, infos, shares, versions):
                if info is None:
                    raise SupervisorError(
                        "healthy peers report no node info for pre=%d" % pre
                    )
                row: Dict[str, Any] = {
                    "pre": pre,
                    "post": info["post"],
                    "parent": info["parent"],
                    "share": tuple(share),
                }
                if version:
                    # version 0 omits the column, matching the bulk
                    # encoder's rows byte for byte
                    row["version"] = version
                rows.append(row)
        return rows, mode, epoch

    def _chunk_versions(
        self, healthy: Sequence[int], chunk: Sequence[int], epoch: int
    ) -> List[int]:
        """Per-row write versions for one heal chunk (0 = bulk-encoded).

        A never-written fleet (epoch 0) skips the wire round entirely —
        every row is at version 0 and older servers may not even export
        ``row_versions``.
        """
        if not epoch:
            return [0] * len(chunk)
        versions = self._invoke_healthy(healthy, "row_versions", (list(chunk),))
        if any(version < 0 for version in versions):
            missing = [pre for pre, version in zip(chunk, versions) if version < 0]
            raise SupervisorError(
                "healthy peers hold no version for pres %s" % missing[:5]
            )
        return list(versions)

    def _build_database(self, rows: Sequence[Mapping[str, Any]]) -> Database:
        """A deployment-slice database holding ``rows`` (encoder conventions).

        Schema, index set and insertion order match
        :meth:`Encoder.deploy_text` exactly, so ``Database.save`` writes
        the same bytes the original slice file carries.  The encoder emits
        rows as nodes *complete* — ascending post order — and ``save``
        serialises rows in insertion order, so the rebuild must re-insert
        in post order too.
        """
        database = Database()
        table = database.create_table(node_table_schema())
        for row in sorted(rows, key=lambda row: row["post"]):
            table.insert(dict(row))
        for column in ("pre", "post", "parent"):
            table.create_index(column, unique=(column in ("pre", "post")))
        return database

    # ------------------------------------------------------------------
    # Guarded execution
    # ------------------------------------------------------------------

    def supervised_call(
        self, operation: Callable[[], T], heal: bool = True, retries: Optional[int] = None
    ) -> T:
        """Run a read; on share inconsistency, quarantine + heal + retry.

        Retries only when the observation actually quarantined someone —
        an inconclusive attribution re-raises immediately (retrying the
        same fleet would fail the same way).  ``retries`` defaults to the
        fleet size (each retry removes at least one server, so the loop
        always terminates).
        """
        attempts = (retries if retries is not None else self.transport.num_servers) + 1
        last: Optional[InconsistentShareError] = None
        for _ in range(attempts):
            try:
                return operation()
            except InconsistentShareError as error:
                last = error
                quarantined = self.observe_inconsistency(error)
                if not quarantined:
                    raise
                if heal:
                    for index in quarantined:
                        self.heal(index)
        assert last is not None  # attempts >= 1, so the loop body ran
        raise last

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def status(self) -> Dict[str, object]:
        """One serialisable view of fleet health (benches, demos, gateways)."""
        return {
            "servers": [record.snapshot() for record in self.health],
            "quarantined": self.quarantined_servers(),
            "live": list(self.transport.live_servers()),
            "quarantines": sum(record.quarantines for record in self.health),
            "heals": sum(record.heals for record in self.health),
            "events": list(self.log),
        }

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return "FleetSupervisor(servers=%d, quarantined=%s)" % (
            self.transport.num_servers,
            self.quarantined_servers(),
        )
