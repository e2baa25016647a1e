"""Cluster-transparent server access: n share servers behind one surface.

:class:`ClusterClient` exposes exactly the method surface of a single
:class:`~repro.filters.server.ServerFilter`, so the existing
:class:`~repro.filters.client.ClientFilter` — and through it both query
engines and the leakage observer — runs unmodified against an ``n``-server
deployment.  Behind the surface it

* routes **structural** queries (``pre``/``post``/``parent`` are replicated
  on every server) to one sticky primary, failing over to the next live
  server on a connection error,
* **scatter-gathers** the share endpoints (``evaluate`` /
  ``evaluate_batch`` / ``fetch_share`` / ``fetch_shares_batch``) across the
  cluster through :meth:`~repro.rmi.cluster.ClusterTransport.invoke_quorum`
  and recombines the per-server replies through the deployment's
  :class:`~repro.secretshare.scheme.SharingScheme` — any ``k`` replies for a
  threshold scheme, locally regenerated PRG lanes for missing additive
  shares.  With verification off the read completes on the **first k**
  successful replies (straggler replies drain in the background), which is
  the latency-optimal Shamir read,
* **verifies** surplus replies against the reconstruction when the scheme
  carries redundancy, so a corrupted or desynchronised server is detected
  and reported instead of silently corrupting query results,
* **escalates** to the spare servers in one batched scatter when the
  initial quorum cannot be completed, instead of trickling one call per
  spare,
* optionally **hedges** slow reads (``hedge=``): when the modeled straggler
  among the contacted servers is markedly slower than an idle spare, the
  spare is co-issued in the same round so the k-th reply arrives earlier,
* optionally **prefetches** (``prefetch=``): the next structural rounds are
  modeled as overlapping the in-flight share scatter, pipelining the
  engines' batch expansion with share fetches on the makespan clock,
* keeps the server-side ``next_node`` queues working by pinning each queue
  to the server that opened it.

Only *connection-level* failures trigger fail-over; semantic errors (an
unknown ``pre`` raises :class:`LookupError` on every replica alike)
propagate unchanged, matching single-server behaviour.  This includes the
real-wire failures of a socket deployment: a killed or unreachable server
process surfaces as :class:`~repro.rmi.socket.ServerUnavailable` (a
``ConnectionError``), so quorum completion and structural fail-over engage
identically whether the outage is modeled (``set_down``) or an actual dead
process.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.rmi.cache import STRUCTURAL_READ_METHODS, GatewayCache
from repro.rmi.cluster import ClusterTransport
from repro.secretshare.scheme import (
    AttributionInconclusive,
    SharingError,
    SharingScheme,
)


class ClusterProtocolError(RuntimeError):
    """Base class of cluster-level protocol failures."""


class ClusterUnavailableError(ClusterProtocolError):
    """Not enough live servers to answer a request."""


class InconsistentShareError(ClusterProtocolError):
    """Redundant replies disagree: at least one server holds corrupt shares.

    ``servers`` lists the indices whose replies contradicted the
    reconstruction from the base subset — detection only, relative to that
    subset, so a corrupt *base member* makes every honest surplus server
    appear here.  ``suspects`` is the stronger verdict from the scheme's
    majority vote across k-subsets (:meth:`SharingScheme.attribute_corruption`):
    the servers whose replies disagree with the unique honest majority.  It
    is empty when attribution was inconclusive (too few replies, a tie, or a
    scheme without redundancy).  ``evidence`` carries the vote tallies and
    first-divergence positions for supervisors and logs.
    """

    def __init__(
        self,
        message: str,
        servers: Sequence[int],
        suspects: Sequence[int] = (),
        evidence: Optional[Dict[str, object]] = None,
    ):
        super().__init__(message)
        self.servers = tuple(servers)
        self.suspects = tuple(suspects)
        self.evidence: Dict[str, object] = dict(evidence or {})


class ClusterClient:
    """Presents an ``n``-server share deployment as one server filter."""

    #: spare-vs-straggler latency ratio that triggers a hedged co-issue
    DEFAULT_HEDGE_RATIO = 1.5

    def __init__(
        self,
        transport: ClusterTransport,
        scheme: SharingScheme,
        read_quorum: Optional[int] = None,
        verify_shares: bool = True,
        hedge: Union[bool, float] = False,
        prefetch: int = 0,
        result_cache: Optional[GatewayCache] = None,
    ):
        """``transport`` carries the calls; ``scheme`` recombines the replies.

        ``read_quorum`` is the number of servers contacted per share read —
        defaulting to all of them, which buys immediate fail-over *and* the
        redundancy that makes :class:`InconsistentShareError` detection
        possible.  Setting it to ``scheme.threshold`` minimises traffic at
        the cost of both.  ``verify_shares=False`` skips the consistency
        check — the reconstruction then completes on the first ``threshold``
        successful replies and stops waiting for stragglers.

        ``hedge`` (only meaningful with verification off) co-issues a share
        read to the fastest idle spare whenever the slowest contacted server
        is at least ``hedge`` times slower than that spare (``True`` selects
        :data:`DEFAULT_HEDGE_RATIO`) — one extra call buys a shorter tail.
        ``prefetch`` marks up to that many structural rounds after each
        share read as overlapping it on the makespan clock, modelling the
        engine's next batch expansion pipelined with in-flight fetches.

        ``result_cache`` (default off) is a shared
        :class:`~repro.rmi.cache.GatewayCache`: structural reads and
        *combined* share reads are answered from it when present, and
        computed results are stored back.  Results served from the cache
        are shared **by reference** — callers must treat them as
        read-only, which every consumer in this stack already does.
        Queue cursors are per-client mutable state and never touch the
        cache.
        """
        if transport.num_servers != scheme.num_servers:
            raise SharingError(
                "transport has %d servers but the scheme shards across %d"
                % (transport.num_servers, scheme.num_servers)
            )
        if read_quorum is None:
            read_quorum = scheme.num_servers
        if not scheme.threshold <= read_quorum <= scheme.num_servers:
            raise SharingError(
                "read_quorum must be in [%d, %d], got %d"
                % (scheme.threshold, scheme.num_servers, read_quorum)
            )
        if prefetch < 0:
            raise ValueError("prefetch must be non-negative, got %d" % prefetch)
        if hedge is not False and hedge is not True and hedge < 1:
            raise ValueError("hedge ratio must be at least 1, got %r" % hedge)
        self.transport = transport
        self.scheme = scheme
        self.ring = scheme.ring
        self._read_quorum = read_quorum
        self._verify = verify_shares
        self._hedge_ratio = (
            0.0 if hedge is False else (self.DEFAULT_HEDGE_RATIO if hedge is True else float(hedge))
        )
        self._prefetch = prefetch
        self._result_cache = result_cache
        self._overlap_credits = 0
        self._primary = 0
        # Server-side queues are pinned to one server; local ids hide that.
        self._queue_routes: Dict[int, Tuple[int, int]] = {}
        self._next_local_queue_id = 1
        #: inconsistency reports observed so far (kept even when raising)
        self.inconsistencies: List[Dict[str, object]] = []
        #: zero-arg repair hook (see :meth:`enable_read_repair`); ``None``
        #: keeps the historical raise-on-inconsistency behaviour
        self._repairer: Optional[Callable[[], Dict[int, int]]] = None
        #: pre -> row version, for version-salted share regeneration of
        #: written rows (absent = 0, the bulk-encoded stream)
        self._versions: Dict[int, int] = {}
        #: read-repair rounds that converged (bench/test observability)
        self.read_repairs: List[Dict[int, int]] = []

    # ------------------------------------------------------------------
    # Topology helpers
    # ------------------------------------------------------------------

    @property
    def num_servers(self) -> int:
        """Number of servers in the deployment."""
        return self.transport.num_servers

    def _server_order(self, start: Optional[int] = None) -> List[int]:
        """Preference order: live servers from ``start``, then downed ones."""
        count = self.num_servers
        start = self._primary if start is None else start
        rotated = [(start + offset) % count for offset in range(count)]
        live = [index for index in rotated if not self.transport.is_down(index)]
        down = [index for index in rotated if self.transport.is_down(index)]
        return live + down

    # ------------------------------------------------------------------
    # Read repair (version skew vs corruption)
    # ------------------------------------------------------------------

    def enable_read_repair(self, repairer: Callable[[], Dict[int, int]]) -> None:
        """Arm reconstruction-time read repair.

        ``repairer`` is a zero-argument callable that inspects the fleet
        for version skew and catches lagging servers up, returning the
        ``{server: deltas replayed}`` map — pass
        :meth:`~repro.rmi.write.WriteCoordinator.repair_stale`.  With it
        armed, a reconstruction that fails verification first asks the
        repairer; if any server was behind, the read retries once against
        the converged fleet.  A fleet with *no* skew (true corruption)
        re-raises the original :class:`InconsistentShareError` untouched,
        so the attribution/quarantine path is unaffected.
        """
        self._repairer = repairer

    def note_versions(self, versions: Dict[int, int]) -> None:
        """Record row versions (pre -> epoch) for share regeneration.

        The version-salted PRG streams make a written row's share a
        function of ``(pre, version)``; a client regenerating shares of a
        downed server must know the committed versions or it reconstructs
        against the dead row's old masks.  The write path pushes
        :meth:`~repro.encode.mutate.DocumentState.versions` here after
        every commit.
        """
        self._versions.update(versions)

    def _version_for(self, pre: int) -> int:
        return self._versions.get(pre, 0)

    def _with_read_repair(self, compute: Callable[[], Any]) -> Any:
        """Run one reconstruction, repairing version skew on divergence."""
        try:
            return compute()
        except InconsistentShareError:
            if self._repairer is None:
                raise
            repaired = self._repairer()
            if not repaired:
                raise  # no skew: genuine corruption, let attribution stand
            self.read_repairs.append(dict(repaired))
            return compute()

    # ------------------------------------------------------------------
    # Structural queries: one server answers, fail over on connection loss
    # ------------------------------------------------------------------

    def _take_overlap(self) -> bool:
        """Consume one prefetch credit; the next round then overlaps."""
        if self._overlap_credits <= 0:
            return False
        self._overlap_credits -= 1
        return True

    def _cached_call(self, method: str, args: Tuple[Any, ...], compute: Callable[[], Any]) -> Any:
        """One read through the shared result cache (when configured).

        A hit returns the stored value by reference (immutable by
        contract); a miss computes, stores, and returns.  With no cache
        this is exactly ``compute()``.
        """
        cache = self._result_cache
        if cache is None:
            return compute()
        found, value = cache.lookup(method, args)
        if found:
            return value
        value = compute()
        cache.store(method, args, value)
        return value

    def _call_any(self, method: str, *args: Any) -> Any:
        """Invoke a replicated (structure-only) method on one live server."""
        if self._result_cache is not None and method in STRUCTURAL_READ_METHODS:
            return self._cached_call(method, args, lambda: self._call_any_direct(method, args))
        return self._call_any_direct(method, args)

    def _call_any_direct(self, method: str, args: Tuple[Any, ...]) -> Any:
        last_error: Optional[BaseException] = None
        overlap = self._take_overlap()
        for index in self._server_order():
            try:
                result = self.transport.invoke(index, method, args, overlap=overlap)
            except ConnectionError as exc:
                last_error = exc
                continue
            self._primary = index
            return result
        raise ClusterUnavailableError(
            "no live server could answer %s: %s" % (method, last_error)
        )

    def node_count(self) -> int:
        return self._call_any("node_count")

    def root_pre(self) -> int:
        return self._call_any("root_pre")

    def node_info(self, pre: int):
        return self._call_any("node_info", pre)

    def node_infos(self, pres: List[int]):
        return self._call_any("node_infos", pres)

    def children_of(self, pre: int) -> List[int]:
        return self._call_any("children_of", pre)

    def children_of_many(self, pres: List[int]) -> List[List[int]]:
        return self._call_any("children_of_many", pres)

    def descendants_of(self, pre: int) -> List[int]:
        return self._call_any("descendants_of", pre)

    def descendants_of_many(self, pres: List[int]) -> List[List[int]]:
        return self._call_any("descendants_of_many", pres)

    def parent_of(self, pre: int) -> int:
        return self._call_any("parent_of", pre)

    # ------------------------------------------------------------------
    # next_node pipeline: queues are pinned to the server that opened them
    # ------------------------------------------------------------------

    def _open_queue_on_primary(self, method: str, pres: List[int]) -> int:
        last_error: Optional[BaseException] = None
        overlap = self._take_overlap()
        for index in self._server_order():
            try:
                remote_id = self.transport.invoke(index, method, (list(pres),), overlap=overlap)
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

    def _queue_route(self, queue_id: int) -> Tuple[int, int]:
        route = self._queue_routes.get(queue_id)
        if route is None:
            raise LookupError("unknown queue id %d" % queue_id)
        return route

    def open_queue(self, pres: List[int]) -> int:
        return self._open_queue_on_primary("open_queue", pres)

    def open_children_queue(self, pres: List[int]) -> int:
        return self._open_queue_on_primary("open_children_queue", pres)

    def open_descendants_queue(self, pres: List[int]) -> int:
        return self._open_queue_on_primary("open_descendants_queue", pres)

    def next_node(self, queue_id: int) -> int:
        server, remote_id = self._queue_route(queue_id)
        return self.transport.invoke(server, "next_node", (remote_id,))

    def queue_size(self, queue_id: int) -> int:
        server, remote_id = self._queue_route(queue_id)
        return self.transport.invoke(server, "queue_size", (remote_id,))

    def close_queue(self, queue_id: int) -> bool:
        server, remote_id = self._queue_routes.pop(queue_id, (None, None))
        if server is None:
            return False
        return self.transport.invoke(server, "close_queue", (remote_id,))

    # ------------------------------------------------------------------
    # Share access: scatter, regenerate, verify, combine
    # ------------------------------------------------------------------

    def _hedged_targets(self, targets: List[int], spares: List[int]) -> List[int]:
        """Co-issue the fastest spare when the modeled straggler warrants it.

        The hedge is a pure function of the configured per-server latencies:
        when the slowest contacted server is at least ``hedge`` times slower
        than the fastest idle spare, the spare joins the scatter — its reply
        can complete the first-k quorum before the straggler's would.
        """
        if not self._hedge_ratio or self._verify or not spares:
            return targets
        live_spares = [index for index in spares if not self.transport.is_down(index)]
        if not live_spares:
            return targets
        straggler = max(self.transport.latency_of(index) for index in targets)
        best_spare = min(live_spares, key=lambda index: (self.transport.latency_of(index), index))
        if straggler >= self._hedge_ratio * self.transport.latency_of(best_spare):
            return targets + [best_spare]
        return targets

    def _gather(
        self, method: str, args: Tuple[Any, ...]
    ) -> Tuple[Dict[int, Any], Dict[int, BaseException]]:
        """Scatter to ``read_quorum`` servers; stop at the first-k successes.

        With verification on, every contacted server's reply is awaited (the
        redundancy *is* the point); with verification off the quorum read
        returns as soon as ``threshold`` good replies are in, and straggler
        replies drain in the background.  If the admitted subset cannot be
        completed, the remaining candidates are escalated in **one** batched
        scatter instead of one call per spare server.

        Only *connection-level* failures are collected for the caller to
        judge the surviving subset; semantic errors (an unknown ``pre``
        raises :class:`LookupError` on every replica alike, a bad argument
        fails everywhere) re-raise immediately, exactly as the single-server
        path would.
        """
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
        targets = self._hedged_targets(targets, spares)
        quorum = len(targets) if self._verify else min(self.scheme.threshold, len(targets))
        absorb(self.transport.invoke_quorum(method, args, k=quorum, indices=targets))
        if not self.scheme.sufficient(replies):
            remaining = [index for index in spares if index not in replies and index not in failures]
            if remaining:
                absorb(self.transport.invoke_all(method, args, indices=remaining))
        self._overlap_credits = self._prefetch
        return replies, failures

    def _complete_with_regenerated(
        self,
        replies: Dict[int, Any],
        failures: Dict[int, BaseException],
        regenerate: Callable[[int], Any],
        method: str,
    ) -> Dict[int, Any]:
        """Fill regenerable gaps locally; fail if the set stays incomplete."""
        if not self.scheme.complete(replies):
            for index in range(self.num_servers):
                if index in replies or not self.scheme.regenerable(index):
                    continue
                replies[index] = regenerate(index)
                if self.scheme.complete(replies):
                    break
        if not self.scheme.complete(replies):
            raise ClusterUnavailableError(
                "%s gathered %d of %d replies (threshold %d); failures: %s"
                % (
                    method,
                    len(replies),
                    self.num_servers,
                    self.scheme.threshold,
                    {index: repr(error) for index, error in failures.items()},
                )
            )
        return replies

    def _verify_vectors(
        self,
        vectors: Dict[int, Sequence[int]],
        method: str,
        pres: Optional[Sequence[int]] = None,
        stride: int = 1,
    ) -> None:
        """Check redundant replies; attribute, record and raise on disagreement.

        ``pres``/``stride`` translate a vector component back to the node it
        belongs to: component ``c`` is batch position ``c // stride``, node
        ``pres[c // stride]`` (``stride`` is 1 for evaluation vectors and the
        ring length for flattened share rows).
        """
        if not self._verify or len(vectors) <= self.scheme.threshold:
            return
        inconsistent = self.scheme.verify_vectors(vectors)
        if not inconsistent:
            return
        suspects: Tuple[int, ...] = ()
        evidence: Dict[str, object] = {}
        try:
            attribution = self.scheme.attribute_corruption(vectors)
        except AttributionInconclusive as inconclusive:
            evidence = dict(inconclusive.evidence)
            evidence["inconclusive"] = str(inconclusive)
            verdict = "attribution inconclusive (%s)" % inconclusive
        else:
            suspects = attribution.suspects
            evidence = attribution.as_dict()
            verdict = "suspects %s by majority vote over %d %d-subsets" % (
                list(suspects),
                attribution.subsets,
                self.scheme.threshold,
            )
            position = self._divergence_position(attribution.divergence, pres, stride)
            if position:
                verdict += "; first divergence at %s" % position
        report = {
            "method": method,
            "servers": tuple(inconsistent),
            "suspects": suspects,
            "evidence": evidence,
        }
        self.inconsistencies.append(report)
        raise InconsistentShareError(
            "%s: replies from servers %s are inconsistent with the "
            "reconstruction; %s" % (method, list(inconsistent), verdict),
            inconsistent,
            suspects=suspects,
            evidence=evidence,
        )

    @staticmethod
    def _divergence_position(
        divergence: Dict[int, int],
        pres: Optional[Sequence[int]],
        stride: int,
    ) -> str:
        """Human-readable location of the earliest suspect divergence."""
        if not divergence:
            return ""
        component = min(divergence.values())
        batch_position = component // max(stride, 1)
        if pres is None or batch_position >= len(pres):
            return "component %d" % component
        if len(pres) == 1:
            return "pre %d" % pres[0]
        return "batch position %d (pre %d)" % (batch_position, pres[batch_position])

    def evaluate(self, pre: int, point: int) -> int:
        """Combined server-side evaluation of node ``pre`` at ``point``."""
        return self._cached_call(
            "evaluate",
            (pre, point),
            lambda: self._with_read_repair(lambda: self._evaluate_direct(pre, point)),
        )

    def _evaluate_direct(self, pre: int, point: int) -> int:
        replies, failures = self._gather("evaluate", (pre, point))
        replies = self._complete_with_regenerated(
            replies,
            failures,
            lambda index: self.ring.evaluate(
                self.scheme.regenerate_share(pre, index, self._version_for(pre)), point
            ),
            "evaluate",
        )
        vectors = {index: (value,) for index, value in replies.items()}
        self._verify_vectors(vectors, "evaluate", pres=(pre,))
        return self.scheme.combine_vectors(vectors)[0]

    def evaluate_batch(self, pres: List[int], point: int) -> List[int]:
        """Combined server-side evaluations for a whole candidate list."""
        pres = list(pres)
        if not pres:
            return []
        return self._cached_call(
            "evaluate_batch",
            (pres, point),
            lambda: self._with_read_repair(
                lambda: self._evaluate_batch_direct(pres, point)
            ),
        )

    def _evaluate_batch_direct(self, pres: List[int], point: int) -> List[int]:
        replies, failures = self._gather("evaluate_batch", (pres, point))

        def regenerate(index: int) -> List[int]:
            shares = [
                self.scheme.regenerate_share(pre, index, self._version_for(pre))
                for pre in pres
            ]
            return self.ring.evaluate_many(shares, point)

        replies = self._complete_with_regenerated(replies, failures, regenerate, "evaluate_batch")
        self._verify_vectors(replies, "evaluate_batch", pres=pres)
        return self.scheme.combine_values_many(replies)

    def fetch_share(self, pre: int) -> List[int]:
        """The *combined* server-share coefficients of node ``pre``."""
        return self._cached_call(
            "fetch_share",
            (pre,),
            lambda: self._with_read_repair(lambda: self._fetch_share_direct(pre)),
        )

    def _fetch_share_direct(self, pre: int) -> List[int]:
        replies, failures = self._gather("fetch_share", (pre,))
        replies = self._complete_with_regenerated(
            replies,
            failures,
            lambda index: list(
                self.scheme.regenerate_share(pre, index, self._version_for(pre)).coeffs
            ),
            "fetch_share",
        )
        self._verify_vectors(replies, "fetch_share", pres=(pre,), stride=self.ring.length)
        return self.scheme.combine_vectors(replies)

    def fetch_shares_batch(self, pres: List[int]) -> List[List[int]]:
        """Combined share coefficients for all ``pres``, scatter-gathered.

        Per-server replies are flattened to one long vector so the scheme
        combines (and verifies) each batch with one kernel pass instead of
        one per node; the combination is component-wise linear, so the
        flattening is exact.
        """
        pres = list(pres)
        if not pres:
            return []
        return self._cached_call(
            "fetch_shares_batch",
            (pres,),
            lambda: self._with_read_repair(
                lambda: self._fetch_shares_batch_direct(pres)
            ),
        )

    def _fetch_shares_batch_direct(self, pres: List[int]) -> List[List[int]]:
        replies, failures = self._gather("fetch_shares_batch", (pres,))

        def regenerate(index: int) -> List[List[int]]:
            return [
                list(self.scheme.regenerate_share(pre, index, self._version_for(pre)).coeffs)
                for pre in pres
            ]

        replies = self._complete_with_regenerated(replies, failures, regenerate, "fetch_shares_batch")
        flat = {
            index: [value for vector in vectors for value in vector]
            for index, vectors in replies.items()
        }
        self._verify_vectors(flat, "fetch_shares_batch", pres=pres, stride=self.ring.length)
        combined = self.scheme.combine_vectors(flat)
        length = self.ring.length
        return [combined[start : start + length] for start in range(0, len(combined), length)]

    def close(self) -> None:
        """Release the transport's connection resources (loop thread, sockets).

        Idempotent — delegates to the cluster transport's ``close``.  The
        facade's context-manager ``__exit__`` calls this so deployments
        never leak server connections.
        """
        self.transport.close()

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return "ClusterClient(servers=%d, scheme=%s, quorum=%d)" % (
            self.num_servers,
            self.scheme.name,
            self._read_quorum,
        )
