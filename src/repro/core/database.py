"""The ``EncryptedXMLDatabase`` facade."""

from __future__ import annotations

import warnings
from typing import Any, Callable, Dict, Iterable, List, Optional, Union

from repro.core.config import (
    ClusterConfig,
    DatabaseConfig,
    FieldConfig,
    QueryConfigError,
    TransportConfig,
    WriteConfig,
)
from repro.encode.deploy import ClusterDeployment
from repro.encode.encoder import EncodedDatabase, Encoder
from repro.encode.mutate import DocumentState, WriteDelta
from repro.encode.tagmap import TagMap
from repro.engines.advanced import AdvancedQueryEngine
from repro.engines.base import QueryResult
from repro.engines.plaintext import PlaintextEngine
from repro.engines.simple import SimpleQueryEngine
from repro.filters.client import ClientFilter
from repro.filters.cluster import ClusterClient
from repro.filters.interface import MatchRule
from repro.filters.server import ServerFilter
from repro.gf.factory import make_field
from repro.metrics.counters import EvaluationCounters
from repro.prg.seed import SeedFile, generate_seed
from repro.rmi.aio import AsyncClusterTransport
from repro.rmi.cluster import ClusterTransport, ClusterTransportBase
from repro.rmi.proxy import Registry
from repro.rmi.server import SocketCluster
from repro.rmi.stats import CallStats
from repro.rmi.transport import SimulatedTransport
from repro.rmi.write import WriteCoordinator, WriteJournal
from repro.trie.transform import TrieTransformer
from repro.xmldoc.nodes import XMLDocument, XMLElement
from repro.xmldoc.parser import parse_string
from repro.xpath.ast import Query
from repro.xpath.parser import parse_query
from repro.xpath.rewrite import rewrite_for_trie

# QueryConfigError moved to repro.core.config with the typed config
# surface; imported above and re-exported here, its historical home.
__all__ = ["EncryptedXMLDatabase", "QueryConfigError", "CLUSTER_TRANSPORT_TYPES"]

#: the base class of the transports presenting the scatter-gather cluster
#: surface (per-server stats, quorum reads, the makespan round clock)
CLUSTER_TRANSPORT_TYPES = ClusterTransportBase

#: one process-wide deprecation notice for the legacy kwarg surface
_legacy_kwargs_warned = False


def _warn_legacy_kwargs() -> None:
    global _legacy_kwargs_warned
    if _legacy_kwargs_warned:
        return
    _legacy_kwargs_warned = True
    warnings.warn(
        "passing flat keyword arguments to EncryptedXMLDatabase.from_document "
        "is deprecated; build a repro.core.config.DatabaseConfig and pass "
        "from_document(document, config=...) instead",
        DeprecationWarning,
        stacklevel=4,
    )


class EncryptedXMLDatabase:
    """A queryable, secret-shared encoding of one XML document.

    Construction encodes the document; afterwards the instance holds

    * the *server side*: one relational node table per share server, each
      behind its own :class:`~repro.filters.server.ServerFilter` — a single
      server in the classic two-party setup, ``n`` of them for a cluster
      deployment (``servers=n``), fronted by a
      :class:`~repro.filters.cluster.ClusterClient`,
    * the *client side*: tag map, seed/PRG, the
      :class:`~repro.filters.client.ClientFilter` and the two query engines,
    * optionally the plaintext document and a
      :class:`~repro.engines.plaintext.PlaintextEngine` used as ground truth
      by the accuracy experiments (a real deployment would discard it).
    """

    def __init__(
        self,
        encoded: Union[EncodedDatabase, ClusterDeployment],
        document: Optional[XMLDocument],
        use_rmi: bool,
        transport: Union[SimulatedTransport, ClusterTransportBase],
        counters: EvaluationCounters,
        trie_transformer: Optional[TrieTransformer],
        batched: bool = True,
        read_quorum: Optional[int] = None,
        verify_shares: bool = True,
        hedge: Union[bool, float] = False,
        prefetch: int = 0,
        socket_cluster: Optional["SocketCluster"] = None,
        write_config: Optional[WriteConfig] = None,
    ):
        self.encoded = encoded
        self.document = document
        self.counters = counters
        self.transport = transport
        self._trie_transformer = trie_transformer
        #: the subprocess fleet behind a ``transport="asyncio"`` deployment
        #: (``None`` for in-process transports); owned — :meth:`close`
        #: shuts it down
        self.socket_cluster = socket_cluster
        self._closed = False

        backend = encoded.ring.kernel.name
        if isinstance(transport, CLUSTER_TRANSPORT_TYPES):
            # Cluster path: the transport already owns one ServerFilter per
            # share table; the ClusterClient recombines their replies behind
            # the single-server surface the ClientFilter expects.  ``use_rmi``
            # is moot — every cluster call crosses a transport by definition.
            if not isinstance(encoded, ClusterDeployment):
                raise QueryConfigError(
                    "a ClusterTransport needs a ClusterDeployment, got %r" % type(encoded).__name__
                )
            if socket_cluster is not None:
                # Socket deployment: the shards live in child processes, so
                # there are no in-process ServerFilter objects to hand out.
                self.server_filters: List[ServerFilter] = []
                self.server_filter = None
            else:
                self.server_filters = list(transport.servers)
                self.server_filter = self.server_filters[0]
            for stats in transport.per_server_stats:
                stats.backend = backend
            self.cluster_client: Optional[ClusterClient] = ClusterClient(
                transport,
                encoded.sharing,
                read_quorum=read_quorum,
                verify_shares=verify_shares,
                # The asyncio transport hedges itself on observed RTT
                # percentiles; the client-side trigger compares *modeled*
                # latencies and stays off there.
                hedge=False if isinstance(transport, AsyncClusterTransport) else hedge,
                prefetch=prefetch,
            )
            server_endpoint = self.cluster_client
        else:
            server_filter = ServerFilter(encoded.node_table, encoded.ring)
            self.server_filter = server_filter
            self.server_filters = [server_filter]
            self.cluster_client = None
            # Stamp the trace with the arithmetic backend that produced it.
            transport.stats.backend = backend
            if use_rmi:
                registry = Registry(transport)
                registry.bind("ServerFilter", server_filter)
                server_endpoint = registry.lookup("ServerFilter")
            else:
                server_endpoint = server_filter
        self.client_filter = ClientFilter(
            server_endpoint, encoded.sharing, encoded.tag_map, counters=counters, batched=batched
        )
        self._engines = {
            "simple": SimpleQueryEngine(self.client_filter),
            "advanced": AdvancedQueryEngine(self.client_filter),
        }
        self._plaintext = PlaintextEngine(document) if document is not None else None
        self._statistics = None
        self._cost_model = None
        #: the versioned write surface (``None`` unless WriteConfig(enabled=True))
        self.document_state: Optional[DocumentState] = None
        self.write_coordinator: Optional[WriteCoordinator] = None
        if write_config is not None and write_config.enabled:
            if self.cluster_client is None or not isinstance(
                encoded, ClusterDeployment
            ):
                raise QueryConfigError(
                    "the write path needs a cluster deployment"
                )
            if document is None:
                raise QueryConfigError(
                    "the write path edits the retained plaintext tree; "
                    "it conflicts with keep_plaintext=False"
                )
            self.document_state = DocumentState(
                document, encoded.tag_map, encoded.sharing
            )
            self.write_coordinator = WriteCoordinator(
                transport,
                journal=WriteJournal(capacity=write_config.journal_capacity),
                prg=encoded.prg,
            )
            if write_config.read_repair:
                self.cluster_client.enable_read_repair(
                    self.write_coordinator.repair_stale
                )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_document(
        cls,
        document: XMLDocument,
        config: Optional[DatabaseConfig] = None,
        **legacy_kwargs,
    ) -> "EncryptedXMLDatabase":
        """Encode an in-memory document.

        The configuration surface is a typed
        :class:`~repro.core.config.DatabaseConfig` composing
        :class:`~repro.core.config.FieldConfig` (encoding),
        :class:`~repro.core.config.ClusterConfig` (share fleet),
        :class:`~repro.core.config.TransportConfig` (wire/latency model)
        and :class:`~repro.core.config.WriteConfig` (the versioned write
        path) — pass it as ``from_document(document, config=...)``.  The
        historical flat keyword arguments keep working through a mapping
        shim (one process-wide :class:`DeprecationWarning`); mixing
        ``config=`` with legacy kwargs is rejected.  Every conflict rule
        lives in :meth:`DatabaseConfig.validated` and raises the usual
        :class:`QueryConfigError`.

        The legacy keyword semantics, unchanged:

        ``tag_names`` supplies the map alphabet (e.g. the DTD's element
        names); when omitted it is derived from the document itself.  ``p``
        and ``e`` pin the field to ``F_{p^e}`` (the paper uses ``p=83, e=1``
        for XMark); when omitted the smallest prime able to hold the alphabet
        is chosen.  With ``use_trie=True`` every text payload is rewritten
        into trie elements before encoding so ``contains(text(), …)`` queries
        work, and the map alphabet is extended with the trie characters.
        ``batched=False`` restores the per-node remote protocol (one call per
        candidate instead of one per query step) — useful for measuring what
        the batched pipeline saves.

        ``servers`` / ``threshold`` / ``sharing`` deploy the document across
        an n-server share cluster instead of the classic single server:
        ``sharing="additive"`` splits n-of-n with regenerable PRG lanes,
        ``sharing="shamir"`` is (k, n) threshold sharing tolerating
        ``n - k`` failed servers.  ``cluster=True`` forces the cluster stack
        even for a lone additive server (useful for differential tests);
        ``latency_jitter`` spreads the simulated latencies per server, and
        ``read_quorum`` / ``verify_shares`` tune the
        :class:`~repro.filters.cluster.ClusterClient` (see there).

        ``concurrency`` sets the modeled makespan clock of the simulated
        cluster: ``True`` (the default) charges each scatter round its
        critical path, ``False`` the per-server latency *sum*; replies and
        counters are identical either way.  ``round_overhead`` adds a fixed
        modeled cost per scatter round, and ``hedge`` / ``prefetch`` enable
        the latency-optimal read-path options of the
        :class:`~repro.filters.cluster.ClusterClient`: hedged straggler
        co-issue and structural prefetch overlapping in-flight share reads.

        ``transport="asyncio"`` deploys the share servers as real child
        processes, each serving its node table over a loopback TCP socket
        (see :class:`~repro.rmi.server.SocketCluster`), and talks to them
        over one *multiplexed* connection per server, all driven by a
        single event loop (see :class:`~repro.rmi.aio.AsyncClusterTransport`)
        behind the unchanged sync facade.  Every remote call then crosses
        an actual wire, the stats record *measured* latency and payload
        bytes, and first-k quorum reads are admitted on real arrival.
        ``hedge`` is reinterpreted as the observed-RTT *quantile* in
        ``(0, 1)`` (or ``True`` for 0.95) past which a short quorum
        co-issues spares.  The modeled-latency knobs (``per_call_latency``
        / ``per_byte_latency`` / ``latency_jitter``) and
        ``concurrency=False`` do not apply and are rejected.  Use the
        instance as a context manager — or call :meth:`close` — to shut the
        server fleet down.
        """
        if config is not None and legacy_kwargs:
            raise QueryConfigError(
                "pass either config= or the legacy keyword arguments, not both "
                "(got config plus %s)" % ", ".join(sorted(legacy_kwargs))
            )
        if config is None:
            if legacy_kwargs:
                _warn_legacy_kwargs()
            config = DatabaseConfig.from_legacy_kwargs(**legacy_kwargs)
        config = config.validated()
        field_cfg = config.field
        cluster_cfg = config.cluster
        transport_cfg = config.transport
        write_cfg = config.write
        cluster = cluster_cfg.cluster  # resolved to a bool by validated()

        trie_transformer = None
        if field_cfg.use_trie:
            trie_transformer = TrieTransformer(compressed=field_cfg.trie_compressed)
            document = trie_transformer.transform_document(document)

        if field_cfg.tag_names is None:
            names: List[str] = sorted(document.distinct_tags())
        else:
            names = list(dict.fromkeys(field_cfg.tag_names))
            missing = document.distinct_tags() - set(names)
            if missing:
                names.extend(sorted(missing))
        if trie_transformer is not None:
            for extra in trie_transformer.tag_alphabet():
                if extra not in names:
                    names.append(extra)

        field = make_field(field_cfg.p, field_cfg.e) if field_cfg.p is not None else None
        tag_map = TagMap.from_names(
            names, field=field, shuffle_seed=field_cfg.map_shuffle_seed
        )
        seed = field_cfg.seed if field_cfg.seed is not None else generate_seed()
        encoder = Encoder(
            tag_map,
            seed,
            btree_order=field_cfg.btree_order,
            index_columns=field_cfg.index_columns,
        )

        transport = transport_cfg.transport
        counters = EvaluationCounters()
        socket_cluster: Optional[SocketCluster] = None
        if cluster:
            deployment = encoder.deploy_document(
                document,
                servers=cluster_cfg.servers,
                threshold=cluster_cfg.threshold,
                sharing=cluster_cfg.sharing,
            )
            if transport == "asyncio":
                socket_cluster = SocketCluster.from_deployment(deployment)
                transport_channel: Union[SimulatedTransport, ClusterTransportBase] = (
                    socket_cluster.cluster_transport(
                        round_overhead=transport_cfg.round_overhead,
                        hedge=transport_cfg.hedge,
                    )
                )
            else:
                server_filters = [
                    ServerFilter(table, deployment.ring) for table in deployment.node_tables
                ]
                transport_channel = ClusterTransport(
                    server_filters,
                    per_call_latency=transport_cfg.per_call_latency,
                    per_byte_latency=transport_cfg.per_byte_latency,
                    latency_jitter=transport_cfg.latency_jitter,
                    concurrency=transport_cfg.concurrency,
                    round_overhead=transport_cfg.round_overhead,
                )
            encoded: Union[EncodedDatabase, ClusterDeployment] = deployment
        else:
            encoded = encoder.encode_document(document)
            transport_channel = SimulatedTransport(
                per_call_latency=transport_cfg.per_call_latency,
                per_byte_latency=transport_cfg.per_byte_latency,
                stats=CallStats(),
            )
        try:
            return cls(
                encoded=encoded,
                document=document if config.keep_plaintext else None,
                use_rmi=transport_cfg.use_rmi,
                transport=transport_channel,
                counters=counters,
                trie_transformer=trie_transformer,
                batched=transport_cfg.batched,
                read_quorum=cluster_cfg.read_quorum,
                verify_shares=cluster_cfg.verify_shares,
                hedge=transport_cfg.hedge,
                prefetch=transport_cfg.prefetch,
                socket_cluster=socket_cluster,
                write_config=write_cfg,
            )
        except Exception:
            # Never leak a spawned server fleet on a construction failure
            # (e.g. an invalid read_quorum reaching the ClusterClient).
            if socket_cluster is not None:
                socket_cluster.shutdown()
            raise

    @classmethod
    def from_text(cls, xml_text: str, **kwargs) -> "EncryptedXMLDatabase":
        """Encode XML text (see :meth:`from_document` for keyword options)."""
        return cls.from_document(parse_string(xml_text), **kwargs)

    @classmethod
    def from_file(cls, path: str, encoding: str = "utf-8", **kwargs) -> "EncryptedXMLDatabase":
        """Encode an XML file (see :meth:`from_document` for keyword options)."""
        with open(path, "r", encoding=encoding) as handle:
            return cls.from_text(handle.read(), **kwargs)

    # ------------------------------------------------------------------
    # Mutations (the versioned write path)
    # ------------------------------------------------------------------

    def _mutate(self, edit: Callable[[DocumentState], WriteDelta]) -> Dict[str, Any]:
        """Run one edit against the document state and ship its delta.

        The edit computes the incremental re-encode
        (:class:`~repro.encode.mutate.WriteDelta`), the coordinator drives
        it through two-phase prepare/commit, and the client-side caches
        that index the old numbering (plaintext engine, statistics, cost
        model, per-row versions) are refreshed before the report returns.
        """
        if self.write_coordinator is None or self.document_state is None:
            raise QueryConfigError(
                "this database was built without the write path; enable it "
                "with WriteConfig(enabled=True) (legacy: enable_writes=True)"
            )
        delta = edit(self.document_state)
        report = self.write_coordinator.apply(delta)
        if self.cluster_client is not None:
            self.cluster_client.note_versions(self.document_state.versions())
        # Mutations renumber the tree: every cache derived from the old
        # pre-order is stale the moment the delta commits.
        self._plaintext = PlaintextEngine(self.document)
        self._statistics = None
        self._cost_model = None
        return report

    def update_tag(self, pre: int, new_tag: str) -> Dict[str, Any]:
        """Rename the node at ``pre`` across the deployed fleet."""
        return self._mutate(lambda state: state.update_tag(pre, new_tag))

    def insert_subtree(
        self, parent_pre: int, element: XMLElement, index: Optional[int] = None
    ) -> Dict[str, Any]:
        """Graft ``element`` under ``parent_pre`` (``index=None`` appends)."""
        return self._mutate(
            lambda state: state.insert_subtree(parent_pre, element, index=index)
        )

    def delete_subtree(self, pre: int) -> Dict[str, Any]:
        """Remove the node at ``pre`` and its subtree from every server."""
        return self._mutate(lambda state: state.delete_subtree(pre))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release every transport resource this database owns.

        Drains in-flight scatter calls and closes the connections and their
        event loop (:meth:`~repro.rmi.aio.AsyncClusterTransport.close`),
        then — for a ``transport="asyncio"`` deployment — stops the server
        subprocess fleet and removes its on-disk tables.  Idempotent, and
        wired into the context-manager ``__exit__``, so examples and CI
        runs never leak threads, sockets or orphan server processes.
        """
        if self._closed:
            return
        self._closed = True
        if self.cluster_client is not None:
            self.cluster_client.close()
        elif isinstance(self.transport, CLUSTER_TRANSPORT_TYPES):
            self.transport.close()
        if self.socket_cluster is not None:
            self.socket_cluster.shutdown()

    def __enter__(self) -> "EncryptedXMLDatabase":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def query(
        self,
        xpath: Union[str, Query],
        engine: str = "advanced",
        strict: bool = False,
    ) -> QueryResult:
        """Run an XPath query against the encrypted store.

        ``engine`` selects ``"simple"``, ``"advanced"`` or ``"auto"`` (pick
        per query using the client-side cost model); ``strict`` selects the
        equality test (exact results) over the containment test (cheap,
        possibly over-approximate results).
        """
        if engine == "auto":
            engine = self.recommend_engine(xpath)
        selected = self._engines.get(engine)
        if selected is None:
            raise QueryConfigError(
                "unknown engine %r; expected one of %s" % (engine, sorted(self._engines) + ["auto"])
            )
        parsed = parse_query(xpath) if isinstance(xpath, str) else xpath
        if self._trie_transformer is not None:
            parsed = rewrite_for_trie(parsed, self._trie_transformer)
        elif parsed.has_predicates():
            # Without the trie representation contains() cannot be answered;
            # path predicates over tags are still fine.
            parsed = parsed
        rule = MatchRule.from_strict_flag(strict)
        result = selected.execute(parsed, rule=rule)
        # Counted after execution so aborted queries do not dilute the
        # per-query call/byte averages.
        if isinstance(self.transport, CLUSTER_TRANSPORT_TYPES):
            self.transport.count_query()
        else:
            self.transport.stats.count_query()
        return result

    def plaintext_query(self, xpath: Union[str, Query]) -> List[int]:
        """Ground-truth evaluation on the retained plaintext document.

        When the database was built with the trie transform, the retained
        document is the *transformed* one, so text predicates are rewritten
        into trie paths here as well — both sides then answer the same query
        over the same tree and the results are directly comparable.
        """
        if self._plaintext is None:
            raise QueryConfigError(
                "the plaintext document was not retained (keep_plaintext=False)"
            )
        parsed = parse_query(xpath) if isinstance(xpath, str) else xpath
        if self._trie_transformer is not None:
            parsed = rewrite_for_trie(parsed, self._trie_transformer)
        return self._plaintext.execute(parsed)

    def recommend_engine(self, xpath: Union[str, Query]) -> str:
        """Pick an engine for ``xpath`` using the client-side cost model.

        The model needs the structural statistics collected from the
        plaintext document at encoding time; when the plaintext was not
        retained the advanced engine is recommended (it is the safer default
        on the descendant-heavy queries where the choice matters).
        """
        from repro.engines.costmodel import DocumentStatistics, EngineCostModel

        if self.document is None:
            return "advanced"
        if self._cost_model is None:
            self._statistics = DocumentStatistics.from_document(self.document)
            self._cost_model = EngineCostModel(self._statistics)
        parsed = parse_query(xpath) if isinstance(xpath, str) else xpath
        if self._trie_transformer is not None:
            parsed = rewrite_for_trie(parsed, self._trie_transformer)
        return self._cost_model.choose_engine(parsed)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def encoding_stats(self):
        """Size and time accounting of the encoding run."""
        return self.encoded.stats

    @property
    def is_cluster(self) -> bool:
        """Whether this database runs against an n-server share cluster."""
        return isinstance(self.transport, CLUSTER_TRANSPORT_TYPES)

    @property
    def num_servers(self) -> int:
        """Number of share servers behind the query path."""
        return self.transport.num_servers if self.is_cluster else 1

    @property
    def transport_stats(self) -> CallStats:
        """Remote-call statistics of the simulated RMI transport.

        For a cluster this is a merged *snapshot* of every server's stats
        (see :meth:`~repro.rmi.cluster.ClusterTransport.aggregate_stats`);
        use :attr:`per_server_stats` for the per-server traces and
        :meth:`reset_transport_stats` to zero the live counters.
        """
        if self.is_cluster:
            return self.transport.aggregate_stats()
        return self.transport.stats

    @property
    def per_server_stats(self) -> List[CallStats]:
        """The live per-server call statistics (one entry per server)."""
        if self.is_cluster:
            return self.transport.per_server_stats
        return [self.transport.stats]

    @property
    def makespan(self) -> float:
        """Modeled wall-clock of the traffic so far (critical path, not sum).

        For a cluster this is the scatter-round clock of
        :meth:`~repro.rmi.cluster.ClusterTransport.makespan`; the
        single-server path is sequential by construction, so its makespan is
        exactly the accumulated ``simulated_latency``.
        """
        if self.is_cluster:
            return self.transport.makespan()
        return self.transport.stats.simulated_latency

    def reset_transport_stats(self) -> None:
        """Zero the remote-call counters (between experiment runs)."""
        if self.is_cluster:
            self.transport.reset_stats()
        else:
            self.transport.stats.reset()

    @property
    def node_count(self) -> int:
        """Number of encoded element nodes."""
        return len(self.encoded.node_table)

    @property
    def field_order(self) -> int:
        """Order of the finite field used by the encoding."""
        return self.encoded.ring.field.order

    def tag_of(self, pre: int) -> Optional[str]:
        """Tag name of a node (requires the retained plaintext document)."""
        if self._plaintext is None:
            return None
        node = self._plaintext.numbering.by_pre(pre)
        return node.tag if node else None

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return "EncryptedXMLDatabase(nodes=%d, field=F_%d, rmi=%s)" % (
            self.node_count,
            self.field_order,
            self.transport is not None,
        )
