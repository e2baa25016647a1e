"""Cluster deployment: one secret-shared node table per server.

The single-server encode stores *the* server share of every node polynomial
in one table.  A deployment generalises this: the chosen
:class:`~repro.secretshare.scheme.SharingScheme` splits each polynomial into
``n`` slices and the streaming encoder writes slice ``i`` into server ``i``'s
table.  All tables carry identical ``pre``/``post``/``parent`` structure
(structural queries can be answered by any one server); only the ``share``
column differs.  Each table is served by a plain, unmodified
:class:`~repro.filters.server.ServerFilter` — a server neither knows nor
cares that it holds one slice of a larger deployment.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Union

from repro.encode.encoder import EncodingStats
from repro.encode.tagmap import TagMap
from repro.poly.ring import QuotientRing
from repro.prg.generator import KeyedPRG
from repro.secretshare import SharingError, SharingScheme, make_scheme
from repro.storage.database import Database
from repro.storage.table import NODE_TABLE_NAME, Table
from repro.xmldoc.parser import ContentHandler


class ClusterDeployment:
    """The result of deploying one document across ``n`` share servers.

    Only ``databases`` (one per server) live on the servers.  The tag map,
    seed/PRG, ring and scheme stay with the client — exactly the secret
    material needed to query the cluster.
    """

    def __init__(
        self,
        databases: List[Database],
        ring: QuotientRing,
        tag_map: TagMap,
        prg: KeyedPRG,
        scheme: SharingScheme,
        stats: EncodingStats,
        per_server_stats: List[EncodingStats],
    ):
        if len(databases) != scheme.num_servers:
            raise SharingError(
                "deployment has %d databases but the scheme shards across %d servers"
                % (len(databases), scheme.num_servers)
            )
        self.databases = databases
        self.ring = ring
        self.tag_map = tag_map
        self.prg = prg
        self.scheme = scheme
        #: aggregate size/time accounting across every server
        self.stats = stats
        #: per-server size accounting (payload is replicated n times for
        #: additive/Shamir slices — the storage price of the redundancy)
        self.per_server_stats = per_server_stats

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    @property
    def num_servers(self) -> int:
        """Number of share servers in the deployment."""
        return self.scheme.num_servers

    @property
    def threshold(self) -> int:
        """Server shares needed per reconstruction."""
        return self.scheme.threshold

    # ------------------------------------------------------------------
    # Access (mirroring EncodedDatabase where it makes sense)
    # ------------------------------------------------------------------

    @property
    def node_tables(self) -> List[Table]:
        """Every server's node table, in server order."""
        return [database.table(NODE_TABLE_NAME) for database in self.databases]

    @property
    def node_table(self) -> Table:
        """Server 0's node table (structural twin of every other)."""
        return self.node_tables[0]

    @property
    def sharing(self) -> SharingScheme:
        """The scheme bound to this deployment (alias of ``scheme``)."""
        return self.scheme

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return "ClusterDeployment(servers=%d, threshold=%d, nodes=%d, field=F_%d, scheme=%s)" % (
            self.num_servers,
            self.threshold,
            len(self.node_table),
            self.ring.field.order,
            self.scheme.name,
        )


def deploy(
    encoder,
    feed: Callable[[ContentHandler], None],
    input_bytes: int,
    servers: int = 1,
    threshold: Optional[int] = None,
    sharing: Union[str, SharingScheme] = "additive",
    databases: Optional[List[Database]] = None,
) -> ClusterDeployment:
    """Stream a document into one node table per server.

    ``feed`` drives the encoder's event handler (a parse of XML text or a
    replay of a parsed tree); ``input_bytes`` is the document's serialised
    size.  See :meth:`Encoder.deploy_text` for the other options.
    """
    if isinstance(sharing, SharingScheme):
        scheme = sharing
        if scheme.ring != encoder.ring or scheme.prg != encoder.prg:
            raise SharingError("the supplied scheme is bound to a different ring or PRG")
    else:
        scheme = make_scheme(sharing, encoder.ring, encoder.prg, servers, threshold)
    if databases is None:
        databases = [Database() for _ in range(scheme.num_servers)]
    elif len(databases) != scheme.num_servers:
        raise SharingError(
            "got %d databases for a %d-server scheme" % (len(databases), scheme.num_servers)
        )

    tables = [database.add_table(encoder.new_table()) for database in databases]
    handler, elapsed = encoder.stream(feed, tables, scheme)
    per_server_stats = [
        encoder._build_stats(table, input_bytes, handler.node_count, elapsed)
        for table in tables
    ]
    stats = EncodingStats(
        node_count=handler.node_count,
        input_bytes=input_bytes,
        payload_bytes=sum(s.payload_bytes for s in per_server_stats),
        structure_bytes=sum(s.structure_bytes for s in per_server_stats),
        index_bytes=sum(s.index_bytes for s in per_server_stats),
        encoding_seconds=elapsed,
    )
    return ClusterDeployment(
        databases=databases,
        ring=encoder.ring,
        tag_map=encoder.tag_map,
        prg=encoder.prg,
        scheme=scheme,
        stats=stats,
        per_server_stats=per_server_stats,
    )
