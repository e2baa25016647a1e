"""The streaming encoder: XML events → secret-shared node rows.

Equivalent of the prototype's ``MySQLEncode``.  The encoder walks the
document with SAX-style events and maintains one frame per open element.
Each frame accumulates the product of the polynomials of its already-closed
children, so when an element closes its polynomial is a single ring
multiplication away:

    f(node) = (x − map(tag)) · Π f(child)

The polynomial is then split additively — the client share is produced by the
keyed PRG from ``(seed, pre)`` and discarded, the server share is stored in
the node table together with the pre/post/parent numbers.

The per-node ring multiplications (one sparse ``x - tag`` product plus one
dense running child-product update) dominate encoding time; they run on the
field's :class:`~repro.gf.kernels.FieldKernel` (Kronecker-substitution
convolution for prime fields, log/exp tables for extension fields) —
``benchmarks/bench_field_kernels.py`` quantifies the speedup over the naive
dispatched arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.encode.tagmap import TagMap
from repro.metrics.timer import Stopwatch
from repro.poly.ring import QuotientRing
from repro.prg.generator import KeyedPRG
from repro.secretshare.additive import AdditiveSharing
from repro.storage.database import Database
from repro.storage.table import DEFAULT_INDEX_COLUMNS, NODE_TABLE_NAME, Table
from repro.xmldoc.nodes import XMLDocument
from repro.xmldoc.parser import ContentHandler, StreamingParser, replay
from repro.xmldoc.serializer import document_byte_size

#: byte width charged per pre/post/parent integer (MySQL INT)
STRUCTURE_INT_BYTES = 4


@dataclass(frozen=True)
class EncodingStats:
    """Size and time accounting for one encoding run (figure 4's rows)."""

    #: number of element nodes encoded
    node_count: int
    #: serialised size of the input XML in bytes
    input_bytes: int
    #: bytes of polynomial share payload stored on the server
    payload_bytes: int
    #: bytes of pre/post/parent structure columns
    structure_bytes: int
    #: bytes of the B-tree indexes on pre/post/parent
    index_bytes: int
    #: wall-clock encoding time in seconds
    encoding_seconds: float

    @property
    def output_bytes(self) -> int:
        """Total stored bytes excluding indexes (the paper's "output size")."""
        return self.payload_bytes + self.structure_bytes

    @property
    def total_bytes(self) -> int:
        """Stored bytes including indexes."""
        return self.output_bytes + self.index_bytes

    @property
    def structure_fraction(self) -> float:
        """Fraction of the output caused by pre/post/parent (paper: ≈17%)."""
        if self.output_bytes == 0:
            return 0.0
        return self.structure_bytes / self.output_bytes

    @property
    def expansion_ratio(self) -> float:
        """Output size over input size (paper: ≈1.5× for the payload)."""
        if self.input_bytes == 0:
            return 0.0
        return self.output_bytes / self.input_bytes


class EncodedDatabase:
    """The result of encoding: the server database plus client-side context.

    Only ``database`` lives on the server.  The tag map, seed/PRG and ring
    stay with the client — they are exactly the secret material needed to
    query.
    """

    def __init__(
        self,
        database: Database,
        ring: QuotientRing,
        tag_map: TagMap,
        prg: KeyedPRG,
        stats: EncodingStats,
    ):
        self.database = database
        self.ring = ring
        self.tag_map = tag_map
        self.prg = prg
        self.stats = stats

    @property
    def node_table(self) -> Table:
        """The server's node table."""
        return self.database.table(NODE_TABLE_NAME)

    @property
    def sharing(self) -> AdditiveSharing:
        """An :class:`AdditiveSharing` bound to this database's ring and PRG."""
        return AdditiveSharing(self.ring, self.prg)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return "EncodedDatabase(nodes=%d, field=F_%d)" % (
            len(self.node_table),
            self.ring.field.order,
        )


class _EncodingHandler(ContentHandler):
    """SAX handler performing the actual streaming encode.

    ``tables`` holds one node table per server and ``scheme`` the sharing
    scheme producing one stored slice per table — the classic single-server
    encode is simply the one-table case with the two-party additive scheme
    (whose single "slice" is the familiar server share).

    The handler is *array-resident*: per-node polynomials stay raw kernel
    coefficient vectors (int64 ndarrays under the numpy backend) rather
    than ring objects, a parent's running child product is lazily ``None``
    until the first child closes (skipping the multiply-by-one), and the
    finished ``(pre, post, parent, polynomial)`` records buffer until a
    flush splits the whole batch through the scheme's
    ``server_share_rows`` and places each server's share rows straight
    into its table's columns.  The arithmetic order is unchanged, so the
    stored shares are bit-identical to the historical per-node path on
    every kernel backend.
    """

    #: buffered nodes per share-split/placement flush
    _FLUSH_ROWS = 1024

    def __init__(self, encoder: "Encoder", tables: Sequence[Table], scheme):
        self._encoder = encoder
        self._tables = list(tables)
        self._ring = encoder.ring
        # One kernel resolution per document rather than per node: the
        # backend cannot change mid-encode, and the generation check in
        # Field.kernel is measurable across 10^4 nodes.
        self._kernel = self._ring.kernel
        self._scheme = scheme
        self._tag_map = encoder.tag_map
        # One frame per open element:
        # [pre, tag_value, running_child_product_or_None, parent_pre]
        self._stack: List[List] = []
        self._pre_counter = 0
        self._post_counter = 0
        self.node_count = 0
        # finished nodes waiting for the next flush:
        # (pre, post, parent, polynomial) in close order
        self._pending: List[tuple] = []

    def start_element(self, tag: str, attributes: Dict[str, str]) -> None:
        self._pre_counter += 1
        tag_value = self._tag_map.value(tag)
        parent_pre = self._stack[-1][0] if self._stack else 0
        self._stack.append([self._pre_counter, tag_value, None, parent_pre])

    def end_element(self, tag: str) -> None:
        self._post_counter += 1
        pre, tag_value, child_product, parent_pre = self._stack.pop()
        kernel = self._kernel
        if child_product is None:  # leaf: (x - tag) * 1
            polynomial = kernel.linear_factor(tag_value, self._ring.length)
            linear_root = tag_value
        else:
            polynomial = kernel.cyclic_mul_linear(tag_value, child_product)
            linear_root = None
        pending = self._pending
        pending.append((pre, self._post_counter, parent_pre, polynomial))
        self.node_count += 1
        if self._stack:
            parent_frame = self._stack[-1]
            if parent_frame[2] is None:  # first child: product * 1 == product
                parent_frame[2] = polynomial
            elif linear_root is not None:
                # a closing leaf contributes the sparse factor (x - tag):
                # the same ring product as convolving with its polynomial,
                # but a cyclic shift-and-subtract instead of a dense pass
                parent_frame[2] = kernel.cyclic_mul_linear(linear_root, parent_frame[2])
            else:
                parent_frame[2] = kernel.cyclic_convolve(parent_frame[2], polynomial)
        if len(pending) >= self._FLUSH_ROWS:
            self.flush()

    def flush(self) -> None:
        """Split every buffered node and place the share rows into the
        tables; called on batch boundaries and once at the end of a
        document."""
        pending = self._pending
        if not pending:
            return
        pres = [record[0] for record in pending]
        posts = [record[1] for record in pending]
        parents = [record[2] for record in pending]
        share_rows = self._scheme.server_share_rows([record[3] for record in pending], pres)
        for table, rows in zip(self._tables, share_rows):
            table.place(pres, posts, parents, rows)
        self._pending = []

    def characters(self, text: str) -> None:
        # Text content is ignored by the tag-name encoding; the trie
        # transform rewrites it into elements *before* encoding when data
        # search is wanted.
        return None


class Encoder:
    """Encodes XML documents into a server database of secret-shared rows.

    ``btree_order`` and ``index_columns`` describe the B+-tree indexes of
    the paper's MySQL schema; the columnar store builds none, and they only
    feed the index-size model of :class:`EncodingStats` (Fig. 4) and the
    index ablation (see :mod:`repro.storage.table`).
    """

    def __init__(
        self,
        tag_map: TagMap,
        seed: bytes,
        btree_order: int = 64,
        index_columns: Optional[List[str]] = None,
        prg_memo_size: int = 1024,
    ):
        self.tag_map = tag_map
        self.field = tag_map.field
        self.ring = QuotientRing(self.field)
        self.prg = KeyedPRG(seed, self.field, memo_size=prg_memo_size)
        self.sharing = AdditiveSharing(self.ring, self.prg)
        self._btree_order = btree_order
        self._index_columns = list(
            index_columns if index_columns is not None else DEFAULT_INDEX_COLUMNS
        )

    # ------------------------------------------------------------------
    # Encoding entry points
    # ------------------------------------------------------------------

    def encode_document(
        self, document: XMLDocument, database: Optional[Database] = None
    ) -> EncodedDatabase:
        """Encode an in-memory document, replaying its tree as parse events."""
        return self._encode(_replayer(document), document_byte_size(document), database)

    def encode_text(self, xml_text: str, database: Optional[Database] = None) -> EncodedDatabase:
        """Encode XML text, streaming through the SAX parser."""
        return self._encode(_parser(xml_text), len(xml_text.encode("utf-8")), database)

    def encode_file(self, path: str, database: Optional[Database] = None, encoding: str = "utf-8") -> EncodedDatabase:
        """Encode an XML file from disk."""
        with open(path, "r", encoding=encoding) as handle:
            return self.encode_text(handle.read(), database=database)

    def _encode(
        self, feed: Callable[[ContentHandler], None], input_bytes: int, database: Optional[Database]
    ) -> EncodedDatabase:
        database = database or Database()
        table = database.add_table(self.new_table())
        handler, elapsed = self.stream(feed, [table], self.sharing)
        stats = self._build_stats(table, input_bytes, handler.node_count, elapsed)
        return EncodedDatabase(database, self.ring, self.tag_map, self.prg, stats)

    def new_table(self) -> Table:
        """An empty node table laid out for this encoder's ring."""
        return Table(
            width=self.ring.length,
            index_columns=self._index_columns,
            btree_order=self._btree_order,
        )

    def stream(self, feed: Callable[[ContentHandler], None], tables: Sequence[Table], scheme):
        """Run ``feed`` (a parse or a replay) into one table per server;
        returns the finished handler and the elapsed seconds."""
        handler = _EncodingHandler(self, tables, scheme)
        watch = Stopwatch().start()
        feed(handler)
        handler.flush()
        return handler, watch.stop()

    # ------------------------------------------------------------------
    # Cluster deployment entry points
    # ------------------------------------------------------------------

    def deploy_document(self, document: XMLDocument, **kwargs):
        """Encode a document into an n-server cluster deployment, replaying
        its tree as parse events.

        See :meth:`deploy_text` for the keyword options.
        """
        from repro.encode.deploy import deploy

        return deploy(self, _replayer(document), document_byte_size(document), **kwargs)

    def deploy_text(
        self,
        xml_text: str,
        servers: int = 1,
        threshold: Optional[int] = None,
        sharing: Union[str, object] = "additive",
        databases: Optional[List[Database]] = None,
    ):
        """Encode XML text into one node table per server.

        ``sharing`` names the scheme (``"additive"`` / ``"shamir"``) or is a
        ready :class:`~repro.secretshare.scheme.SharingScheme` instance;
        ``servers`` / ``threshold`` are its (n, k) parameters.  Each server's
        table carries the same ``pre``/``post``/``parent`` structure and its
        own share slice, so a plain single-shard
        :class:`~repro.filters.server.ServerFilter` serves each of them
        unchanged.  Returns a
        :class:`~repro.encode.deploy.ClusterDeployment`.
        """
        from repro.encode.deploy import deploy

        return deploy(
            self,
            _parser(xml_text),
            len(xml_text.encode("utf-8")),
            servers=servers,
            threshold=threshold,
            sharing=sharing,
            databases=databases,
        )

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def _build_stats(self, table: Table, input_bytes: int, node_count: int, elapsed: float) -> EncodingStats:
        element_bytes = max(1, (self.field.element_bits + 7) // 8)
        rows = len(table)
        return EncodingStats(
            node_count=node_count,
            input_bytes=input_bytes,
            payload_bytes=rows * table.width * element_bytes,
            structure_bytes=rows * 3 * STRUCTURE_INT_BYTES,
            index_bytes=table.index_bytes(),
            encoding_seconds=elapsed,
        )


def _parser(xml_text: str) -> Callable[[ContentHandler], None]:
    return lambda handler: StreamingParser(handler).parse_string(xml_text)


def _replayer(document: XMLDocument) -> Callable[[ContentHandler], None]:
    return lambda handler: replay(document, handler)
