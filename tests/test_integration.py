"""End-to-end and property-based integration tests.

The headline invariant of the whole system: for any document and any query in
the supported subset, both encrypted engines under the equality rule return
exactly what the plaintext reference engine returns, and the containment rule
returns a superset — all without the server ever storing a tag name.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.database import EncryptedXMLDatabase
from repro.encode.encoder import NODE_TABLE_NAME
from repro.xmldoc.nodes import XMLDocument, XMLElement
from repro.xmldoc.serializer import serialize

SEED = b"integration-test-seed-0123456789"

# ----------------------------------------------------------------------
# Random document / query generation
# ----------------------------------------------------------------------

TAG_ALPHABET = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]


@st.composite
def random_documents(draw):
    """Random small trees over a six-tag alphabet."""

    def build(depth):
        tag = draw(st.sampled_from(TAG_ALPHABET))
        element = XMLElement(tag)
        if depth < 3:
            for _ in range(draw(st.integers(min_value=0, max_value=3))):
                element.append(build(depth + 1))
        return element

    root = XMLElement(draw(st.sampled_from(TAG_ALPHABET)))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        root.append(build(1))
    return XMLDocument(root)


@st.composite
def random_queries(draw, root_tag=None):
    """Random queries over the same alphabet: /, //, *, name tests."""
    length = draw(st.integers(min_value=1, max_value=4))
    parts = []
    for index in range(length):
        axis = draw(st.sampled_from(["/", "//"]))
        if index == 0 and root_tag is not None and axis == "/":
            test = draw(st.sampled_from([root_tag, "*"] + TAG_ALPHABET))
        else:
            test = draw(st.sampled_from(TAG_ALPHABET + ["*"]))
        parts.append(axis + test)
    return "".join(parts)


class TestRandomisedEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_equality_rule_matches_plaintext_on_random_documents(self, data):
        document = data.draw(random_documents())
        database = EncryptedXMLDatabase.from_document(
            document, seed=SEED, tag_names=TAG_ALPHABET, use_rmi=False
        )
        for _ in range(3):
            query = data.draw(random_queries(root_tag=document.root.tag))
            truth = set(database.plaintext_query(query))
            for engine in ("simple", "advanced"):
                strict = database.query(query, engine=engine, strict=True)
                loose = database.query(query, engine=engine, strict=False)
                assert set(strict.matches) == truth, (query, engine)
                assert set(loose.matches) >= truth, (query, engine)


class TestServerSeesNoPlaintext:
    def test_node_table_contains_only_numbers(self, small_database):
        """The stored rows consist of pre/post/parent integers and share
        coefficients — no tag names, no text."""
        table = small_database.encoded.node_table
        for row in table.rows():
            assert set(row) <= {"pre", "post", "parent", "share", "version"}
            assert isinstance(row["pre"], int)
            assert isinstance(row["post"], int)
            assert isinstance(row["parent"], int)
            assert all(isinstance(c, int) for c in row["share"])

    def test_shares_depend_on_seed(self, small_document):
        one = EncryptedXMLDatabase.from_document(small_document, seed=b"seed-A" * 6, p=83)
        two = EncryptedXMLDatabase.from_document(small_document, seed=b"seed-B" * 6, p=83)
        row_one = one.encoded.node_table.row(1)["share"]
        row_two = two.encoded.node_table.row(1)["share"]
        assert row_one != row_two

    def test_remote_boundary_only_ships_serialisable_data(self, small_database):
        small_database.query("/site/people/person", strict=True)
        stats = small_database.transport_stats
        assert stats.calls > 0
        # every call crossed the codec, so bytes were counted in both directions
        assert stats.bytes_sent > 0 and stats.bytes_received > 0


class TestEndToEndPersistence:
    def test_server_database_can_be_persisted_and_requeried(self, tmp_path, small_document):
        """Encode, persist the server side, reload it and query again."""
        from repro.encode.tagmap import TagMap
        from repro.encode.encoder import Encoder
        from repro.engines.simple import SimpleQueryEngine
        from repro.filters.client import ClientFilter
        from repro.filters.interface import MatchRule
        from repro.filters.server import ServerFilter
        from repro.gf.factory import make_field
        from repro.prg.generator import KeyedPRG
        from repro.secretshare.additive import AdditiveSharing
        from repro.storage.database import Database
        from repro.xmldoc.dtd import XMARK_DTD

        field = make_field(83)
        tag_map = TagMap.from_names(XMARK_DTD.element_names(), field=field)
        encoded = Encoder(tag_map, SEED).encode_text(serialize(small_document))
        path = str(tmp_path / "server.json")
        encoded.database.save(path)

        reloaded = Database.load(path)
        server = ServerFilter(reloaded.table(NODE_TABLE_NAME), encoded.ring)
        client = ClientFilter(server, AdditiveSharing(encoded.ring, KeyedPRG(SEED, field)), tag_map)
        engine = SimpleQueryEngine(client)
        result = engine.execute("/site/regions/europe/item", rule=MatchRule.EQUALITY)
        assert result.result_size == 2

    def test_wrong_seed_cannot_decode(self, small_document):
        """Querying with a different seed yields garbage, not plaintext hits."""
        from repro.encode.tagmap import TagMap
        from repro.encode.encoder import Encoder
        from repro.engines.simple import SimpleQueryEngine
        from repro.filters.client import ClientFilter
        from repro.filters.interface import MatchRule
        from repro.filters.server import ServerFilter
        from repro.gf.factory import make_field
        from repro.prg.generator import KeyedPRG
        from repro.secretshare.additive import AdditiveSharing
        from repro.xmldoc.dtd import XMARK_DTD

        field = make_field(83)
        tag_map = TagMap.from_names(XMARK_DTD.element_names(), field=field)
        encoded = Encoder(tag_map, SEED).encode_text(serialize(small_document))
        server = ServerFilter(encoded.node_table, encoded.ring)
        wrong_prg = KeyedPRG(b"completely-different-seed-000000", field)
        client = ClientFilter(server, AdditiveSharing(encoded.ring, wrong_prg), tag_map)
        engine = SimpleQueryEngine(client)
        # The root check fails immediately: with the wrong seed the combined
        # evaluation is effectively random and almost surely non-zero.
        result = engine.execute("/site/regions/europe/item", rule=MatchRule.CONTAINMENT)
        assert result.result_size == 0


class TestWholePipelineOnGeneratedData:
    def test_xmark_pipeline(self, xmark_database):
        """Encode-generated data, query with all four configurations."""
        query = "/site/open_auctions/open_auction/bidder/date"
        truth = set(xmark_database.plaintext_query(query))
        for engine in ("simple", "advanced"):
            for strict in (True, False):
                result = xmark_database.query(query, engine=engine, strict=strict)
                if strict:
                    assert set(result.matches) == truth
                else:
                    assert set(result.matches) >= truth

    def test_encoding_stats_consistency(self, xmark_database):
        stats = xmark_database.encoding_stats
        assert stats.node_count == xmark_database.node_count
        # 82 coefficients at one byte each, plus 12 bytes of structure per node.
        assert stats.payload_bytes == stats.node_count * 82
        assert stats.structure_bytes == stats.node_count * 12
