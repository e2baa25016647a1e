"""Tests for the streaming encoder (the MySQLEncode equivalent)."""

import pytest

from repro.encode.encoder import Encoder, NODE_TABLE_NAME
from repro.encode.tagmap import TagMap, TagMapError
from repro.gf.factory import make_field
from repro.poly.ring import QuotientRing, RingPolynomial
from repro.prg.generator import KeyedPRG
from repro.secretshare.additive import AdditiveSharing
from repro.xmldoc.numbering import PrePostNumbering
from repro.xmldoc.parser import parse_string
from repro.xmldoc.serializer import serialize

F5 = make_field(5)
F83 = make_field(83)
SEED = b"encoder-test-seed-0123456789abcd"


def _encode(xml_text, tag_map=None, seed=SEED):
    if tag_map is None:
        document = parse_string(xml_text)
        tag_map = TagMap.from_names(sorted(document.distinct_tags()), field=F83)
    encoder = Encoder(tag_map, seed)
    return encoder.encode_text(xml_text), tag_map


class TestRowLayout:
    def test_one_row_per_element(self):
        encoded, _ = _encode("<a><b/><c><d/></c></a>")
        assert len(encoded.node_table) == 4

    def test_pre_post_parent_match_reference_numbering(self):
        xml = "<a><b><c/><d/></b><e><f/></e></a>"
        encoded, _ = _encode(xml)
        reference = PrePostNumbering(parse_string(xml))
        rows = {row["pre"]: row for row in encoded.node_table.rows()}
        for node in reference:
            assert rows[node.pre]["post"] == node.post
            assert rows[node.pre]["parent"] == node.parent

    def test_share_vector_length_is_ring_length(self):
        encoded, _ = _encode("<a><b/></a>")
        for row in encoded.node_table.rows():
            assert len(row["share"]) == encoded.ring.length

    def test_default_index_columns(self):
        encoded, _ = _encode("<a><b/></a>")
        assert sorted(encoded.node_table.index_columns) == ["parent", "post", "pre"]

    def test_unknown_tag_raises(self):
        tag_map = TagMap(F83, {"a": 1})
        with pytest.raises(TagMapError):
            Encoder(tag_map, SEED).encode_text("<a><unmapped/></a>")

    def test_text_content_is_ignored_by_tag_encoding(self):
        plain, tag_map = _encode("<a><b/></a>")
        with_text, _ = _encode("<a>some text<b>more</b></a>", tag_map=tag_map)
        assert len(plain.node_table) == len(with_text.node_table) == 2


class TestPolynomialCorrectness:
    def _reconstruct(self, encoded, pre):
        sharing = encoded.sharing
        row = encoded.node_table.row(pre)
        server_share = RingPolynomial(encoded.ring, row["share"])
        return sharing.reconstruct(server_share, pre)

    def test_reconstructed_polynomial_matches_definition(self):
        xml = "<a><b><c/></b><d/></a>"
        encoded, tag_map = _encode(xml)
        ring = encoded.ring
        reference = PrePostNumbering(parse_string(xml))

        # Recompute the expected polynomial bottom-up from the plaintext tree.
        def expected(node):
            poly = ring.linear_factor(tag_map.value(node.tag))
            for child in node.element.children:
                child_node = next(n for n in reference if n.element is child)
                poly = ring.mul(poly, expected(child_node))
            return poly

        for node in reference:
            assert self._reconstruct(encoded, node.pre) == expected(node)

    def test_leaf_polynomial_is_monomial(self):
        encoded, tag_map = _encode("<a><b/></a>")
        leaf_poly = self._reconstruct(encoded, 2)
        assert leaf_poly == encoded.ring.linear_factor(tag_map.value("b"))

    def test_root_contains_all_tags(self):
        xml = "<a><b><c/></b><d/></a>"
        encoded, tag_map = _encode(xml)
        root_poly = self._reconstruct(encoded, 1)
        for tag in ("a", "b", "c", "d"):
            assert encoded.ring.evaluate(root_poly, tag_map.value(tag)) == 0

    def test_root_does_not_contain_absent_tags(self):
        xml = "<a><b/></a>"
        document = parse_string(xml)
        tag_map = TagMap.from_names(sorted(document.distinct_tags()) + ["zzz"], field=F83)
        encoded, _ = _encode(xml, tag_map=tag_map)
        root_poly = self._reconstruct(encoded, 1)
        assert encoded.ring.evaluate(root_poly, tag_map.value("zzz")) != 0

    def test_server_share_differs_from_polynomial(self):
        encoded, tag_map = _encode("<a><b/></a>")
        row = encoded.node_table.row(1)
        server_share = RingPolynomial(encoded.ring, row["share"])
        assert server_share != self._reconstruct(encoded, 1)

    def test_different_seeds_give_different_server_shares(self):
        xml = "<a><b/></a>"
        document = parse_string(xml)
        tag_map = TagMap.from_names(sorted(document.distinct_tags()), field=F83)
        one = Encoder(tag_map, b"seed-one-000000000000000000000000").encode_text(xml)
        two = Encoder(tag_map, b"seed-two-000000000000000000000000").encode_text(xml)
        assert one.node_table.row(1)["share"] != two.node_table.row(1)["share"]
        # ... but both decode to the same polynomial.
        sharing_one = one.sharing
        sharing_two = two.sharing
        poly_one = sharing_one.reconstruct(RingPolynomial(one.ring, one.node_table.row(1)["share"]), 1)
        poly_two = sharing_two.reconstruct(RingPolynomial(two.ring, two.node_table.row(1)["share"]), 1)
        assert poly_one == poly_two

    def test_small_field_paper_example(self):
        """Figure 1: tree a(b(c), c(a, b)) over F_5 with map a=2, b=1, c=3."""
        xml = "<a><b><c/></b><c><a/><b/></c></a>"
        tag_map = TagMap(F5, {"a": 2, "b": 1, "c": 3})
        encoder = Encoder(tag_map, SEED)
        encoded = encoder.encode_text(xml)
        ring = encoded.ring
        sharing = encoded.sharing
        row = encoded.node_table.row(1)
        root_poly = sharing.reconstruct(RingPolynomial(ring, row["share"]), 1)
        # The root polynomial vanishes at 1, 2, 3 and not at 4.
        assert ring.evaluate(root_poly, 1) == 0
        assert ring.evaluate(root_poly, 2) == 0
        assert ring.evaluate(root_poly, 3) == 0
        assert ring.evaluate(root_poly, 4) != 0


class TestStats:
    def test_stats_counts_and_sizes(self):
        encoded, _ = _encode("<a><b/><c/></a>")
        stats = encoded.stats
        assert stats.node_count == 3
        assert stats.input_bytes > 0
        assert stats.payload_bytes == 3 * encoded.ring.length  # 1 byte per coefficient at p=83
        assert stats.structure_bytes == 3 * 3 * 4
        assert stats.index_bytes > 0
        assert stats.output_bytes == stats.payload_bytes + stats.structure_bytes
        assert stats.total_bytes == stats.output_bytes + stats.index_bytes
        assert stats.encoding_seconds >= 0

    def test_structure_fraction_and_expansion(self):
        encoded, _ = _encode("<a><b/><c/></a>")
        stats = encoded.stats
        assert 0 < stats.structure_fraction < 1
        assert stats.expansion_ratio == stats.output_bytes / stats.input_bytes

    def test_encode_document_equals_encode_text(self, small_document):
        from repro.xmldoc.dtd import XMARK_DTD

        tag_map = TagMap.from_names(XMARK_DTD.element_names(), field=F83)
        by_document = Encoder(tag_map, SEED).encode_document(small_document)
        by_text = Encoder(tag_map, SEED).encode_text(serialize(small_document))
        assert list(by_document.node_table.rows()) == list(by_text.node_table.rows())
        for stats in (by_document.stats, by_text.stats):
            assert stats.input_bytes == len(serialize(small_document).encode("utf-8"))
        assert by_document.stats.index_bytes == by_text.stats.index_bytes

    def test_stats_pinned_on_the_598_node_document(self):
        """The Fig. 4 sizes, index-size model included, as the B+-tree
        store reported them."""
        from repro.xmark.generator import generate_document
        from repro.xmldoc.dtd import XMARK_DTD

        document = generate_document(scale=0.05, seed=4242)
        tag_map = TagMap.from_names(XMARK_DTD.element_names(), field=F83)
        stats = Encoder(tag_map, SEED).encode_document(document).stats
        sizes = (stats.node_count, stats.input_bytes, stats.payload_bytes)
        assert sizes == (598, 21748, 49036)
        assert (stats.structure_bytes, stats.index_bytes) == (7176, 26120)
        fleet = Encoder(tag_map, SEED).deploy_document(
            document, servers=3, threshold=2, sharing="shamir"
        ).stats
        assert (fleet.payload_bytes, fleet.structure_bytes, fleet.index_bytes) == (
            147108,
            21528,
            78360,
        )

    def test_document_path_never_serialises(self, small_document, monkeypatch):
        """Encoding a parsed document replays its tree into the encoder:
        no text is written out and parsed back."""
        from repro.core.config import ClusterConfig, DatabaseConfig, FieldConfig
        from repro.core.database import EncryptedXMLDatabase
        from repro.xmldoc import serializer
        from repro.xmldoc.dtd import XMARK_DTD

        def refuse(*_):
            raise AssertionError("the document was serialised")

        monkeypatch.setattr(serializer, "_write_element", refuse)
        field = FieldConfig(tag_names=XMARK_DTD.element_names(), seed=SEED, p=83)
        for cluster in (ClusterConfig(), ClusterConfig(servers=3, threshold=2, sharing="shamir")):
            database = EncryptedXMLDatabase.from_document(
                small_document, config=DatabaseConfig(field=field, cluster=cluster)
            )
            assert database.node_count == small_document.element_count()

    def test_encode_file(self, tmp_path, small_document):
        from repro.xmldoc.dtd import XMARK_DTD

        path = tmp_path / "doc.xml"
        path.write_text(serialize(small_document))
        tag_map = TagMap.from_names(XMARK_DTD.element_names(), field=F83)
        encoded = Encoder(tag_map, SEED).encode_file(str(path))
        assert len(encoded.node_table) == small_document.element_count()

    def test_node_table_layout(self):
        encoded, _ = _encode("<a><b/><c/></a>")
        table = encoded.node_table
        assert table.name == NODE_TABLE_NAME
        assert table.width == encoded.ring.length
        assert table.shares.typecode == "B"  # one byte per F_83 coefficient
        assert len(table.shares) == 3 * table.width

    def test_custom_index_columns(self):
        xml = "<a><b/></a>"
        document = parse_string(xml)
        tag_map = TagMap.from_names(sorted(document.distinct_tags()), field=F83)
        encoded = Encoder(tag_map, SEED, index_columns=["parent"]).encode_text(xml)
        assert encoded.node_table.index_columns == ["parent"]
