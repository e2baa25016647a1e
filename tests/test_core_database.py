"""Tests for the EncryptedXMLDatabase facade."""

import pytest

from repro.core.database import EncryptedXMLDatabase, QueryConfigError
from repro.xmldoc.dtd import XMARK_DTD
from repro.xmldoc.parser import parse_string

SEED = b"core-test-seed-0123456789abcdef-"
SIMPLE_XML = "<a><b><c/></b><d>text</d></a>"


class TestConstruction:
    def test_from_text(self):
        database = EncryptedXMLDatabase.from_text(SIMPLE_XML, seed=SEED)
        assert database.node_count == 4

    def test_from_file(self, tmp_path):
        path = tmp_path / "doc.xml"
        path.write_text(SIMPLE_XML)
        database = EncryptedXMLDatabase.from_file(str(path), seed=SEED)
        assert database.node_count == 4

    def test_from_document(self, small_document):
        database = EncryptedXMLDatabase.from_document(small_document, seed=SEED)
        assert database.node_count == small_document.element_count()

    def test_field_autoselection_from_document_tags(self):
        database = EncryptedXMLDatabase.from_text(SIMPLE_XML, seed=SEED)
        # 4 distinct tags -> smallest prime q with q - 1 > 4 is 7
        assert database.field_order == 7

    def test_explicit_field_order(self):
        database = EncryptedXMLDatabase.from_text(SIMPLE_XML, seed=SEED, p=83)
        assert database.field_order == 83

    def test_explicit_extension_field(self):
        database = EncryptedXMLDatabase.from_text(SIMPLE_XML, seed=SEED, p=3, e=2)
        assert database.field_order == 9
        result = database.query("/a/b/c", strict=True)
        assert len(result.matches) == 1

    def test_tag_names_extended_with_document_tags(self):
        # Tags present in the document but missing from tag_names are added.
        database = EncryptedXMLDatabase.from_text(SIMPLE_XML, seed=SEED, tag_names=["a", "b"], p=83)
        assert len(database.plaintext_query("/a/d")) == 1
        assert len(database.query("/a/d", strict=True).matches) == 1

    def test_random_seed_generated_when_missing(self):
        database = EncryptedXMLDatabase.from_text(SIMPLE_XML)
        assert database.query("/a/b", strict=True).result_size == 1

    def test_dtd_tag_names(self, small_document):
        database = EncryptedXMLDatabase.from_document(
            small_document, seed=SEED, tag_names=XMARK_DTD.element_names(), p=83
        )
        # Querying a DTD tag that does not occur in the document returns empty.
        assert database.query("//homepage").matches == ()


class TestConfigurationOptions:
    def test_without_rmi(self, small_document):
        database = EncryptedXMLDatabase.from_document(small_document, seed=SEED, use_rmi=False)
        result = database.query("/site/regions/europe/item", strict=True)
        assert len(result.matches) == 2
        assert database.transport_stats.calls == 0

    def test_with_rmi_counts_calls(self, small_document):
        database = EncryptedXMLDatabase.from_document(small_document, seed=SEED, use_rmi=True)
        database.query("/site/regions")
        assert database.transport_stats.calls > 0
        assert database.transport_stats.total_bytes > 0

    def test_latency_model_accumulates(self, small_document):
        database = EncryptedXMLDatabase.from_document(
            small_document, seed=SEED, per_call_latency=0.01
        )
        database.query("/site/regions")
        assert database.transport_stats.simulated_latency > 0

    def test_keep_plaintext_false(self, small_document):
        database = EncryptedXMLDatabase.from_document(small_document, seed=SEED, keep_plaintext=False)
        with pytest.raises(QueryConfigError):
            database.plaintext_query("/site")
        assert database.tag_of(1) is None
        # Encrypted querying still works without the plaintext copy.
        assert database.query("/site/regions", strict=True).result_size == 1

    def test_map_shuffle_seed_changes_nothing_observable(self, small_document):
        plain = EncryptedXMLDatabase.from_document(small_document, seed=SEED, p=83)
        shuffled = EncryptedXMLDatabase.from_document(
            small_document, seed=SEED, p=83, map_shuffle_seed=99
        )
        query = "/site/people/person/name"
        assert plain.query(query, strict=True).matches == shuffled.query(query, strict=True).matches

    def test_index_columns_override(self, small_document):
        database = EncryptedXMLDatabase.from_document(
            small_document, seed=SEED, index_columns=["pre", "parent"]
        )
        assert database.encoded.node_table.index_columns == ["pre", "parent"]
        assert database.query("/site/regions", strict=True).result_size == 1


class TestIntrospection:
    def test_encoding_stats_exposed(self, small_database):
        stats = small_database.encoding_stats
        assert stats.node_count == small_database.node_count
        assert stats.output_bytes > stats.structure_bytes

    def test_tag_of(self, small_database):
        assert small_database.tag_of(1) == "site"
        assert small_database.tag_of(9999) is None

    def test_repr(self, small_database):
        text = repr(small_database)
        assert "EncryptedXMLDatabase" in text


class TestTrieIntegration:
    def test_trie_database_answers_text_queries(self, trie_database):
        result = trie_database.query(
            '/people/person/name[contains(text(), "Joan")]', engine="advanced", strict=True
        )
        assert len(result.matches) == 1
        assert trie_database.tag_of(result.matches[0]) == "name"

    def test_trie_query_matches_plaintext(self, trie_database):
        query = '/people/person[city[contains(text(), "Enschede")]]/name'
        truth = set(trie_database.plaintext_query(query))
        result = trie_database.query(query, engine="advanced", strict=True)
        assert set(result.matches) == truth
        assert len(truth) == 2

    def test_trie_prefix_semantics(self, trie_database):
        # "Jo" is a prefix of both Joan's and ... only Joan in this fixture.
        result = trie_database.query('/people/person/name[contains(text(), "Jo")]', strict=True)
        assert len(result.matches) == 1

    def test_trie_negative_query(self, trie_database):
        result = trie_database.query('/people/person/name[contains(text(), "zzz")]', strict=True)
        assert result.matches == ()

    def test_trie_simple_engine_agrees(self, trie_database):
        query = '/people/person/name[contains(text(), "Berry")]'
        simple = trie_database.query(query, engine="simple", strict=True)
        advanced = trie_database.query(query, engine="advanced", strict=True)
        assert simple.matches == advanced.matches

    def test_text_query_without_trie_rejected(self):
        database = EncryptedXMLDatabase.from_text("<name>Joan</name>", seed=SEED)
        from repro.xpath.ast import XPathError

        with pytest.raises(XPathError):
            database.query('/name[contains(text(), "Joan")]')

    def test_uncompressed_trie_variant(self):
        database = EncryptedXMLDatabase.from_text(
            "<people><person><name>anna anna</name></person></people>",
            seed=SEED,
            use_trie=True,
            trie_compressed=False,
        )
        result = database.query('/people/person/name[contains(text(), "anna")]', strict=True)
        assert len(result.matches) == 1
