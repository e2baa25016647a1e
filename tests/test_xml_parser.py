"""Tests for the XML tree model, streaming parser and serialiser."""

import pytest

from repro.xmldoc.nodes import XMLDocument, XMLElement, XMLError
from repro.xmldoc.parser import ContentHandler, StreamingParser, parse_string, replay
from repro.xmldoc.serializer import document_byte_size, serialize, serialize_fragment


class TestNodes:
    def test_invalid_tag_rejected(self):
        with pytest.raises(XMLError):
            XMLElement("1bad")
        with pytest.raises(XMLError):
            XMLElement("")

    def test_append_sets_parent(self):
        parent = XMLElement("a")
        child = parent.make_child("b")
        assert child.parent is parent
        assert parent.children == [child]

    def test_append_rejects_non_element(self):
        with pytest.raises(XMLError):
            XMLElement("a").append("not-an-element")

    def test_iter_is_document_order(self):
        root = XMLElement("a")
        b = root.make_child("b")
        b.make_child("c")
        root.make_child("d")
        assert [node.tag for node in root.iter()] == ["a", "b", "c", "d"]

    def test_find_and_find_all(self):
        root = XMLElement("a")
        root.make_child("b")
        root.make_child("b")
        root.make_child("c")
        assert root.find("b").tag == "b"
        assert root.find("missing") is None
        assert len(root.find_all("b")) == 2

    def test_subtree_size_and_tags(self):
        root = XMLElement("a")
        root.make_child("b").make_child("c")
        assert root.subtree_size() == 3
        assert root.subtree_tags() == {"a", "b", "c"}

    def test_depth_and_height(self):
        root = XMLElement("a")
        child = root.make_child("b")
        grandchild = child.make_child("c")
        assert root.depth == 0
        assert grandchild.depth == 2
        assert root.height() == 3
        assert grandchild.height() == 1

    def test_text_content(self):
        root = XMLElement("a", text="hello ")
        child = root.make_child("b", text="world")
        child.tail = "!"
        assert root.text_content() == "hello world!"

    def test_document_wrapper(self):
        root = XMLElement("a")
        root.make_child("b")
        document = XMLDocument(root)
        assert document.element_count() == 2
        assert document.distinct_tags() == {"a", "b"}
        assert document.height() == 2

    def test_document_requires_element_root(self):
        with pytest.raises(XMLError):
            XMLDocument("nope")


class TestParser:
    def test_simple_document(self):
        document = parse_string("<a><b>text</b><c/></a>")
        assert document.root.tag == "a"
        assert [child.tag for child in document.root.children] == ["b", "c"]
        assert document.root.children[0].text == "text"

    def test_attributes(self):
        document = parse_string('<a id="1" name="hello world"><b x=\'2\'/></a>')
        assert document.root.attributes == {"id": "1", "name": "hello world"}
        assert document.root.children[0].attributes == {"x": "2"}

    def test_entities_decoded(self):
        document = parse_string("<a>&lt;tag&gt; &amp; &quot;text&quot; &#65;&#x42;</a>")
        assert document.root.text == '<tag> & "text" AB'

    def test_unknown_entity_rejected(self):
        with pytest.raises(XMLError):
            parse_string("<a>&unknown;</a>")

    def test_comments_and_pi_skipped(self):
        document = parse_string('<?xml version="1.0"?><!-- c --><a><!-- inner --><b/></a>')
        assert document.root.tag == "a"
        assert len(document.root.children) == 1

    def test_doctype_skipped(self):
        text = '<!DOCTYPE site SYSTEM "auction.dtd"><a><b/></a>'
        assert parse_string(text).root.tag == "a"

    def test_doctype_with_internal_subset(self):
        text = "<!DOCTYPE a [<!ELEMENT a (b)*><!ELEMENT b EMPTY>]><a><b/></a>"
        assert parse_string(text).root.tag == "a"

    def test_cdata(self):
        document = parse_string("<a><![CDATA[<not & parsed>]]></a>")
        assert document.root.text == "<not & parsed>"

    def test_mixed_content_with_tails(self):
        document = parse_string("<a>one<b>two</b>three<c/>four</a>")
        root = document.root
        assert root.text == "one"
        assert root.children[0].tail == "three"
        assert root.children[1].tail == "four"
        assert root.text_content() == "onetwothreefour"

    def test_mismatched_tags_rejected(self):
        with pytest.raises(XMLError):
            parse_string("<a><b></a></b>")

    def test_unclosed_element_rejected(self):
        with pytest.raises(XMLError):
            parse_string("<a><b></b>")

    def test_multiple_roots_rejected(self):
        with pytest.raises(XMLError):
            parse_string("<a/><b/>")

    def test_text_outside_root_rejected(self):
        with pytest.raises(XMLError):
            parse_string("<a/>stray")

    def test_empty_document_rejected(self):
        with pytest.raises(XMLError):
            parse_string("   ")

    def test_unterminated_tag_rejected(self):
        with pytest.raises(XMLError):
            parse_string("<a><b")

    def test_malformed_attribute_rejected(self):
        with pytest.raises(XMLError):
            parse_string("<a id=1/>")

    def test_deep_nesting(self):
        depth = 500
        text = "".join("<n%d>" % i for i in range(depth)) + "".join(
            "</n%d>" % i for i in reversed(range(depth))
        )
        document = parse_string(text)
        assert document.element_count() == depth

    def test_custom_handler_receives_events(self):
        events = []

        class Recorder(ContentHandler):
            def start_element(self, tag, attributes):
                events.append(("start", tag))

            def end_element(self, tag):
                events.append(("end", tag))

            def characters(self, text):
                if text.strip():
                    events.append(("text", text))

        StreamingParser(Recorder()).parse_string("<a><b>hi</b></a>")
        assert events == [
            ("start", "a"),
            ("start", "b"),
            ("text", "hi"),
            ("end", "b"),
            ("end", "a"),
        ]


class TestSerializer:
    def test_roundtrip(self):
        text = '<a id="1">hello<b attr="x">inner</b>tail<c/></a>'
        document = parse_string(text)
        again = parse_string(serialize(document))
        assert again.root.tag == "a"
        assert again.root.text == "hello"
        assert again.root.children[0].attributes == {"attr": "x"}
        assert again.root.children[0].tail == "tail"

    def test_escaping(self):
        root = XMLElement("a", attributes={"q": 'say "hi" & <go>'}, text="1 < 2 & 3 > 2")
        text = serialize_fragment(root)
        reparsed = parse_string(text)
        assert reparsed.root.text == "1 < 2 & 3 > 2"
        assert reparsed.root.attributes["q"] == 'say "hi" & <go>'

    def test_self_closing_for_empty_elements(self):
        assert serialize_fragment(XMLElement("empty")) == "<empty/>"

    def test_declaration_toggle(self):
        document = parse_string("<a/>")
        assert serialize(document).startswith("<?xml")
        assert not serialize(document, declaration=False).startswith("<?xml")

    def test_document_byte_size(self):
        document = parse_string("<a><b>text</b></a>")
        assert document_byte_size(document) == len(serialize(document).encode("utf-8"))

    def test_document_byte_size_counts_escapes_and_multibyte_text(self):
        document = parse_string(
            '<a k="say &quot;hi&quot; &amp; &lt;go&gt;"><b>1 &lt; 2 &amp; 3 &gt; 2</b>'
            "tail é<c/>日本<d x=\"ü\"></d></a>"
        )
        assert document_byte_size(document) == len(serialize(document).encode("utf-8"))

    def test_attributes_sorted_deterministically(self):
        a = XMLElement("a", attributes={"z": "1", "b": "2"})
        b = XMLElement("a", attributes={"b": "2", "z": "1"})
        assert serialize_fragment(a) == serialize_fragment(b)


class _Recorder(ContentHandler):
    def __init__(self):
        self.events = []

    def start_document(self):
        self.events.append(("start_document",))

    def end_document(self):
        self.events.append(("end_document",))

    def start_element(self, tag, attributes):
        self.events.append(("start", tag, dict(attributes)))

    def end_element(self, tag):
        self.events.append(("end", tag))

    def characters(self, text):
        self.events.append(("text", text))


class TestReplay:
    def test_replay_emits_the_events_of_parsing_the_serialisation(self):
        document = parse_string(
            '<site id="1">\n  <a k="v &amp; w">x &lt; y<b/>tail</a>\n  <c><d>deep</d></c>\n</site>'
        )
        parsed, replayed = _Recorder(), _Recorder()
        StreamingParser(parsed).parse_string(serialize(document))
        replay(document, replayed)
        assert replayed.events == parsed.events
        assert replayed.events[1] == ("start", "site", {"id": "1"})
