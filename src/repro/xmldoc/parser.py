"""Streaming (SAX-style) XML parser.

The encoder must be able to process documents much larger than client memory,
reading linearly and keeping only a path-to-root of state (section 5.1).  The
:class:`StreamingParser` therefore emits events to a :class:`ContentHandler`
while scanning the input text once; :class:`TreeBuilder` is the convenience
handler that materialises an :class:`~repro.xmldoc.nodes.XMLDocument` when an
in-memory tree is acceptable.

Supported XML subset (sufficient for XMark documents and the examples):

* elements with attributes, text content and mixed content,
* character and the five predefined entity references,
* comments, processing instructions, XML declarations and DOCTYPE
  declarations (all skipped),
* CDATA sections.

Namespaces, external entities and full DTD validation are out of scope.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.xmldoc.nodes import XMLDocument, XMLElement, XMLError

_ENTITY_MAP = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "apos": "'",
    "quot": '"',
}


class ContentHandler:
    """Receiver of parse events; subclass and override what you need."""

    def start_document(self) -> None:
        """Called once before any other event."""

    def end_document(self) -> None:
        """Called once after the root element has been closed."""

    def start_element(self, tag: str, attributes: Dict[str, str]) -> None:
        """Called for every opening (or self-closing) tag."""

    def end_element(self, tag: str) -> None:
        """Called for every closing tag (and after self-closing tags)."""

    def characters(self, text: str) -> None:
        """Called for runs of character data (already entity-decoded)."""


class TreeBuilder(ContentHandler):
    """A handler that builds an in-memory :class:`XMLDocument`."""

    def __init__(self) -> None:
        self._stack: List[XMLElement] = []
        self._root: Optional[XMLElement] = None

    def start_element(self, tag: str, attributes: Dict[str, str]) -> None:
        element = XMLElement(tag, attributes=attributes)
        if self._stack:
            self._stack[-1].append(element)
        elif self._root is None:
            self._root = element
        else:
            raise XMLError("multiple root elements in document")
        self._stack.append(element)

    def end_element(self, tag: str) -> None:
        if not self._stack:
            raise XMLError("unexpected closing tag </%s>" % tag)
        top = self._stack.pop()
        if top.tag != tag:
            raise XMLError("mismatched closing tag </%s> for <%s>" % (tag, top.tag))

    def characters(self, text: str) -> None:
        if not self._stack:
            if text.strip():
                raise XMLError("character data outside of the root element")
            return
        current = self._stack[-1]
        if current.children:
            current.children[-1].tail += text
        else:
            current.text += text

    def document(self) -> XMLDocument:
        """The completed document (only valid after parsing finished)."""
        if self._root is None:
            raise XMLError("document had no root element")
        if self._stack:
            raise XMLError("document ended with unclosed elements: %s" % self._stack[-1].tag)
        return XMLDocument(self._root)


class StreamingParser:
    """Single-pass event parser over XML text."""

    def __init__(self, handler: ContentHandler):
        self.handler = handler

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------

    def parse_string(self, text: str) -> None:
        """Parse a complete document held in a string."""
        self.handler.start_document()
        self._scan(text)
        self.handler.end_document()

    def parse_chunks(self, chunks: Iterable[str]) -> None:
        """Parse a document supplied as an iterable of text chunks.

        Chunks are concatenated lazily enough that very large documents built
        by generators (e.g. the XMark synthesiser's streaming mode) do not
        require an extra full copy beyond the joined text buffer.
        """
        self.parse_string("".join(chunks))

    def parse_file(self, path: str, encoding: str = "utf-8") -> None:
        """Parse a document stored in a file."""
        with open(path, "r", encoding=encoding) as handle:
            self.parse_string(handle.read())

    # ------------------------------------------------------------------
    # Scanner
    # ------------------------------------------------------------------

    def _scan(self, text: str) -> None:
        handler = self.handler
        position = 0
        length = len(text)
        open_elements = 0
        seen_root = False
        while position < length:
            lt = text.find("<", position)
            if lt < 0:
                trailing = text[position:]
                if trailing.strip():
                    raise XMLError("character data after the root element")
                break
            if lt > position:
                raw = text[position:lt]
                if open_elements:
                    handler.characters(_decode_entities(raw))
                elif raw.strip():
                    raise XMLError("character data outside of the root element")
            if text.startswith("<!--", lt):
                end = text.find("-->", lt + 4)
                if end < 0:
                    raise XMLError("unterminated comment")
                position = end + 3
                continue
            if text.startswith("<![CDATA[", lt):
                end = text.find("]]>", lt + 9)
                if end < 0:
                    raise XMLError("unterminated CDATA section")
                if open_elements:
                    handler.characters(text[lt + 9 : end])
                position = end + 3
                continue
            if text.startswith("<?", lt):
                end = text.find("?>", lt + 2)
                if end < 0:
                    raise XMLError("unterminated processing instruction")
                position = end + 2
                continue
            if text.startswith("<!", lt):
                position = _skip_declaration(text, lt)
                continue
            if text.startswith("</", lt):
                end = text.find(">", lt + 2)
                if end < 0:
                    raise XMLError("unterminated closing tag")
                tag = text[lt + 2 : end].strip()
                handler.end_element(tag)
                open_elements -= 1
                position = end + 1
                continue
            # Opening or self-closing tag.
            end = text.find(">", lt + 1)
            if end < 0:
                raise XMLError("unterminated tag starting at offset %d" % lt)
            body = text[lt + 1 : end]
            self_closing = body.endswith("/")
            if self_closing:
                body = body[:-1]
            tag, attributes = _parse_tag_body(body)
            if not open_elements and seen_root:
                raise XMLError("multiple root elements in document")
            handler.start_element(tag, attributes)
            seen_root = True
            if self_closing:
                handler.end_element(tag)
            else:
                open_elements += 1
            position = end + 1
        if open_elements:
            raise XMLError("document ended with %d unclosed element(s)" % open_elements)
        if not seen_root:
            raise XMLError("document had no root element")


def replay(document: XMLDocument, handler: ContentHandler) -> None:
    """Drive ``handler`` with the events of an in-memory document.

    The events are those :class:`StreamingParser` emits for the document's
    serialisation (text arrives as one ``characters`` call per text or tail
    run), without writing the text out and scanning it back.
    """
    handler.start_document()
    # An explicit stack avoids recursion limits on the deep trie documents.
    stack: List[Tuple[XMLElement, bool]] = [(document.root, False)]
    while stack:
        node, closing = stack.pop()
        if closing:
            handler.end_element(node.tag)
            if node.tail and stack:
                handler.characters(node.tail)
            continue
        handler.start_element(node.tag, node.attributes)
        if node.text:
            handler.characters(node.text)
        stack.append((node, True))
        stack.extend((child, False) for child in reversed(node.children))
    handler.end_document()


def parse_string(text: str) -> XMLDocument:
    """Parse XML text into an :class:`XMLDocument`."""
    builder = TreeBuilder()
    StreamingParser(builder).parse_string(text)
    return builder.document()


def parse_document(path: str, encoding: str = "utf-8") -> XMLDocument:
    """Parse an XML file into an :class:`XMLDocument`."""
    builder = TreeBuilder()
    StreamingParser(builder).parse_file(path, encoding=encoding)
    return builder.document()


# ----------------------------------------------------------------------
# Lexical helpers
# ----------------------------------------------------------------------


def _skip_declaration(text: str, start: int) -> int:
    """Skip a ``<!...>`` declaration (DOCTYPE with internal subset supported)."""
    depth = 0
    position = start
    length = len(text)
    while position < length:
        char = text[position]
        if char == "<":
            depth += 1
        elif char == ">":
            depth -= 1
            if depth == 0:
                return position + 1
        elif char == "[":
            # Internal DTD subset: skip to the matching "]>".
            close = text.find("]>", position)
            if close < 0:
                raise XMLError("unterminated DOCTYPE internal subset")
            return close + 2
        position += 1
    raise XMLError("unterminated declaration starting at offset %d" % start)


def _parse_tag_body(body: str) -> Tuple[str, Dict[str, str]]:
    """Split ``tagname attr="v" ...`` into the tag and attribute dict."""
    body = body.strip()
    if not body:
        raise XMLError("empty tag")
    parts = _split_tag(body)
    tag = parts[0]
    attributes: Dict[str, str] = {}
    for part in parts[1:]:
        if "=" not in part:
            raise XMLError("malformed attribute %r in tag <%s>" % (part, tag))
        name, _, raw_value = part.partition("=")
        name = name.strip()
        raw_value = raw_value.strip()
        if len(raw_value) < 2 or raw_value[0] not in "\"'" or raw_value[-1] != raw_value[0]:
            raise XMLError("attribute value must be quoted: %r" % (part,))
        attributes[name] = _decode_entities(raw_value[1:-1])
    return tag, attributes


def _split_tag(body: str) -> List[str]:
    """Split a tag body on whitespace, keeping quoted attribute values intact."""
    parts: List[str] = []
    current: List[str] = []
    quote: Optional[str] = None
    for char in body:
        if quote:
            current.append(char)
            if char == quote:
                quote = None
        elif char in "\"'":
            current.append(char)
            quote = char
        elif char.isspace():
            if current:
                parts.append("".join(current))
                current = []
        else:
            current.append(char)
    if current:
        parts.append("".join(current))
    return parts


def _decode_entities(text: str) -> str:
    """Decode the predefined entities and numeric character references."""
    if "&" not in text:
        return text
    output: List[str] = []
    position = 0
    length = len(text)
    while position < length:
        amp = text.find("&", position)
        if amp < 0:
            output.append(text[position:])
            break
        output.append(text[position:amp])
        semi = text.find(";", amp + 1)
        if semi < 0:
            raise XMLError("unterminated entity reference near %r" % text[amp : amp + 10])
        entity = text[amp + 1 : semi]
        if entity.startswith("#x") or entity.startswith("#X"):
            output.append(chr(int(entity[2:], 16)))
        elif entity.startswith("#"):
            output.append(chr(int(entity[1:], 10)))
        elif entity in _ENTITY_MAP:
            output.append(_ENTITY_MAP[entity])
        else:
            raise XMLError("unknown entity reference &%s;" % entity)
        position = semi + 1
    return "".join(output)
