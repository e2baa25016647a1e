"""Serialisation of the XML tree model back to text."""

from __future__ import annotations

from typing import List

from repro.xmldoc.nodes import XMLDocument, XMLElement

_ESCAPES_TEXT = {"&": "&amp;", "<": "&lt;", ">": "&gt;"}
_ESCAPES_ATTR = {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;"}
_DECLARATION = '<?xml version="1.0" encoding="UTF-8"?>\n'


def escape_text(text: str) -> str:
    """Escape character data for element content."""
    return "".join(_ESCAPES_TEXT.get(ch, ch) for ch in text)


def escape_attribute(text: str) -> str:
    """Escape character data for a double-quoted attribute value."""
    return "".join(_ESCAPES_ATTR.get(ch, ch) for ch in text)


def serialize_fragment(element: XMLElement) -> str:
    """Serialise one element subtree (no XML declaration)."""
    parts: List[str] = []
    _write_element(element, parts)
    return "".join(parts)


def serialize(document: XMLDocument, declaration: bool = True) -> str:
    """Serialise a whole document, optionally with an XML declaration."""
    parts: List[str] = []
    if declaration:
        parts.append(_DECLARATION)
    _write_element(document.root, parts)
    parts.append("\n")
    return "".join(parts)


def _write_element(element: XMLElement, parts: List[str]) -> None:
    """Append the serialisation of ``element`` to ``parts`` (iteratively)."""
    # An explicit stack avoids recursion limits on the deep trie documents.
    stack = [("open", element)]
    while stack:
        action, node = stack.pop()
        if action == "close":
            parts.append("</%s>" % node.tag)
            parts.append(escape_text(node.tail))
            continue
        attributes = "".join(
            ' %s="%s"' % (name, escape_attribute(value))
            for name, value in sorted(node.attributes.items())
        )
        if not node.children and not node.text:
            parts.append("<%s%s/>" % (node.tag, attributes))
            parts.append(escape_text(node.tail))
            continue
        parts.append("<%s%s>" % (node.tag, attributes))
        parts.append(escape_text(node.text))
        stack.append(("close", node))
        for child in reversed(node.children):
            stack.append(("open", child))


def document_byte_size(document: XMLDocument) -> int:
    """UTF-8 size in bytes of the serialised document.

    The encoding experiment (figure 4) plots output size against *input* XML
    size; this helper provides the input-size axis for in-memory documents.
    It counts what :func:`serialize` would write, element by element,
    without building the text.
    """
    total = len(_DECLARATION) + 1  # the declaration and the final newline
    for node in document.root.iter():
        tag = len(node.tag.encode("utf-8"))
        attributes = sum(
            len(name.encode("utf-8")) + 4 + _escaped_size(value, _ESCAPES_ATTR)
            for name, value in node.attributes.items()
        )
        if not node.children and not node.text:
            total += tag + attributes + 3  # <tag/>
        else:
            total += 2 * tag + attributes + 5 + _escaped_size(node.text, _ESCAPES_TEXT)
        total += _escaped_size(node.tail, _ESCAPES_TEXT)
    return total


def _escaped_size(text: str, escapes: dict) -> int:
    """UTF-8 size of ``text`` after escaping with ``escapes``."""
    if not text:
        return 0
    return len(text.encode("utf-8")) + sum(
        text.count(char) * (len(escaped) - 1) for char, escaped in escapes.items()
    )
