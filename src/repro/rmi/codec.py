"""Binary serialisation for remote calls.

A deliberately small, dependency-free, length-prefixed format covering the
value types the filters exchange: ``None``, booleans, integers, floats,
strings, bytes, lists/tuples and string-keyed dictionaries.  Arbitrary
objects are rejected — exactly the discipline a real remote boundary imposes,
which keeps the filter interfaces honest (no accidental passing of live
Python objects between "client" and "server").

Integer vectors and matrices — the dominant payload of the batched
endpoints (candidate ``pre`` lists, evaluation results, share coefficient
bundles) — travel as fixed-width little-endian array frames, packed and
unpacked in one C-level call each by the standard library's
:mod:`array` module (no numpy needed, so both the pure and the numpy
installs share one code path):

``V`` vector
    ``V`` + count (4 bytes) + one width byte + ``count * width`` bytes.
``W`` matrix
    ``W`` + rows (4 bytes) + cols (4 bytes) + one width byte +
    ``rows * cols * width`` bytes: a rectangular list of int vectors (a
    share bundle: one coefficient vector per node) as one packed block.

The width byte is the element width in bytes (1, 2, 4 or 8), with its high
bit set when the elements are signed; the encoder picks the narrowest width
that holds the value range, so a share vector over a small field costs one
byte per coefficient.  Everything else takes the generic tagged form
(``L`` lists, ``I`` decimal integers): empty lists, matrices of empty or
ragged rows (a generic list of ``V`` rows), lists containing bools (so
``True`` never decodes as ``1``) or other non-``int`` integer types, and
integers outside the 64-bit range.  Integer scalars of other types
(numpy's ``int64`` and friends, anything registered as
:class:`numbers.Integral`) encode as plain ``I`` integers and decode as
Python ``int``.
"""

from __future__ import annotations

import numbers
import sys
from array import array
from itertools import chain
from typing import Any, List, Optional, Tuple

_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_INT = b"I"
_TAG_FLOAT = b"D"
_TAG_STR = b"S"
_TAG_BYTES = b"B"
_TAG_LIST = b"L"
_TAG_DICT = b"M"
#: fixed-width little-endian int vector (see the module docstring)
_TAG_INTVEC = b"V"
#: fixed-width little-endian rectangular int matrix, one packed block
_TAG_INTMAT = b"W"

#: high bit of the width byte: the packed elements are signed
_SIGNED = 0x80


def _typecode(itemsize: int, signed: bool) -> str:
    candidates = "bhilq" if signed else "BHILQ"
    return next(code for code in candidates if array(code).itemsize == itemsize)


#: width byte -> array typecode, for every width the frames use
_TYPECODES = {
    width | (_SIGNED if signed else 0): _typecode(width, signed)
    for width in (1, 2, 4, 8)
    for signed in (False, True)
}

#: (exclusive upper bound, width byte), narrowest first, for each signedness
_UNSIGNED_WIDTHS = [(1 << (8 * width), width) for width in (1, 2, 4, 8)]
_SIGNED_WIDTHS = [(1 << (8 * width - 1), width | _SIGNED) for width in (1, 2, 4, 8)]

#: width byte of unsigned one-byte elements
_BYTE_WIDTH = bytes((1,))

#: array() packs in native byte order; the wire is little-endian
_BYTESWAP = sys.byteorder != "little"


class CodecError(ValueError):
    """Raised when a value cannot be serialised or a payload is malformed."""


class Codec:
    """Encoder/decoder for the remote-call payload format."""

    def encode(self, value: Any) -> bytes:
        """Serialise ``value`` to bytes."""
        parts: List[bytes] = []
        self._encode_into(value, parts)
        return b"".join(parts)

    def decode(self, payload: bytes) -> Any:
        """Deserialise bytes produced by :meth:`encode`."""
        value, offset = self._decode_from(payload, 0)
        if offset != len(payload):
            raise CodecError("trailing bytes after payload (%d of %d consumed)" % (offset, len(payload)))
        return value

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------

    def _encode_into(self, value: Any, parts: List[bytes]) -> None:
        if value is None:
            parts.append(_TAG_NONE)
        elif value is True:
            parts.append(_TAG_TRUE)
        elif value is False:
            parts.append(_TAG_FALSE)
        elif isinstance(value, (int, numbers.Integral)):
            encoded = str(int(value)).encode("ascii")
            parts.append(_TAG_INT + _length(encoded) + encoded)
        elif isinstance(value, float):
            encoded = repr(value).encode("ascii")
            parts.append(_TAG_FLOAT + _length(encoded) + encoded)
        elif isinstance(value, str):
            encoded = value.encode("utf-8")
            parts.append(_TAG_STR + _length(encoded) + encoded)
        elif isinstance(value, (bytes, bytearray)):
            encoded = bytes(value)
            parts.append(_TAG_BYTES + _length(encoded) + encoded)
        elif isinstance(value, (list, tuple)):
            compact = _encode_intvec(value)
            if compact is None:
                compact = _encode_intmat(value)
            if compact is not None:
                parts.append(compact)
                return
            parts.append(_TAG_LIST + _length_int(len(value)))
            for item in value:
                self._encode_into(item, parts)
        elif isinstance(value, dict):
            parts.append(_TAG_DICT + _length_int(len(value)))
            for key, item in value.items():
                if not isinstance(key, str):
                    raise CodecError("dictionary keys must be strings, got %r" % (key,))
                self._encode_into(key, parts)
                self._encode_into(item, parts)
        else:
            raise CodecError(
                "value of type %s cannot cross the remote boundary: %r"
                % (type(value).__name__, value)
            )

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------

    def _decode_from(self, payload: bytes, offset: int) -> Tuple[Any, int]:
        if offset >= len(payload):
            raise CodecError("truncated payload")
        tag = payload[offset : offset + 1]
        offset += 1
        if tag == _TAG_NONE:
            return None, offset
        if tag == _TAG_TRUE:
            return True, offset
        if tag == _TAG_FALSE:
            return False, offset
        if tag in (_TAG_INT, _TAG_FLOAT, _TAG_STR, _TAG_BYTES):
            size, offset = _read_length(payload, offset)
            raw = payload[offset : offset + size]
            if len(raw) != size:
                raise CodecError("truncated payload body")
            offset += size
            if tag == _TAG_INT:
                return int(raw.decode("ascii")), offset
            if tag == _TAG_FLOAT:
                return float(raw.decode("ascii")), offset
            if tag == _TAG_STR:
                return raw.decode("utf-8"), offset
            return raw, offset
        if tag == _TAG_INTVEC:
            count, offset = _read_length(payload, offset)
            return _unpack(payload, offset, count)
        if tag == _TAG_INTMAT:
            rows, offset = _read_length(payload, offset)
            cols, offset = _read_length(payload, offset)
            if not cols:
                raise CodecError("zero-column matrix frame")
            flat, offset = _unpack(payload, offset, rows * cols)
            return [flat[start : start + cols] for start in range(0, len(flat), cols)], offset
        if tag == _TAG_LIST:
            count, offset = _read_length(payload, offset)
            items = []
            for _ in range(count):
                item, offset = self._decode_from(payload, offset)
                items.append(item)
            return items, offset
        if tag == _TAG_DICT:
            count, offset = _read_length(payload, offset)
            result = {}
            for _ in range(count):
                key, offset = self._decode_from(payload, offset)
                value, offset = self._decode_from(payload, offset)
                result[key] = value
            return result, offset
        raise CodecError("unknown type tag %r at offset %d" % (tag, offset - 1))


def _encode_intvec(values) -> Optional[bytes]:
    """The ``V`` frame of a non-empty list of plain ints, or ``None``."""
    if not values:
        return None
    packed = _pack(values)
    if packed is None:
        return None
    return _TAG_INTVEC + _length_int(len(values)) + packed


def _encode_intmat(values) -> Optional[bytes]:
    """The ``W`` frame of a rectangular list of non-empty int vectors, or ``None``."""
    if not values:
        return None
    first = values[0]
    if not isinstance(first, (list, tuple)):
        return None
    cols = len(first)
    if not cols:
        return None
    for row in values:
        if not isinstance(row, (list, tuple)) or len(row) != cols:
            return None
    packed = _pack(list(chain.from_iterable(values)))
    if packed is None:
        return None
    return _TAG_INTMAT + _length_int(len(values)) + _length_int(cols) + packed


def _pack(values) -> Optional[bytes]:
    """Width byte + packed elements of a non-empty list of plain ints.

    ``None`` when an element is not exactly an ``int`` (bools included) or
    the range needs more than 64 bits.
    """
    if set(map(type, values)) != {int}:
        return None
    try:  # the common case, a share vector over a small field: one byte each
        return _BYTE_WIDTH + bytes(values)
    except ValueError:
        pass
    low, high = min(values), max(values)
    if low >= 0:
        widths, bound = _UNSIGNED_WIDTHS, high
    else:
        widths, bound = _SIGNED_WIDTHS, max(high, -low - 1)
    for limit, width in widths:
        if bound < limit:
            break
    else:
        return None
    packed = array(_TYPECODES[width], values)
    if _BYTESWAP:
        packed.byteswap()
    return bytes((width,)) + packed.tobytes()


def _unpack(payload: bytes, offset: int, count: int) -> Tuple[List[int], int]:
    """Read a width byte + ``count`` packed elements at ``offset``."""
    if offset >= len(payload):
        raise CodecError("truncated payload")
    width = payload[offset]
    offset += 1
    typecode = _TYPECODES.get(width)
    if typecode is None:
        raise CodecError("unknown array element width byte 0x%02x" % width)
    size = count * (width & ~_SIGNED)
    raw = payload[offset : offset + size]
    if len(raw) != size:
        raise CodecError("truncated payload body")
    unpacked = array(typecode)
    unpacked.frombytes(raw)
    if _BYTESWAP:
        unpacked.byteswap()
    return unpacked.tolist(), offset + size


def _length(encoded: bytes) -> bytes:
    return _length_int(len(encoded))


def _length_int(value: int) -> bytes:
    return value.to_bytes(4, "big")


def _read_length(payload: bytes, offset: int) -> Tuple[int, int]:
    raw = payload[offset : offset + 4]
    if len(raw) != 4:
        raise CodecError("truncated length field")
    return int.from_bytes(raw, "big"), offset + 4
