"""Canonical serialization and hashing helpers.

Every persisted document and every transaction hash flows through
``canonical_dumps`` so byte-identical state compares are meaningful.
Encoding is one pass of CPython's C JSON encoder, built once, over
str-keyed documents; ``_plain`` converts numpy values as it meets them
and rejects everything else. A document can also be assembled from parts
encoded at different times: ``encode`` gives the text of a value, and an
object member's text is ``"key":`` before its value's text (the store
formats its entries' member texts itself). An ``Encoded`` holds a value's
text as pieces: ``encoded`` gives one piece, and ``encoded_object`` and
``encoded_array`` lay out member or item texts with their brackets and
separators, without joining them. ``canonical_dumps`` builds a dict whose
values are all ``Encoded`` in one ``"".join`` over the ``,"key":``
prefixes and the pieces, so the document is the only large text made.
The text is the same either way.
"""

from __future__ import annotations

import hashlib
import json
from json.encoder import c_make_encoder, encode_basestring_ascii

import numpy as np


def _plain(value):
    """``json.dumps`` hook: numpy arrays and scalars as plain values."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# Built once: the C encoder that ``json.dumps(sort_keys=True,
# separators=(",", ":"))`` builds on every call. Documents are trees, so
# it skips the check for circular references.
_iterencode = c_make_encoder(None, _plain, encode_basestring_ascii, None, ":", ",",
                             True, False, True)


def encode(value) -> str:
    """The canonical JSON text of a value."""
    return "".join(_iterencode(value, 0))


class Encoded:
    """Canonical JSON text of a value, encoded earlier, as the pieces that
    ``canonical_dumps`` joins into the document around them."""

    __slots__ = ("pieces",)

    def __init__(self, pieces: list[str]):
        self.pieces = pieces


def encoded(value) -> Encoded:
    return Encoded([encode(value)])


def _bracketed(opening: str, texts, closing: str) -> Encoded:
    """The texts between ``opening`` and ``closing`` with ``,`` between
    them, as pieces: nothing is joined."""
    if not texts:
        return Encoded([opening + closing])
    pieces = [","] * (2 * len(texts) + 1)
    pieces[1:-1:2] = texts
    pieces[0], pieces[-1] = opening, closing
    return Encoded(pieces)


def encoded_object(members) -> Encoded:
    """The JSON object of ``"key":value`` member texts given in sorted-key order."""
    return _bracketed("{", members, "}")


def encoded_array(items) -> Encoded:
    """The JSON array of ``encode`` texts given in order."""
    return _bracketed("[", items, "]")


def canonical_dumps(value) -> str:
    """Deterministic JSON: sorted keys, compact separators. A non-empty
    str-keyed dict whose values are all ``Encoded`` is joined from their
    pieces as they are, in one join."""
    if isinstance(value, dict) and value and all(isinstance(v, Encoded) for v in value.values()):
        parts = []
        for key in sorted(value):
            parts += (",", encode_basestring_ascii(key), ":")
            parts += value[key].pieces
        parts[0] = "{"
        parts.append("}")
        return "".join(parts)
    return encode(value)


def json_line(value) -> str:
    """One sorted-key JSON line, for NDJSON files and CLI output."""
    return json.dumps(value, sort_keys=True, default=_plain)


def sha256_of(value) -> str:
    return hashlib.sha256(canonical_dumps(value).encode("utf-8")).hexdigest()
