"""Canonical serialization and hashing helpers.

Every persisted document and every transaction hash flows through
``canonical_dumps`` so byte-identical state compares are meaningful.
Encoding is one pass of CPython's C JSON encoder, built once, over
str-keyed documents; ``_plain`` converts numpy values as it meets them
and rejects everything else. A document can also be assembled from parts
encoded at different times: ``encoded`` and ``encoded_member`` encode
the parts, ``encoded_object`` joins members, ``encoded_array`` joins
items, and ``canonical_dumps`` joins a dict whose values are all
``Encoded``. The text is the same either way.
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


def _encode(value) -> str:
    return "".join(_iterencode(value, 0))


class Encoded(str):
    """Canonical JSON text of a value, encoded earlier."""


def encoded(value) -> Encoded:
    return Encoded(_encode(value))


def encoded_member(key: str, value) -> str:
    """``"key":value`` as it appears inside a canonical JSON object."""
    return encode_basestring_ascii(key) + ":" + _encode(value)


def encoded_object(members: list[str]) -> Encoded:
    """The JSON object of ``encoded_member`` texts given in sorted-key order."""
    return Encoded("{" + ",".join(members) + "}")


def encoded_array(items: list[str]) -> Encoded:
    """The JSON array of ``encoded`` texts given in order."""
    return Encoded("[" + ",".join(items) + "]")


def canonical_dumps(value) -> str:
    """Deterministic JSON: sorted keys, compact separators. A non-empty
    str-keyed dict whose values are all ``Encoded`` is joined from them as
    they are."""
    if isinstance(value, dict) and value and all(isinstance(v, Encoded) for v in value.values()):
        return encoded_object([encode_basestring_ascii(k) + ":" + value[k] for k in sorted(value)])
    return _encode(value)


def json_line(value) -> str:
    """One sorted-key JSON line, for NDJSON files and CLI output."""
    return json.dumps(value, sort_keys=True, default=_plain)


def sha256_of(value) -> str:
    return hashlib.sha256(canonical_dumps(value).encode("utf-8")).hexdigest()
