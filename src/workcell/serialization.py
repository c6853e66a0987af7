"""Canonical serialization and hashing helpers.

Every persisted document and every transaction hash flows through
``canonical_dumps`` so byte-identical state compares are meaningful.
Encoding is one ``json.dumps`` pass over str-keyed documents; ``_plain``
converts numpy values as it meets them and rejects everything else.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np


def _plain(value):
    """``json.dumps`` hook: numpy arrays and scalars as plain values."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def canonical_dumps(value) -> str:
    """Deterministic JSON: sorted keys, compact separators."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=_plain)


def json_line(value) -> str:
    """One sorted-key JSON line, for NDJSON files and CLI output."""
    return json.dumps(value, sort_keys=True, default=_plain)


def sha256_of(value) -> str:
    return hashlib.sha256(canonical_dumps(value).encode("utf-8")).hexdigest()
