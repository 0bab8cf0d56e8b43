"""Deterministic canonical JSON for content-addressed audit events.

The canonical byte form is the stored artifact itself: verification hashes
file bytes directly, so serialization drift can never break verification of
existing records. Rules:

- UTF-8, object keys sorted by codepoint (equals bytewise order in UTF-8),
  no insignificant whitespace, booleans/null lowercase.
- Real numbers in fixed decimal notation with at most 12 fractional digits,
  trailing zeros stripped, never exponent form. Integral floats therefore
  serialize like integers ("1", not "1.0"); the int/float distinction is
  deliberately erased so reparsing is stable.
- Non-finite numbers are rejected.
"""

from __future__ import annotations

import hashlib
import json
import math
from json.encoder import encode_basestring as _encode_string
from typing import Any, List

CANONICAL_VERSION = 1


class CanonicalizationError(ValueError):
    """The value cannot be represented canonically (non-finite, bad type)."""


def canonical_number(value: float) -> str:
    """Shortest fixed-decimal form that survives a parse/format round trip.

    The correctly rounded 12-digit form is already a round-trip fixed point,
    so one format suffices: the double nearest to that text is no farther
    from it than ``value`` is, so it formats back to the same digits (exact
    ties round half-even both times).
    """
    if not math.isfinite(value):
        raise CanonicalizationError(f"non-finite number: {value!r}")
    text = f"{value:.12f}".rstrip("0").rstrip(".")
    return "0" if text in ("", "-", "-0") else text


def _emit(value: Any, out: List[str]) -> None:
    # Most frequent types first. Only bool and int overlap (bool subclasses
    # int), so the order changes no output as long as bool precedes int.
    if isinstance(value, str):
        out.append(_encode_string(value))
    elif isinstance(value, float):
        out.append(canonical_number(value))
    elif isinstance(value, dict):
        for key in value:
            if not isinstance(key, str):
                raise CanonicalizationError("object keys must be strings")
        out.append("{")
        for i, key in enumerate(sorted(value)):
            if i:
                out.append(",")
            out.append(_encode_string(key))
            out.append(":")
            _emit(value[key], out)
        out.append("}")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, item in enumerate(value):
            if i:
                out.append(",")
            _emit(item, out)
        out.append("]")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(str(value))
    else:
        raise CanonicalizationError(f"unsupported type: {type(value).__name__}")


def canonicalize(event: Any) -> bytes:
    """Serialize to canonical UTF-8 JSON bytes.

    Two logically equal events, whatever their field insertion order,
    canonicalize to identical bytes. The output contains no newlines.
    """
    parts: List[str] = []
    _emit(event, parts)
    return "".join(parts).encode("utf-8")


def parse_canonical(data: bytes) -> Any:
    """Inverse of canonicalize (up to int/float erasure for integral values)."""
    return json.loads(data.decode("utf-8"))


def compute_txid(canonical_bytes: bytes) -> str:
    """SHA-256 of the exact bytes, as 64 lowercase hex characters."""
    return hashlib.sha256(canonical_bytes).hexdigest()
