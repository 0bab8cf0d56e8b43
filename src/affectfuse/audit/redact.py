"""PII redaction over free-text event fields.

Only mechanically reliable pattern classes are redacted (emails, phone-like
digit groups, long bare numeric IDs); named-entity redaction is out of scope
without an NER model. Matches are replaced by "[REDACTED:<CLASS>]".
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Mapping, Tuple

_EMAIL_RE = re.compile(r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}")
# Digit groups joined by space/dot/dash, optionally with a leading +country.
_PHONE_RE = re.compile(r"\+?\d{1,4}(?:[ .\-]\d{2,4}){1,5}")
_ID_RE = re.compile(r"\b\d{7,9}\b")

_MIN_PHONE_DIGITS = 7

CLASS_EMAIL = "EMAIL"
CLASS_PHONE = "PHONE"
CLASS_ID = "ID"


@dataclass(frozen=True)
class RedactionReport:
    counts: Dict[str, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def as_dict(self) -> Dict[str, int]:
        return dict(sorted(self.counts.items()))


def _redact_phones(text: str, counts: Dict[str, int]) -> str:
    def replace(match: re.Match) -> str:
        digits = sum(ch.isdigit() for ch in match.group(0))
        if digits < _MIN_PHONE_DIGITS:
            return match.group(0)
        counts[CLASS_PHONE] = counts.get(CLASS_PHONE, 0) + 1
        return f"[REDACTED:{CLASS_PHONE}]"

    return _PHONE_RE.sub(replace, text)


def redact_text(text: str) -> Tuple[str, Dict[str, int]]:
    """Redact one string; returns the redacted text and per-class counts."""
    counts: Dict[str, int] = {}
    text, n = _EMAIL_RE.subn(f"[REDACTED:{CLASS_EMAIL}]", text)
    if n:
        counts[CLASS_EMAIL] = n
    text = _redact_phones(text, counts)
    text, n = _ID_RE.subn(f"[REDACTED:{CLASS_ID}]", text)
    if n:
        counts[CLASS_ID] = n
    return text, counts


def redact_pii(fields: Mapping[str, str]) -> Tuple[Dict[str, str], RedactionReport]:
    """Redact every free-text field of an event before persistence.

    Returns the redacted fields and a report with per-class match counts.
    """
    redacted: Dict[str, str] = {}
    totals: Dict[str, int] = {}
    for name, value in fields.items():
        new_value, counts = redact_text(value)
        redacted[name] = new_value
        for cls, n in counts.items():
            totals[cls] = totals.get(cls, 0) + n
    return redacted, RedactionReport(counts=totals)
