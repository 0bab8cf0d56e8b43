"""Post-fusion risk detection, escalation, and templated responses.

Guardrails run strictly after fusion and before response planning. Risk is
flagged by per-emotion probability thresholds and by case/diacritic
insensitive keyword matching over the transcript. Responses come from a
plain-text template table; low dominant probability or low cross-modal
coherence selects the hedged variant, and a triggered escalation always
returns the safe-handoff template.
"""

from __future__ import annotations

import functools
import json
import logging
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from .config import DEFAULT_THRESHOLDS, ConfigError
from .core import _strip_accents, data_lines, dominant_emotion, read_data_file
from .fusion import FusionOutcome

log = logging.getLogger(__name__)

STATUS_SKIPPED = "skipped"
STATUS_DELIVERED = "delivered"
STATUS_FAILED = "failed"

_FALLBACK_TEMPLATE = "Gracias por contarme. ¿Querés seguir hablando de cómo te sentís?"


@dataclass
class Escalation:
    triggered: bool
    reasons: List[str] = field(default_factory=list)
    notified: bool = False
    timestamp: str = ""

    def as_dict(self) -> Dict[str, object]:
        return {
            "triggered": self.triggered,
            "reasons": list(self.reasons),
            "notified": self.notified,
            "timestamp": self.timestamp,
        }


def evaluate_guardrails(
    fused: FusionOutcome,
    transcript: str,
    thresholds: Optional[Mapping[str, float]] = None,
    keywords: Sequence[str] = (),
    timestamp: str = "",
) -> Escalation:
    """Flag risk from fused probabilities and sensitive keywords.

    Triggered exactly when at least one reason exists: a probability above
    its configured threshold ("fear>0.7") or a keyword substring match over
    the normalized transcript ("keyword:...").
    """
    limits = DEFAULT_THRESHOLDS if thresholds is None else thresholds
    reasons: List[str] = []
    for label, limit in limits.items():
        if fused.probs.get(label, 0.0) > limit:
            reasons.append(f"{label}>{limit:g}")
    haystack = _strip_accents(transcript.lower())
    for keyword in keywords:
        if keyword and _keyword_form(keyword) in haystack:
            reasons.append(f"keyword:{keyword}")
    return Escalation(triggered=bool(reasons), reasons=reasons, timestamp=timestamp)


@functools.lru_cache(maxsize=1024)
def _keyword_form(keyword: str) -> str:
    """A keyword as it is matched: lower case, accents stripped.

    Keyword lists are loaded once and reused on every turn, so each keyword
    is normalized once.
    """
    return _strip_accents(keyword.lower())


_WEBHOOK_SCHEMES = ("http", "https")


@functools.lru_cache(maxsize=None)
def _webhook_opener():
    """The webhook's urllib opener and redirect handler class.

    urllib, ``http.client``, ``ssl`` and ``email`` load here, on the first
    webhook post, so processes that never post one do not pay for them.
    """
    import urllib.error
    import urllib.parse
    import urllib.request

    class _WebhookRedirects(urllib.request.HTTPRedirectHandler):
        """Follow a webhook's redirects only to http(s) URLs, and repeat the POST
        with its body on 307 and 308 as HTTP asks; 301-303 still turn into GET.
        """

        http_error_308 = urllib.request.HTTPRedirectHandler.http_error_302  # not in 3.10

        def redirect_request(self, req, fp, code, msg, headers, newurl):
            if urllib.parse.urlsplit(newurl).scheme not in _WEBHOOK_SCHEMES:
                raise urllib.error.HTTPError(newurl, code, msg, headers, fp)
            if code in (307, 308):
                return urllib.request.Request(
                    newurl, data=req.data, headers=req.headers, method=req.get_method()
                )
            return super().redirect_request(req, fp, code, msg, headers, newurl)

    return urllib.request.build_opener(_WebhookRedirects), _WebhookRedirects


def notify_escalation(
    escalation: Escalation,
    webhook_url: Optional[str],
    txid: str = "",
    run_id: str = "",
    timeout: float = 3.0,
) -> str:
    """POST the escalation to the configured webhook.

    Returns "skipped" when no webhook is configured, "delivered" on a 2xx
    response (also setting ``notified``), and "failed" otherwise. Failures
    are never fatal to the pipeline.
    """
    if not webhook_url:
        return STATUS_SKIPPED
    import http.client
    import urllib.error
    import urllib.parse
    import urllib.request

    payload = {
        "txid": txid,
        "reasons": list(escalation.reasons),
        "timestamp": escalation.timestamp,
        "run_id": run_id,
    }
    try:
        # urllib also opens file:, data: and ftp: URLs, whose responses have
        # no HTTP status.
        if urllib.parse.urlsplit(webhook_url).scheme not in _WEBHOOK_SCHEMES:
            raise ValueError(f"not an http(s) URL: {webhook_url!r}")
        request = urllib.request.Request(
            webhook_url,
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with _webhook_opener()[0].open(request, timeout=timeout) as response:
            status = response.status
    except urllib.error.HTTPError as exc:  # a non-2xx answer
        exc.close()
        status = exc.code
    except (OSError, ValueError, http.client.HTTPException):
        # URLError, timeouts, resets, malformed replies and unusable URLs.
        log.warning("escalation webhook unreachable", exc_info=True)
        return STATUS_FAILED
    if 200 <= status < 300:
        escalation.notified = True
        return STATUS_DELIVERED
    log.warning("escalation webhook returned %s", status)
    return STATUS_FAILED


#: Below this dominant probability or this coherence, the hedged variant applies.
HEDGE_PROBABILITY = 0.5
HEDGE_COHERENCE = 0.4


def plan_response(fused: FusionOutcome, escalation: Escalation, templates: Mapping[str, str]) -> str:
    """Pick the response template for the dominant emotion.

    A triggered escalation overrides everything with the safe handoff. The
    hedged variant applies when the dominant probability or the coherence is
    low, to avoid escalatory replies on shaky evidence. Total: some non-empty
    string is always returned.
    """
    if escalation.triggered:
        return templates.get("handoff", _FALLBACK_TEMPLATE)
    label, probability = dominant_emotion(fused.probs)
    variant = "hedged" if (probability < HEDGE_PROBABILITY or fused.coherence < HEDGE_COHERENCE) else "plain"
    return (
        templates.get(f"{label}.{variant}")
        or templates.get(f"{label}.plain")
        or _FALLBACK_TEMPLATE
    )


def load_templates(path: Optional[str] = None) -> Dict[str, str]:
    """Load the response template table (keys like "joy.plain", "handoff")."""
    text, origin = read_data_file(path, "templates_es.txt")
    templates: Dict[str, str] = {}
    for lineno, line in data_lines(text):
        if ":" not in line:
            raise ConfigError(f"{origin}:{lineno}: expected 'key: text'")
        key, value = line.split(":", 1)
        templates[key.strip()] = value.strip()
    return templates


def load_keywords(path: Optional[str] = None) -> List[str]:
    """Load the sensitive keyword list, one phrase per line."""
    text, _ = read_data_file(path, "keywords_es.txt")
    return [line for _, line in data_lines(text)]
