from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from affectfuse.core import VadState, normalize_distribution
from affectfuse.fusion import FusionOutcome
from affectfuse.guardrails import (
    STATUS_DELIVERED,
    STATUS_FAILED,
    STATUS_SKIPPED,
    evaluate_guardrails,
    load_keywords,
    load_templates,
    notify_escalation,
    plan_response,
    Escalation,
    _webhook_opener,
)

TEMPLATES = load_templates()
KEYWORDS = load_keywords()


def outcome(probs, coherence=0.9):
    return FusionOutcome(
        probs=normalize_distribution(probs),
        vad=VadState(0.0, 0.5),
        w_text=0.5,
        w_audio=0.5,
        mode="fuzzy",
        coherence=coherence,
    )


def test_fear_threshold_triggers():
    esc = evaluate_guardrails(outcome({"fear": 0.75, "neutral": 0.25}), "texto normal")
    assert esc.triggered
    assert "fear>0.7" in esc.reasons


def test_keyword_triggers():
    esc = evaluate_guardrails(
        outcome({"neutral": 1.0}), "a veces pienso en hacerme daño", keywords=KEYWORDS
    )
    assert esc.triggered
    assert any(r.startswith("keyword:") for r in esc.reasons)


def test_data_files_skip_indented_comments_and_count_every_line(tmp_path):
    keywords = tmp_path / "keywords.txt"
    keywords.write_text("hola\n  # nota interna\n\n  adiós  \n", encoding="utf-8")
    assert load_keywords(str(keywords)) == ["hola", "adiós"]
    templates = tmp_path / "templates.txt"
    templates.write_text("  # cabecera\n\njoy.plain: Qué bien.\nsin dos puntos\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"templates\.txt:4: expected 'key: text'"):
        load_templates(str(templates))


def test_keyword_matching_ignores_case_and_diacritics():
    esc = evaluate_guardrails(
        outcome({"neutral": 1.0}), "QUIERO HACERME DAÑO", keywords=["hacerme daño"]
    )
    assert esc.triggered
    esc2 = evaluate_guardrails(
        outcome({"neutral": 1.0}), "quiero hacerme dano", keywords=["hacerme daño"]
    )
    assert esc2.triggered


def test_accented_upper_case_keyword_file_matches(tmp_path):
    keywords = tmp_path / "keywords.txt"
    keywords.write_text("HACERME DAÑO\nQUITARME LA VÍDA\n", encoding="utf-8")
    loaded = load_keywords(str(keywords))
    for _ in range(2):  # the second turn reuses each keyword's normalized form
        esc = evaluate_guardrails(
            outcome({"neutral": 1.0}), "A veces pienso en quitarme la vida", keywords=loaded
        )
        assert esc.reasons == ["keyword:QUITARME LA VÍDA"]
        esc = evaluate_guardrails(outcome({"neutral": 1.0}), "hacerme dano", keywords=loaded)
        assert esc.reasons == ["keyword:HACERME DAÑO"]


def test_benign_turn_not_triggered():
    esc = evaluate_guardrails(outcome({"neutral": 0.9, "joy": 0.1}), "hola, todo bien", keywords=KEYWORDS)
    assert not esc.triggered
    assert esc.reasons == []


def test_triggered_iff_reasons():
    esc = evaluate_guardrails(outcome({"sadness": 0.9, "neutral": 0.1}), "x")
    assert esc.triggered and esc.reasons == ["sadness>0.85"]


class _Hook(BaseHTTPRequestHandler):
    status = 200
    received = []
    moved = None  # (status, location) answered on /moved

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        if self.path == "/moved":
            self.send_response(type(self).moved[0])
            self.send_header("Location", type(self).moved[1])
        else:
            type(self).received.append(body)
            self.send_response(type(self).status)
        self.end_headers()

    def log_message(self, *args):
        pass


@pytest.fixture
def webhook_server():
    _Hook.received = []
    _Hook.moved = None
    server = HTTPServer(("127.0.0.1", 0), _Hook)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


def test_notify_skipped_without_webhook():
    esc = Escalation(triggered=True, reasons=["fear>0.7"])
    assert notify_escalation(esc, None) == STATUS_SKIPPED
    assert esc.notified is False


def test_notify_delivered_on_200(webhook_server):
    _Hook.status = 200
    esc = Escalation(triggered=True, reasons=["fear>0.7"], timestamp="t0")
    url = f"http://127.0.0.1:{webhook_server.server_address[1]}/hook"
    assert notify_escalation(esc, url, txid="ab" * 32, run_id="r1") == STATUS_DELIVERED
    assert esc.notified is True
    payload = _Hook.received[0]
    assert payload == {"txid": "ab" * 32, "reasons": ["fear>0.7"], "timestamp": "t0", "run_id": "r1"}


def test_notify_failed_on_500(webhook_server):
    _Hook.status = 500
    esc = Escalation(triggered=True, reasons=["fear>0.7"])
    url = f"http://127.0.0.1:{webhook_server.server_address[1]}/hook"
    assert notify_escalation(esc, url) == STATUS_FAILED
    assert esc.notified is False


def test_notify_failed_on_unreachable():
    esc = Escalation(triggered=True, reasons=["x"])
    assert notify_escalation(esc, "http://127.0.0.1:1/none", timeout=0.2) == STATUS_FAILED


@pytest.mark.parametrize("code", [307, 308])
def test_notify_repeats_post_on_redirect(webhook_server, code):
    _Hook.status = 200
    _Hook.moved = (code, "/hook")
    esc = Escalation(triggered=True, reasons=["fear>0.7"], timestamp="t0")
    url = f"http://127.0.0.1:{webhook_server.server_address[1]}/moved"
    assert notify_escalation(esc, url, txid="cd" * 32, run_id="r2") == STATUS_DELIVERED
    assert _Hook.received == [{"txid": "cd" * 32, "reasons": ["fear>0.7"], "timestamp": "t0", "run_id": "r2"}]


@pytest.mark.parametrize("location", ["ftp://127.0.0.1/hook", "file:///dev/null"])
def test_redirect_off_http_refused(location):
    # urllib follows redirects to ftp:, whose responses carry no HTTP status.
    request = urllib.request.Request("http://127.0.0.1/moved", data=b"{}", method="POST")
    with pytest.raises(urllib.error.HTTPError):
        _webhook_opener()[1]().redirect_request(request, None, 307, "Temporary Redirect", {}, location)


@pytest.mark.parametrize(
    "url", ["not a url", "ftp-nope://host/hook", "http://[::1", "data:,x", "file:///dev/null"]
)
def test_notify_failed_on_unusable_url(url):
    esc = Escalation(triggered=True, reasons=["x"])
    assert notify_escalation(esc, url, timeout=0.2) == STATUS_FAILED
    assert esc.notified is False


def test_plain_template_on_confident_joy():
    text = plan_response(outcome({"joy": 0.9, "neutral": 0.1}), Escalation(False), TEMPLATES)
    assert text == TEMPLATES["joy.plain"]


def test_hedged_template_on_weak_dominant():
    text = plan_response(outcome({"anger": 0.45, "neutral": 0.3, "fear": 0.25}), Escalation(False), TEMPLATES)
    assert text == TEMPLATES["anger.hedged"]


def test_hedged_template_on_low_coherence():
    text = plan_response(outcome({"joy": 0.9, "neutral": 0.1}, coherence=0.3), Escalation(False), TEMPLATES)
    assert text == TEMPLATES["joy.hedged"]


def test_handoff_overrides_everything():
    text = plan_response(outcome({"joy": 0.9, "neutral": 0.1}), Escalation(True, ["keyword:x"]), TEMPLATES)
    assert text == TEMPLATES["handoff"]


def test_plan_response_total_over_all_labels():
    from affectfuse.core import LABELS

    for label in LABELS:
        for esc in (Escalation(False), Escalation(True, ["r"])):
            for coherence in (0.2, 0.9):
                text = plan_response(outcome({label: 1.0}, coherence=coherence), esc, TEMPLATES)
                assert isinstance(text, str) and text


def test_plan_response_total_with_missing_templates():
    text = plan_response(outcome({"joy": 0.9, "neutral": 0.1}), Escalation(False), {})
    assert isinstance(text, str) and text
