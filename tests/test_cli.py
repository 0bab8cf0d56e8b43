from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from affectfuse.audit import AuditLog, SimulatedLedger, canonicalize
from affectfuse.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, EXIT_VERIFY, main

from conftest import SRC, run_python, sine_buffer, write_wav


@pytest.fixture
def workspace(tmp_path):
    wav = tmp_path / "turn.wav"
    write_wav(wav, sine_buffer(440.0, 0.4).samples)
    config = tmp_path / "app.yaml"
    config.write_text(
        "\n".join(
            [
                "audit:",
                "  log_path: audit/events.jsonl",
                "  artifacts_dir: audit/fired_rules",
                "anchoring:",
                "  enabled: true",
                "  ledger_path: audit/ledger.json",
                "  pending_path: audit/pending.json",
                "  block_interval: 0.05",
                "run_id: cli-test",
            ]
        )
        + "\n",
        encoding="utf-8",
    )
    return tmp_path, str(config), str(wav)


def test_analyze_verify_and_anchor_status(workspace, capsys):
    tmp_path, config, wav = workspace
    code = main([
        "--config", config, "analyze",
        "--audio", wav, "--transcript", "hoy estoy muy feliz",
        "--asr-confidence", "0.9",
    ])
    assert code == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["dominant"] == "joy"
    txid = summary["txid"]

    import time

    deadline = time.time() + 3.0
    status = None
    while time.time() < deadline:
        assert main(["--config", config, "anchor-status", "--txid", txid]) == EXIT_OK
        status = json.loads(capsys.readouterr().out)
        if status["status"] == "anchored":
            break
        time.sleep(0.05)
    assert status["status"] == "anchored"

    log = tmp_path / "audit" / "events.jsonl"
    code = main(["--config", config, "verify", "--event", str(log), "--line", "1", "--txid", txid])
    assert code == EXIT_OK
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["verdict"] == "verified"

    # tamper: flip one byte of the stored line
    data = bytearray(log.read_bytes())
    data[10] ^= 0x01
    tampered = tmp_path / "tampered.json"
    tampered.write_bytes(bytes(data).splitlines()[0])
    code = main(["--config", config, "verify", "--event", str(tampered), "--txid", txid])
    assert code == EXIT_VERIFY
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["verdict"] == "tamper_detected"


def test_gen_corpus_and_batch_eval(workspace, capsys, tmp_path):
    _, config, _ = workspace
    corpus_dir = tmp_path / "corpus"
    code = main(["gen-corpus", "--out", str(corpus_dir), "--seed", "11", "--size", "12"])
    assert code == EXIT_OK
    manifest = json.loads(capsys.readouterr().out)["manifest"]

    out_dir = tmp_path / "eval"
    code = main([
        "--config", config, "batch-eval",
        "--manifest", manifest, "--out", str(out_dir),
        "--variants", "text_only,linear,fuzzy",
    ])
    assert code == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["rows"] == 12
    report = json.loads((out_dir / "report.json").read_text())
    assert "fuzzy" in report["variants"]


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("audio:\n  alpha_ema: 7\n", encoding="utf-8")
    code = main(["--config", str(bad), "anchor-status", "--txid", "ab" * 32])
    assert code == EXIT_CONFIG
    assert "audio.alpha_ema" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, named",
    [
        ("audio: [alpha_ema: 0.5\n", "not valid YAML"),
        ("guardrails:\n  thresholds:\n    fear: abc\n", "guardrails.thresholds.fear"),
        ("guardrails:\n  thresholds:\n    feer: 0.7\n", "guardrails.thresholds.feer"),
    ],
    ids=["yaml", "threshold", "threshold_label"],
)
def test_a_bad_config_file_is_a_config_error_not_a_traceback(tmp_path, capsys, text, named):
    bad = tmp_path / "bad.yaml"
    bad.write_text(text, encoding="utf-8")
    code = main(["--config", str(bad), "anchor-status", "--txid", "ab" * 32])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("configuration error: ") and named in err
    assert "Traceback" not in err


EMPTY_RULE_BASE = """
id: empty
variables:
  asr_conf: {domain: [0, 1], sets: {low: [0, 0, 0.3, 0.5]}}
  arousal: {domain: [0, 1], sets: {low: [0, 0, 0.2, 0.4]}}
  valence: {domain: [-1, 1], sets: {neu: [-0.25, -0.05, 0.05, 0.25]}}
output: {name: w_text, domain: [0, 1], sets: {mid: [0, 0.5, 0.5, 1]}}
rules: []
"""


@pytest.mark.parametrize(
    "section, key, name, text",
    [
        ("fusion", "rule_base_path", "rules.yaml", "id: [broken\n"),
        ("fusion", "rule_base_path", "rules.yaml", "id: broken\nvariables: {}\nrules: []\n"),
        ("text", "lexicon_path", "lexicon.tsv", "feliz\talegria\t0.5\n"),
        ("text", "lexicon_path", "lexicon.tsv", "feliz\talegria\tmucho\t0.4\n"),
        ("text", "lemmas_path", "lemmas.tsv", "feliz\n"),
        ("guardrails", "templates_path", "templates.txt", "handoff\n"),
        *(
            ("fusion", "rule_base_path", "rules.yaml", EMPTY_RULE_BASE.replace(old, new, 1))
            for old, new in [
                ("domain: [0, 1]", "domain: [abc, 1]"),
                ("[0, 0, 0.3, 0.5]", "[0, 0, x, 0.5]"),
                ("rules: []", 'rules: [{if: ["asr_conf is nosuch"], then: "w_text is mid"}]'),
                ("[0, 0, 0.3, 0.5]", "[0, 0.4, 0.3, 0.5]"),
                ("rules: []", "rules: 5"),
                ("rules: []", 'rules: [{if: "asr_conf is low", then: "w_text is mid"}]'),
            ]
        ),
    ],
    ids=[
        "rule_base_yaml", "rule_base_section", "lexicon_columns", "lexicon_weight", "lemmas", "templates",
        "rule_base_domain_not_a_number", "rule_base_set_point_not_a_number", "rule_base_unknown_set",
        "rule_base_points_out_of_order", "rule_base_rules_not_a_list", "rule_base_if_not_a_list",
    ],
)
def test_a_bad_data_file_is_a_config_error_naming_the_file(workspace, capsys, section, key, name, text):
    tmp_path, config, wav = workspace
    (tmp_path / name).write_text(text, encoding="utf-8")
    configured = tmp_path / "data.yaml"
    configured.write_text(
        Path(config).read_text(encoding="utf-8") + f"{section}:\n  {key}: {name}\n", encoding="utf-8"
    )
    code = main([
        "--config", str(configured), "analyze",
        "--audio", wav, "--transcript", "hola", "--asr-confidence", "0.9",
    ])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("configuration error: ") and f"{name}:" in err
    assert "Traceback" not in err


def test_verify_not_anchored_exit_code(workspace, capsys, tmp_path):
    _, config, wav = workspace
    event = tmp_path / "event.json"
    event.write_bytes(b'{"x":1}')
    import hashlib

    txid = hashlib.sha256(b'{"x":1}').hexdigest()
    code = main(["--config", config, "verify", "--event", str(event), "--txid", txid])
    assert code == EXIT_VERIFY
    assert json.loads(capsys.readouterr().out)["verdict"] == "not_anchored"


def test_verify_reads_the_last_line_of_a_long_log(workspace, capsys):
    tmp_path, config, _ = workspace
    audit = tmp_path / "audit"
    log = audit / "events.jsonl"
    with AuditLog(str(log)) as audit_log:
        for n in range(2000):
            event = canonicalize({"n": n})
            assert audit_log.append(event) == n + 1
    txid = hashlib.sha256(event).hexdigest()
    with SimulatedLedger(str(audit / "ledger.json"), str(audit / "pending.json")) as ledger:
        ledger.submit(txid)
    verify = ["--config", config, "verify", "--event", str(log), "--txid", txid, "--line"]
    assert main(verify + ["2000"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["verdict"] == "verified"
    assert main(verify + ["2001"]) == EXIT_RUNTIME
    assert "has no line 2001" in capsys.readouterr().err


def test_verify_refuses_a_txid_whose_block_no_longer_hashes(workspace, capsys, tmp_path):
    _, config, _ = workspace
    event = tmp_path / "event.json"
    event.write_bytes(b'{"x":1}')
    txid = hashlib.sha256(b'{"x":1}').hexdigest()
    audit = tmp_path / "audit"
    with SimulatedLedger(str(audit / "ledger.json"), str(audit / "pending.json")) as ledger:
        ledger.submit(txid)
    block = json.loads((audit / "ledger.json").read_bytes())
    block["timestamp"] = "1999-01-01T00:00:00+00:00"
    (audit / "ledger.json").write_bytes(canonicalize(block) + b"\n")
    assert main(["--config", config, "verify", "--event", str(event), "--txid", txid]) == EXIT_VERIFY
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["verdict"] == "tamper_detected"
    assert verdict["block_number"] == 0


def test_verify_says_why_the_ledger_would_not_open(workspace, capsys, tmp_path):
    _, config, _ = workspace
    event = tmp_path / "event.json"
    event.write_bytes(b'{"x":1}')
    txid = hashlib.sha256(b'{"x":1}').hexdigest()
    audit = tmp_path / "audit"
    with SimulatedLedger(str(audit / "ledger.json"), str(audit / "pending.json")) as ledger:
        ledger.submit(txid)  # sealed into block 0 on close
    with (audit / "pending.json").open("a", encoding="utf-8") as handle:
        handle.write("not-a-txid\n")
    assert main(["--config", config, "verify", "--event", str(event), "--txid", txid]) == EXIT_VERIFY
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["verdict"] == "unavailable"
    assert "pending.json" in verdict["detail"] and "'not-a-txid'" in verdict["detail"]
    event.write_bytes(b'{"x":2}')  # a digest mismatch still answers first
    assert main(["--config", config, "verify", "--event", str(event), "--txid", txid]) == EXIT_VERIFY
    assert json.loads(capsys.readouterr().out)["verdict"] == "tamper_detected"


def test_read_commands_leave_a_queued_ledger_untouched(workspace, capsys, tmp_path):
    _, config, _ = workspace
    event = tmp_path / "event.json"
    event.write_bytes(b'{"x":1}')
    txid = hashlib.sha256(b'{"x":1}').hexdigest()
    audit = tmp_path / "audit"
    SimulatedLedger(str(audit / "ledger.json"), str(audit / "pending.json")).submit(txid)
    with (audit / "pending.json").open("ab") as handle:  # a crash mid-submit left a torn line
        handle.write(txid[:30].encode())
    queued = (audit / "pending.json").read_bytes()
    assert main(["--config", config, "anchor-status", "--txid", txid]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["status"] == "submitted"
    assert main(["--config", config, "verify", "--event", str(event), "--txid", txid]) == EXIT_VERIFY
    assert json.loads(capsys.readouterr().out)["verdict"] == "not_anchored"
    assert (audit / "pending.json").read_bytes() == queued
    assert not (audit / "pending.json.torn").exists()
    assert not (audit / "ledger.json").exists()


# Each case runs in a fresh interpreter, then lists which of the named modules
# that interpreter loaded. scipy is only a test oracle, the webhook and the
# metrics server load the HTTP stack on first use, and verifying needs neither
# numpy nor PyYAML (the CLI loads PyYAML only to read a --config file).
_RUNTIME = "import affectfuse.cli, affectfuse.pipeline, affectfuse.evaluate"
_READ_COMMANDS = (
    "from affectfuse.cli import main\n"
    "assert main(['--config', CONFIG, 'verify', '--event', EVENT, '--txid', TXID]) == 0\n"
    "assert main(['--config', CONFIG, 'anchor-status', '--txid', TXID]) == 0"
)
# Without --config the default audit paths resolve against the working
# directory, which is the workspace holding the config file.
_READ_COMMANDS_WITHOUT_CONFIG = (
    "import os\nos.chdir(os.path.dirname(CONFIG))\nfrom affectfuse.cli import main\n"
    "assert main(['verify', '--event', EVENT, '--txid', TXID]) == 0\n"
    "assert main(['anchor-status', '--txid', TXID]) == 0"
)
FOOTPRINT = {
    "runtime_without_scipy": (_RUNTIME, ["scipy"]),
    "runtime_without_http_stack": (_RUNTIME, ["http.client", "http.server", "ssl", "urllib.request"]),
    "audit_without_numpy_or_yaml": ("import affectfuse.audit", ["numpy", "yaml"]),
    "cli_verify_without_numpy": (_READ_COMMANDS, ["numpy"]),
    "config_without_numpy_or_yaml": (
        "import affectfuse.config\naffectfuse.config.load_config(None, {})", ["numpy", "yaml"]
    ),
    "cli_read_commands_without_numpy_or_yaml": (_READ_COMMANDS_WITHOUT_CONFIG, ["numpy", "yaml"]),
    "cli_read_commands_without_metrics": (_READ_COMMANDS, ["affectfuse.metrics"]),
}


@pytest.mark.parametrize("case", list(FOOTPRINT))
def test_import_footprint(workspace, tmp_path, case):
    _, config, _ = workspace
    event = tmp_path / "event.json"
    event.write_bytes(b'{"x":1}')
    txid = hashlib.sha256(b'{"x":1}').hexdigest()
    audit = tmp_path / "audit"
    with SimulatedLedger(str(audit / "ledger.json"), str(audit / "pending.json")) as ledger:
        ledger.submit(txid)
    program, modules = FOOTPRINT[case]
    out = run_python(
        f"import sys\nCONFIG, EVENT, TXID = sys.argv[1:]\n{program}\n"
        f"print(sorted(set({modules!r}) & set(sys.modules)))",
        config, str(event), txid,
    )
    assert out.splitlines()[-1] == "[]"


def test_loading_a_configuration_and_verifying_leave_importlib_resources_unloaded(tmp_path):
    # Without site (-S), which may load importlib.resources itself before the program starts.
    event = tmp_path / "event.json"
    event.write_bytes(b'{"x":1}')
    txid = hashlib.sha256(b'{"x":1}').hexdigest()
    with SimulatedLedger(str(tmp_path / "audit" / "ledger.json"), str(tmp_path / "audit" / "pending.json")) as ledger:
        ledger.submit(txid)
    program = (
        "import os, sys\nbefore = set(sys.modules)\nos.chdir(sys.argv[1])\n"
        "from affectfuse.config import load_config\nload_config(None, {})\n"
        "from affectfuse.cli import main\n"
        "assert main(['verify', '--event', sys.argv[2], '--txid', sys.argv[3]]) == 0\n"
        "print(sorted({'importlib.resources'} & (set(sys.modules) - before)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", program, str(tmp_path), str(event), txid],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": str(SRC)},
    ).stdout
    assert out.splitlines()[-1] == "[]"


def test_metrics_serve_smoke(workspace, capsys, tmp_path):
    import threading
    import time
    import urllib.request

    _, config, _ = workspace
    corpus_dir = tmp_path / "corpus"
    main(["gen-corpus", "--out", str(corpus_dir), "--seed", "3", "--size", "6"])
    capsys.readouterr()

    holder = {}

    def run():
        holder["code"] = main([
            "--config", config, "metrics-serve",
            "--manifest", str(corpus_dir / "manifest.jsonl"),
            "--port", "0", "--hold", "2.5",
        ])

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    time.sleep(0.4)
    out = capsys.readouterr().out
    port = json.loads(out.splitlines()[0])["port"]
    deadline = time.time() + 4.0
    text = ""
    while time.time() < deadline:
        try:
            with urllib.request.urlopen(f"http://127.0.0.1:{port}/metrics", timeout=1) as response:
                text = response.read().decode("utf-8")
            if "pipeline_stage_latency_seconds" in text:
                break
        except OSError:
            pass
        time.sleep(0.1)
    assert "pipeline_stage_latency_seconds" in text
    thread.join(timeout=6.0)
    assert holder.get("code") == EXIT_OK


def with_rule_base(config: str, rule_base_text: str, name: str) -> str:
    """A copy of the workspace config whose fusion uses the given rule base."""
    base = Path(config).parent
    (base / f"{name}.rules.yaml").write_text(rule_base_text, encoding="utf-8")
    copy = base / f"{name}.yaml"
    copy.write_text(
        Path(config).read_text(encoding="utf-8") + f"fusion:\n  rule_base_path: {name}.rules.yaml\n",
        encoding="utf-8",
    )
    return str(copy)


def analyze(config: str, wav: str, capsys) -> dict:
    code = main([
        "--config", config, "analyze",
        "--audio", wav, "--transcript", "hoy estoy muy feliz",
        "--asr-confidence", "0.9",
    ])
    assert code == EXIT_OK
    return json.loads(capsys.readouterr().out)


def explain(config: str, log: Path, txid: str, line: int = 1) -> int:
    return main(["--config", config, "explain", "--event", str(log), "--line", str(line), "--txid", txid])


def written(tmp_path) -> list:
    artifacts = tmp_path / "audit" / "fired_rules"
    return sorted(p.name for p in artifacts.iterdir()) if artifacts.exists() else []


def test_explain_writes_the_files_of_a_sealed_turn(workspace, capsys):
    tmp_path, config, wav = workspace
    txid = analyze(config, wav, capsys)["txid"]
    assert written(tmp_path) == []
    assert explain(config, tmp_path / "audit" / "events.jsonl", txid) == EXIT_OK
    files = json.loads(capsys.readouterr().out)["files"]
    assert [Path(f).parent for f in files] == [tmp_path / "audit" / "fired_rules"] * 3
    assert written(tmp_path) == sorted(f"{txid}{suffix}" for suffix in (".json", ".csv", ".ppm"))
    payload = json.loads((tmp_path / "audit" / "fired_rules" / f"{txid}.json").read_text())
    assert payload["txid"] == txid


def test_explain_refuses_a_line_that_does_not_hash_to_the_txid(workspace, capsys):
    tmp_path, config, wav = workspace
    txid = analyze(config, wav, capsys)["txid"]
    log = tmp_path / "audit" / "events.jsonl"
    data = bytearray(log.read_bytes())
    data[10] ^= 0x01
    log.write_bytes(bytes(data))
    assert explain(config, log, txid) == EXIT_VERIFY
    assert "do not hash to txid" in capsys.readouterr().err
    assert written(tmp_path) == []


def test_explain_past_the_last_line_is_a_runtime_error(workspace, capsys):
    tmp_path, config, wav = workspace
    txid = analyze(config, wav, capsys)["txid"]
    assert explain(config, tmp_path / "audit" / "events.jsonl", txid, line=2) == EXIT_RUNTIME
    assert "has no line 2" in capsys.readouterr().err
    assert written(tmp_path) == []


def test_explain_a_linear_fallback_event_is_a_runtime_error(workspace, capsys):
    tmp_path, config, wav = workspace
    config = with_rule_base(config, EMPTY_RULE_BASE, "empty")
    summary = analyze(config, wav, capsys)
    assert summary["mode"] == "linear_fallback"
    assert explain(config, tmp_path / "audit" / "events.jsonl", summary["txid"]) == EXIT_RUNTIME
    assert "no fusion_fuzzy block" in capsys.readouterr().err
    assert written(tmp_path) == []


def test_explain_with_another_rule_base_is_a_config_error(workspace, capsys):
    tmp_path, config, wav = workspace
    txid = analyze(config, wav, capsys)["txid"]
    default = resources.files("affectfuse.data").joinpath("rules_default.yaml").read_text(encoding="utf-8")
    assert "id: default-r1r4\n" in default
    other = with_rule_base(config, default.replace("id: default-r1r4\n", "id: other\n"), "other")
    assert explain(other, tmp_path / "audit" / "events.jsonl", txid) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "configuration error" in err and "'default-r1r4'" in err and "'other'" in err
    assert written(tmp_path) == []
