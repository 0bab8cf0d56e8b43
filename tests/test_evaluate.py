from __future__ import annotations

import hashlib
import json

import pytest

from affectfuse import audio as audio_mod
from affectfuse import text as text_mod
from affectfuse.core import LABELS
from affectfuse.corpus import generate_synthetic_corpus
from affectfuse.evaluate import (
    ABLATIONS,
    VARIANTS,
    classification_metrics,
    load_manifest,
    run_batch_eval,
)
from affectfuse.metrics import MetricsRegistry
from affectfuse.pipeline import Pipeline

from conftest import make_test_config


def brute_force_metrics(golds, preds):
    """Independent straight-loop oracle for every reported metric."""
    n = len(golds)
    per_class = {}
    for label in LABELS:
        tp = sum(1 for g, p in zip(golds, preds) if g == label and p == label)
        fp = sum(1 for g, p in zip(golds, preds) if g != label and p == label)
        fn = sum(1 for g, p in zip(golds, preds) if g == label and p != label)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class[label] = (precision, recall, f1, tp + fn)
    accuracy = sum(1 for g, p in zip(golds, preds) if g == p) / n
    macro = tuple(
        sum(per_class[l][i] for l in LABELS) / len(LABELS) for i in range(3)
    )
    total = sum(per_class[l][3] for l in LABELS)
    weighted = tuple(
        sum(per_class[l][i] * per_class[l][3] for l in LABELS) / total for i in range(3)
    )
    return accuracy, per_class, macro, weighted


def test_metrics_equal_brute_force_oracle():
    golds = ["joy", "joy", "sadness", "anger", "fear", "disgust",
             "neutral", "neutral", "sadness", "anger", "joy", "fear"]
    preds = ["joy", "sadness", "sadness", "anger", "neutral", "disgust",
             "neutral", "joy", "sadness", "fear", "joy", "fear"]
    report = classification_metrics(golds, preds)
    accuracy, per_class, macro, weighted = brute_force_metrics(golds, preds)
    assert report["accuracy"] == accuracy
    for label in LABELS:
        got = report["per_class"][label]
        assert (got["precision"], got["recall"], got["f1"], got["support"]) == per_class[label]
    assert (report["macro"]["precision"], report["macro"]["recall"], report["macro"]["f1"]) == macro
    assert (
        report["weighted"]["precision"], report["weighted"]["recall"], report["weighted"]["f1"]
    ) == weighted


def test_oracle_predictor_scores_one():
    golds = ["joy", "sadness", "anger", "fear", "disgust", "neutral"] * 2
    report = classification_metrics(golds, golds)
    assert report["accuracy"] == 1.0
    assert report["macro"]["f1"] == 1.0
    assert report["weighted"]["f1"] == 1.0


def test_single_class_weighted_equals_class_f1():
    golds = ["anger"] * 7
    preds = ["anger"] * 5 + ["fear"] * 2
    report = classification_metrics(golds, preds)
    assert report["weighted"]["f1"] == report["per_class"]["anger"]["f1"]
    assert report["weighted"]["recall"] == report["per_class"]["anger"]["recall"]


def test_confusion_rows_normalized():
    golds = ["joy", "joy", "joy", "sadness"]
    preds = ["joy", "joy", "sadness", "sadness"]
    report = classification_metrics(golds, preds)
    joy_row = report["confusion_normalized"][0]
    assert joy_row[0] == pytest.approx(2 / 3)
    assert joy_row[1] == pytest.approx(1 / 3)
    assert sum(report["confusion"][0]) == 3


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    manifest = generate_synthetic_corpus(str(out), seed=424, size=24)
    return manifest


def test_batch_eval_runs_all_variants(tmp_path, small_corpus, pinned_clock):
    config = make_test_config(tmp_path)
    report = run_batch_eval(
        str(small_corpus),
        config,
        variants=("text_only", "audio_only", "linear", "fuzzy"),
        ablations=("no_text", "no_audio", "no_gating", "fixed_weight"),
        out_dir=str(tmp_path / "report"),
        clock=pinned_clock,
    )
    assert report["rows"] == 24
    assert report["skipped"] == 0
    for name in ("text_only", "audio_only", "linear", "fuzzy"):
        assert 0.0 <= report["variants"][name]["weighted"]["f1"] <= 1.0
    for name in ("no_text", "no_audio", "no_gating", "fixed_weight"):
        assert "weighted" in report["ablations"][name]
    assert (tmp_path / "report" / "report.json").exists()
    assert (tmp_path / "report" / "confusion_fuzzy.csv").exists()
    assert (tmp_path / "report" / "confusion_no_text.csv").exists()
    assert (tmp_path / "report" / "audit" / "events.jsonl").exists()
    assert "disagreements" in report
    # ablation identities: no_gating shares predictions with linear
    for row in report["predictions"]:
        assert row["no_gating"] == row["linear"]


def test_batch_eval_deterministic_under_pinned_clock(tmp_path, small_corpus, pinned_clock):
    outputs = []
    for name in ("one", "two"):
        out = tmp_path / name
        config = make_test_config(tmp_path / f"state-{name}")
        run_batch_eval(str(small_corpus), config, out_dir=str(out), clock=pinned_clock)
        outputs.append(
            (
                (out / "report.json").read_bytes(),
                (out / "audit" / "events.jsonl").read_bytes(),
            )
        )
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]


def test_batch_eval_skips_missing_audio(tmp_path, small_corpus):
    manifest_lines = small_corpus.read_text().strip().splitlines()
    row = json.loads(manifest_lines[0])
    row["audio"] = "wav/does-not-exist.wav"
    row["id"] = "row-missing"
    broken = tmp_path / "manifest.jsonl"
    broken.write_text("\n".join(manifest_lines + [json.dumps(row)]), encoding="utf-8")
    # audio paths are relative to the manifest directory; re-point them
    fixed_rows = []
    for line in manifest_lines:
        record = json.loads(line)
        record["audio"] = str(small_corpus.parent / record["audio"])
        fixed_rows.append(json.dumps(record))
    row["audio"] = str(small_corpus.parent / "wav" / "does-not-exist.wav")
    broken.write_text("\n".join(fixed_rows + [json.dumps(row)]), encoding="utf-8")
    config = make_test_config(tmp_path)
    report = run_batch_eval(str(broken), config, variants=("text_only",))
    assert report["skipped"] == 1
    assert report["skipped_ids"] == ["row-missing"]
    assert report["rows"] == 24


def test_empty_manifest_rejected(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    config = make_test_config(tmp_path)
    with pytest.raises(ValueError):
        run_batch_eval(str(path), config, variants=("text_only",))


def test_unknown_variant_rejected(tmp_path, small_corpus):
    config = make_test_config(tmp_path)
    with pytest.raises(ValueError):
        run_batch_eval(str(small_corpus), config, variants=("nosuch",))


def test_manifest_accepts_spanish_labels(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text(
        json.dumps({"id": "r", "audio": "x.wav", "transcript": "t",
                    "asr_confidence": 0.5, "label": "alegría"}) + "\n",
        encoding="utf-8",
    )
    rows = load_manifest(str(path))
    assert rows[0].label == "joy"


def test_duplicate_row_id_names_both_lines(tmp_path):
    row = {"id": "r1", "audio": "x.wav", "transcript": "t", "asr_confidence": 0.5, "label": "joy"}
    path = tmp_path / "m.jsonl"
    path.write_text(
        "\n".join([json.dumps(row), "", json.dumps({**row, "label": "fear"})]) + "\n",
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match=r"m\.jsonl:3: duplicate row id 'r1', first used on line 1"):
        load_manifest(str(path))


@pytest.mark.parametrize("confidence", [1.5, -0.1, float("nan")], ids=["above", "below", "nan"])
def test_out_of_range_asr_confidence_names_its_line(tmp_path, confidence):
    row = {"id": "r1", "audio": "x.wav", "transcript": "t", "asr_confidence": 0.5, "label": "joy"}
    path = tmp_path / "m.jsonl"
    path.write_text(
        json.dumps(row) + "\n" + json.dumps({**row, "id": "r2", "asr_confidence": confidence}) + "\n",
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match=r"m\.jsonl:2: bad manifest row: asr_confidence must be in \[0, 1\]"):
        load_manifest(str(path))


def test_boolean_asr_confidence_names_its_line(tmp_path):
    row = {"id": "r1", "audio": "x.wav", "transcript": "t", "asr_confidence": 0.5, "label": "joy"}
    path = tmp_path / "m.jsonl"
    path.write_text(
        json.dumps(row) + "\n" + json.dumps({**row, "id": "r2", "asr_confidence": True}) + "\n",
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match=r"m\.jsonl:2: bad manifest row: asr_confidence must be a number, got True"):
        load_manifest(str(path))


def test_no_gating_reuses_linear(tmp_path, small_corpus, pinned_clock):
    report = run_batch_eval(
        str(small_corpus),
        make_test_config(tmp_path),
        variants=("linear",),
        ablations=ABLATIONS,
        clock=pinned_clock,
    )
    assert report["ablations"]["no_gating"] == report["variants"]["linear"]


#: SHA-256 of the id-sorted predictions of every variant and ablation on the
#: seed-424, 24-row corpus, recorded while evaluate still ran the channels
#: itself next to the pipeline; reusing the fuzzy turn's outputs must not move it.
SMALL_CORPUS_PREDICTIONS_SHA256 = "d1762ff12dc4e83f7803488b8065ea0c7fdf4ebd82bc1119ed781fafd0190911"


def test_predictions_digest_pinned(tmp_path, small_corpus, pinned_clock):
    report = run_batch_eval(
        str(small_corpus), make_test_config(tmp_path), VARIANTS, ABLATIONS,
        out_dir=str(tmp_path / "out"), clock=pinned_clock,
    )
    rows = sorted(report["predictions"], key=lambda row: row["id"])
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode("utf-8")).hexdigest()
    assert digest == SMALL_CORPUS_PREDICTIONS_SHA256


@pytest.mark.parametrize(
    "variants, ablations",
    [(VARIANTS, ABLATIONS), (("text_only", "linear"), ()), (("fuzzy",), ())],
    ids=["all", "no_fuzzy", "fuzzy_only"],
)
def test_each_row_runs_each_channel_once(tmp_path, small_corpus, pinned_clock, monkeypatch,
                                         variants, ablations):
    calls = {"load_wav": 0, "audio_emotion": 0, "text_emotion": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(audio_mod, "load_wav")
    counting(audio_mod, "audio_emotion")
    counting(text_mod, "text_emotion")
    report = run_batch_eval(
        str(small_corpus), make_test_config(tmp_path), variants, ablations,
        out_dir=str(tmp_path / "out"), clock=pinned_clock,
    )
    rows = report["rows"]
    assert rows == 24
    assert calls == {"load_wav": rows, "audio_emotion": rows, "text_emotion": rows}


#: SHA-256 of the whole seed-424 report but its manifest path (metrics,
#: confusion matrices, disagreements and predictions), measured while each
#: baseline still had its own code path; one weighted mix must not move it.
SMALL_CORPUS_REPORT_SHA256 = "de97cbe2d25733c344e56175a827615fa2f225facfd145b9adaf51f3d813eac6"


def test_report_digest_pinned(tmp_path, small_corpus, pinned_clock):
    report = run_batch_eval(
        str(small_corpus), make_test_config(tmp_path), VARIANTS, ABLATIONS,
        out_dir=str(tmp_path / "out"), clock=pinned_clock,
    )
    del report["manifest"]
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode("utf-8")).hexdigest()
    assert digest == SMALL_CORPUS_REPORT_SHA256


def test_baselines_alone_score_as_in_an_all_variants_report(tmp_path, small_corpus, pinned_clock):
    variants, ablations = ("text_only", "linear"), ("no_gating",)
    alone = run_batch_eval(
        str(small_corpus), make_test_config(tmp_path / "alone"), variants, ablations,
        out_dir=str(tmp_path / "alone-out"), clock=pinned_clock,
    )
    everything = run_batch_eval(
        str(small_corpus), make_test_config(tmp_path / "all"), VARIANTS, ABLATIONS,
        out_dir=str(tmp_path / "all-out"), clock=pinned_clock,
    )
    assert alone["variants"] == {name: everything["variants"][name] for name in variants}
    assert alone["ablations"] == {name: everything["ablations"][name] for name in ablations}
    keys = ("id", "gold", *variants, *ablations)
    assert alone["predictions"] == [{key: row[key] for key in keys} for row in everything["predictions"]]
    assert "fuzzy" not in alone["predictions"][0] and "disagreements" not in alone


def test_an_evaluation_without_fuzzy_audits_every_row(tmp_path, small_corpus, pinned_clock,
                                                       monkeypatch):
    txids = []
    run_turn = Pipeline.run_turn

    def recording(self, turn):
        result = run_turn(self, turn)
        txids.append(result.txid)
        return result

    monkeypatch.setattr(Pipeline, "run_turn", recording)
    registry = MetricsRegistry()
    out = tmp_path / "out"
    report = run_batch_eval(
        str(small_corpus), make_test_config(tmp_path), ("text_only", "linear"), ("no_gating",),
        out_dir=str(out), clock=pinned_clock, metrics=registry,
    )
    lines = (out / "audit" / "events.jsonl").read_bytes().splitlines()
    assert len(lines) == len(txids) == report["rows"] == 24
    assert [hashlib.sha256(line).hexdigest() for line in lines] == txids
    latency = registry.histogram("pipeline_stage_latency_seconds")
    assert latency.count(stage="decode") == report["rows"]
