"""Batch evaluation over a JSONL manifest.

Every evaluated row is one audited ``Pipeline.run_turn`` in its own
session, whichever variants are requested. The fuzzy variant is that turn's
fused estimate. Every other variant and ablation is one weighted mix of the
turn's channel outputs, ``w_text * p_text + (1 - w_text) * p_audio``, with
w_text 1 for text_only and no_audio, 0 for audio_only and no_text, 0.5 for
fixed_weight, and the row's manifest ASR confidence for linear and
no_gating. The report carries per-class and macro/weighted
precision/recall/F1, accuracy, class-normalized confusion matrices, and,
when fuzzy is requested, a disagreement analysis counting rows where the
fuzzy variant is correct and a baseline is wrong.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .config import PipelineConfig
from .core import LABELS, canonical_label, dominant_emotion
from .fusion import fuse_distributions
from .metrics import MetricsRegistry
from .pipeline import Clock, Pipeline, TurnInput

VARIANTS = ("text_only", "audio_only", "linear", "fuzzy")
ABLATIONS = ("no_text", "no_audio", "no_gating", "fixed_weight")

#: w_text of every variant and ablation but fuzzy; None is the row's asr_confidence.
_MIX_WEIGHT: Dict[str, Optional[float]] = {
    "text_only": 1.0, "no_audio": 1.0, "audio_only": 0.0, "no_text": 0.0,
    "fixed_weight": 0.5, "linear": None, "no_gating": None,
}


@dataclass(frozen=True)
class ManifestRow:
    row_id: str
    audio: str
    transcript: str
    asr_confidence: float
    label: str


def load_manifest(path: str) -> List[ManifestRow]:
    """Read manifest rows {id, audio, transcript, asr_confidence, label}.

    Relative audio paths resolve against the manifest directory; Spanish
    label aliases are accepted. Row ids must be unique: batch evaluation
    gives each row its own pipeline session. A row whose asr_confidence is
    a boolean or outside [0, 1] is rejected here, before any row is evaluated.
    """
    base = Path(path).resolve().parent
    rows: List[ManifestRow] = []
    first_line: Dict[str, int] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                raw = json.loads(line)
                audio_path = Path(raw["audio"])
                if not audio_path.is_absolute():
                    audio_path = base / audio_path
                if isinstance(raw["asr_confidence"], bool):  # float(True) is 1.0
                    raise TypeError(f"asr_confidence must be a number, got {raw['asr_confidence']}")
                confidence = float(raw["asr_confidence"])
                if not 0.0 <= confidence <= 1.0:  # also rejects NaN
                    raise ValueError(f"asr_confidence must be in [0, 1], got {confidence}")
                rows.append(
                    ManifestRow(
                        row_id=str(raw["id"]),
                        audio=str(audio_path),
                        transcript=str(raw["transcript"]),
                        asr_confidence=confidence,
                        label=canonical_label(str(raw["label"])),
                    )
                )
            except (KeyError, ValueError, TypeError) as exc:
                raise ValueError(f"{path}:{lineno}: bad manifest row: {exc}") from exc
            row_id = rows[-1].row_id
            if row_id in first_line:
                raise ValueError(
                    f"{path}:{lineno}: duplicate row id {row_id!r}, "
                    f"first used on line {first_line[row_id]}"
                )
            first_line[row_id] = lineno
    return rows


def classification_metrics(golds: Sequence[str], preds: Sequence[str]) -> Dict[str, object]:
    """Accuracy, per-class / macro / weighted P-R-F1, and confusion matrices."""
    if len(golds) != len(preds):
        raise ValueError("golds and preds must have equal length")
    n = len(golds)
    index = {label: i for i, label in enumerate(LABELS)}
    confusion = [[0 for _ in LABELS] for _ in LABELS]
    for gold, pred in zip(golds, preds):
        confusion[index[gold]][index[pred]] += 1

    per_class: Dict[str, Dict[str, float]] = {}
    for label in LABELS:
        i = index[label]
        tp = confusion[i][i]
        fp = sum(confusion[r][i] for r in range(len(LABELS))) - tp
        fn = sum(confusion[i]) - tp
        precision = tp / (tp + fp) if (tp + fp) else 0.0
        recall = tp / (tp + fn) if (tp + fn) else 0.0
        f1 = 2 * precision * recall / (precision + recall) if (precision + recall) else 0.0
        per_class[label] = {
            "precision": precision,
            "recall": recall,
            "f1": f1,
            "support": tp + fn,
        }

    def average(metric: str, weighted: bool) -> float:
        if weighted:
            total = sum(per_class[label]["support"] for label in LABELS)
            if total == 0:
                return 0.0
            return sum(per_class[label][metric] * per_class[label]["support"] for label in LABELS) / total
        return sum(per_class[label][metric] for label in LABELS) / len(LABELS)

    accuracy = sum(confusion[i][i] for i in range(len(LABELS))) / n if n else 0.0
    normalized = []
    for row in confusion:
        total = sum(row)
        normalized.append([value / total if total else 0.0 for value in row])

    return {
        "n": n,
        "accuracy": accuracy,
        "per_class": per_class,
        "macro": {m: average(m, weighted=False) for m in ("precision", "recall", "f1")},
        "weighted": {m: average(m, weighted=True) for m in ("precision", "recall", "f1")},
        "confusion": confusion,
        "confusion_normalized": normalized,
    }


def _write_confusion_csv(path: Path, matrix: Sequence[Sequence[float]]) -> None:
    lines = ["gold\\pred," + ",".join(LABELS)]
    for label, row in zip(LABELS, matrix):
        lines.append(label + "," + ",".join(f"{value:.6f}" for value in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def run_batch_eval(
    manifest_path: str,
    config: PipelineConfig,
    variants: Sequence[str] = VARIANTS,
    ablations: Sequence[str] = (),
    out_dir: Optional[str] = None,
    clock: Optional[Clock] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> Dict[str, object]:
    """Evaluate every requested variant over the manifest.

    Each row runs as one audited pipeline turn with the row id as its
    session, so rows stay independent of each other. With ``out_dir`` the
    audit log and ledger files land in ``<out_dir>/audit/``; otherwise they
    go where ``config`` says. Rows whose audio file is missing are skipped
    and counted.
    """
    for name in variants:
        if name not in VARIANTS:
            raise ValueError(f"unknown variant {name!r}")
    for name in ablations:
        if name not in ABLATIONS:
            raise ValueError(f"unknown ablation {name!r}")

    rows = load_manifest(manifest_path)
    if not rows:
        raise ValueError(f"manifest {manifest_path} is empty")

    pipeline_config = config
    if out_dir is not None:
        # Keep the evaluation self-contained: audit output lands in out_dir.
        pipeline_config = copy.deepcopy(config)
        pipeline_config.audit.log_path = str(Path(out_dir) / "audit" / "events.jsonl")
        pipeline_config.anchoring.ledger_path = str(Path(out_dir) / "audit" / "ledger.json")
        pipeline_config.anchoring.pending_path = str(Path(out_dir) / "audit" / "pending.json")

    row_records: List[Dict[str, object]] = []
    skipped: List[str] = []

    with Pipeline(pipeline_config, clock=clock, metrics=metrics) as pipeline:
        for row in rows:
            if not Path(row.audio).is_file():
                skipped.append(row.row_id)
                continue
            # Row ids are unique, so each turn opens a fresh session whose
            # smoother passes the raw arousal through.
            result = pipeline.run_turn(
                TurnInput(
                    audio_path=row.audio,
                    transcript=row.transcript,
                    asr_confidence=row.asr_confidence,
                    session_id=row.row_id,
                )
            )
            record: Dict[str, object] = {"id": row.row_id, "gold": row.label}
            if "fuzzy" in variants:
                record["fuzzy"] = str(result.event["final"]["dominant"])
            for name in (*variants, *ablations):
                if name != "fuzzy":
                    w_text = _MIX_WEIGHT[name]
                    w_text = row.asr_confidence if w_text is None else w_text
                    mixed = fuse_distributions(result.text.probs, result.audio.probs, w_text)
                    record[name] = dominant_emotion(mixed)[0]
            row_records.append(record)

    golds = [record["gold"] for record in row_records]

    def scores(name: str) -> Dict[str, object]:
        return classification_metrics(golds, [record[name] for record in row_records])

    report: Dict[str, object] = {
        "manifest": str(manifest_path),
        "rows": len(golds),
        "skipped": len(skipped),
        "skipped_ids": skipped,
        "run_id": config.run_id,
        "model_size": config.model_size,
        "variants": {name: scores(name) for name in variants},
        "ablations": {name: scores(name) for name in ablations},
        "predictions": row_records,
    }

    if "fuzzy" in variants:
        compared = {name: (name,) for name in variants if name != "fuzzy"}
        if "text_only" in variants and "linear" in variants:
            compared["text_and_linear"] = ("text_only", "linear")
        disagreements: Dict[str, object] = {}
        for key, baselines in compared.items():
            # rows that fuzzy gets right and every one of the baselines gets wrong
            ids = [
                record["id"]
                for record in row_records
                if record["fuzzy"] == record["gold"] and all(record[n] != record["gold"] for n in baselines)
            ]
            disagreements[f"fuzzy_corrects_{key}"] = len(ids)
            disagreements[f"fuzzy_corrects_{key}_ids"] = ids
        report["disagreements"] = disagreements

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(
            json.dumps(report, indent=2, sort_keys=True, ensure_ascii=False) + "\n",
            encoding="utf-8",
        )
        for name in (*variants, *ablations):
            section = report["variants"] if name in variants else report["ablations"]
            _write_confusion_csv(out / f"confusion_{name}.csv", section[name]["confusion_normalized"])
    return report
