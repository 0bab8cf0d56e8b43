"""Variant comparison on a synthetic corpus.

Generates a seeded corpus (tone-burst audio, lexicon-decodable transcripts,
confidence anti-correlated with transcript corruption), evaluates the
single-channel baselines, the linear mixture, and the fuzzy pipeline, and
prints the headline metrics plus the disagreement analysis.
"""

import tempfile
from pathlib import Path

from affectfuse.config import PipelineConfig
from affectfuse.corpus import generate_synthetic_corpus
from affectfuse.evaluate import run_batch_eval

with tempfile.TemporaryDirectory(prefix="affectfuse-eval-") as tmp:
    workdir = Path(tmp)
    manifest = generate_synthetic_corpus(str(workdir / "corpus"), seed=2026, size=240)
    print(f"corpus: {manifest}")

    config = PipelineConfig()
    config.anchoring.enabled = False
    config.audit.log_path = str(workdir / "audit" / "events.jsonl")
    config.audit.artifacts_dir = str(workdir / "audit" / "fired_rules")

    report = run_batch_eval(
        str(manifest),
        config,
        variants=("text_only", "audio_only", "linear", "fuzzy"),
        ablations=("no_gating", "fixed_weight"),
        out_dir=str(workdir / "out"),
    )

    print(f"\n{'variant':14s} {'accuracy':>8s} {'macro F1':>9s} {'weighted F1':>12s}")
    for name in ("text_only", "audio_only", "linear", "fuzzy"):
        metrics = report["variants"][name]
        print(f"{name:14s} {metrics['accuracy']:8.3f} {metrics['macro']['f1']:9.3f} "
              f"{metrics['weighted']['f1']:12.3f}")
    for name in ("no_gating", "fixed_weight"):
        metrics = report["ablations"][name]
        print(f"[{name}]".ljust(14) + f" {metrics['accuracy']:8.3f} {metrics['macro']['f1']:9.3f} "
              f"{metrics['weighted']['f1']:12.3f}")

    d = report["disagreements"]
    print(f"\nrows where the fuzzy pipeline corrects a baseline:")
    print(f"  corrects linear fusion : {d['fuzzy_corrects_linear']}")
    print(f"  corrects text only     : {d['fuzzy_corrects_text_only']}")
    print(f"  corrects audio only    : {d['fuzzy_corrects_audio_only']}")
    print(f"  corrects text AND linear simultaneously: {d['fuzzy_corrects_text_and_linear']}")
    written = sorted(path.name for path in (workdir / "out").iterdir())
    print(f"\nreport files (removed with the demo's temporary directory): {written}")
