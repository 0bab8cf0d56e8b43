"""Fast self-test of the benchmark harness at tiny input sizes.

Run from the repository root: ``python3 -m pytest bench -q``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}
TINY = bench.Sizes(
    turn_round=3, turn_sessions=2, anchored_clips=4, anchored_sessions=2,
    session_turns=3, eval_rows=12, warmup_rows=2,
)


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert SPEC["command"][1] == "bench/run.py"


@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_end_to_end_metrics(workload, tmp_path):
    report = bench.measure(workload, seed=3, seconds=0, trace=False, work=tmp_path, sizes=TINY)
    line = bench.result_line(report, trace=False, units=UNITS)
    assert line["correct"], report["phases"][0].problems
    assert line["failed"] == 0 and line["attempted"] > 0
    assert list(line["metrics"]) == [metric["name"] for metric in SPEC["end_to_end"]]
    for name, metric in line["metrics"].items():
        assert math.isfinite(metric["value"]) and metric["value"] > 0, name


@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_traced_metrics_add_up(workload, tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    report = bench.measure(workload, seed=3, seconds=0, trace=True, work=tmp_path / "work",
                           sizes=TINY, trace_path=trace_path)
    line = bench.result_line(report, trace=True, units=UNITS)
    assert line["correct"], [p for phase in report["phases"] for p in phase.problems]
    assert sorted(line["metrics"]) == sorted(UNITS)
    layers = report["layers"]
    if workload != "batch_eval_500":
        parts = sum(layers[name] for name in bench.IN_TURN)
        assert parts == pytest.approx(layers["pipeline.run_turn_ms"], rel=1e-9)
    assert layers["audio.calls_per_op"] == (2.0 if workload == "batch_eval_500" else 1.0)
    spans = [json.loads(row) for row in trace_path.read_text().splitlines()]
    assert {"pipeline.run_turn", "audio.mfcc", "audit.read_event_line"} <= {s["name"] for s in spans}
    if workload == "anchored_history":
        assert layers["ledger.blocks_sealed"] >= 1 and "ledger.seal_ms" in report["extra"]


def test_tampered_log_line_fails_verification(tmp_path):
    config = bench.make_config(tmp_path, anchoring=True)
    wav = tmp_path / "turn.wav"
    bench.write_wav(wav, bench.tone(bench.np.random.default_rng(0), seconds=1.0))
    results, latencies = [], []
    with bench.Pipeline(config, clock=bench.pinned_clock) as pipeline:
        with bench.captured_turns(latencies, results):
            for _ in range(2):
                pipeline.run_turn(bench.TurnInput(str(wav), bench.TRANSCRIPT, 0.9))
    log = Path(config.audit.log_path)
    log.write_bytes(log.read_bytes().replace(b'"session_id":"default"', b'"session_id":"tampered"', 1))
    run = bench.Run()
    bench.verify(log, results, run, config)
    assert run.failed["verify"] == 1 and run.problems


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "turn_10s", "--seed", "0", "--seconds", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
