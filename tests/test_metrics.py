from __future__ import annotations

import re
import urllib.error
import urllib.request

import pytest

from affectfuse.metrics import MetricsRegistry, MetricsServer, export_metrics


def test_counter_semantics():
    registry = MetricsRegistry("stub", "t1")
    counter = registry.counter("pii_redactions_total", "redactions")
    counter.inc()
    counter.inc()
    assert counter.value() == 2
    text = registry.render()
    assert '# TYPE pii_redactions_total counter' in text
    assert 'pii_redactions_total{model_size="stub",run_id="t1"} 2' in text


def test_gauge_series_carry_labels():
    registry = MetricsRegistry("base", "run-9")
    registry.gauge("audio_snr_db", "snr").set(17.5)
    registry.gauge("cross_modal_coherence", "coherence").set(0.875)
    text = registry.render()
    assert 'audio_snr_db{model_size="base",run_id="run-9"} 17.5' in text
    assert 'cross_modal_coherence{model_size="base",run_id="run-9"} 0.875' in text


def test_histogram_buckets_cumulative():
    registry = MetricsRegistry("stub", "t2")
    hist = registry.histogram("pipeline_stage_latency_seconds", "latency")
    hist.observe(0.003, stage="fusion")
    hist.observe(0.04, stage="fusion")
    hist.observe(0.2, stage="fusion")
    assert hist.bucket_count(0.05, stage="fusion") == 2
    assert hist.count(stage="fusion") == 3
    text = registry.render()
    assert '# TYPE pipeline_stage_latency_seconds histogram' in text
    assert 'le="0.05"' in text
    assert 'stage="fusion"' in text
    assert 'pipeline_stage_latency_seconds_count{model_size="stub",run_id="t2",stage="fusion"} 3' in text
    bucket_line = next(
        line for line in text.splitlines()
        if line.startswith("pipeline_stage_latency_seconds_bucket") and 'le="0.05"' in line
    )
    assert bucket_line.endswith(" 2")


def test_histogram_text_for_an_edge_an_overflow_and_nan():
    registry = MetricsRegistry("stub", "edge")
    hist = registry.histogram("pipeline_stage_latency_seconds", "Per-stage latency in seconds")
    for value in (0.05, 3.0, float("nan")):
        hist.observe(value, stage="fusion")
    series = 'pipeline_stage_latency_seconds_{}{{model_size="stub",run_id="edge",stage="fusion"{}}} {}'
    assert registry.render() == "\n".join([
        "# HELP pipeline_stage_latency_seconds Per-stage latency in seconds",
        "# TYPE pipeline_stage_latency_seconds histogram",
        series.format("bucket", ',le="0.001"', 0),
        series.format("bucket", ',le="0.0025"', 0),
        series.format("bucket", ',le="0.005"', 0),
        series.format("bucket", ',le="0.01"', 0),
        series.format("bucket", ',le="0.025"', 0),
        series.format("bucket", ',le="0.05"', 1),
        series.format("bucket", ',le="0.1"', 1),
        series.format("bucket", ',le="0.25"', 1),
        series.format("bucket", ',le="0.5"', 1),
        series.format("bucket", ',le="1.0"', 1),
        series.format("bucket", ',le="2.5"', 1),
        series.format("bucket", ',le="+Inf"', 3),
        series.format("sum", "", "nan"),
        series.format("count", "", 3),
    ]) + "\n"


def test_exposition_served_over_http():
    registry = MetricsRegistry("stub", "serve")
    registry.gauge("audio_snr_db", "snr").set(12.0)
    server = MetricsServer(registry, port=0)
    try:
        with urllib.request.urlopen(f"http://127.0.0.1:{server.port}/metrics", timeout=2) as response:
            assert response.status == 200
            assert "text/plain" in response.headers["Content-Type"]
            assert 'audio_snr_db{model_size="stub",run_id="serve"} 12' in response.read().decode("utf-8")
        with pytest.raises(urllib.error.HTTPError) as not_found:
            urllib.request.urlopen(f"http://127.0.0.1:{server.port}/other", timeout=2)
        not_found.value.close()
        assert not_found.value.code == 404
    finally:
        server.close()


def test_export_metrics_to_file(tmp_path):
    registry = MetricsRegistry("stub", "dump")
    registry.counter("pipeline_errors_total", "errors").inc(3)
    out = tmp_path / "metrics.txt"
    text = export_metrics(registry, str(out))
    assert out.read_text() == text
    assert "pipeline_errors_total" in text


def test_label_values_are_escaped():
    registry = MetricsRegistry("stub", 'run "7"\\a\nb')
    registry.gauge("audio_snr_db", "snr").set(1.0)
    registry.histogram("pipeline_stage_latency_seconds", "latency").observe(0.01, stage='q"s')
    text = registry.render()
    assert 'audio_snr_db{model_size="stub",run_id="run \\"7\\"\\\\a\\nb"} 1' in text
    sample = re.compile(r'^[a-zA-Z_:][a-zA-Z0-9_:]*\{([a-zA-Z_][a-zA-Z0-9_]*="([^"\\\n]|\\[\\"n])*",?)*\} \S+$')
    for line in text.splitlines():
        assert line.startswith("#") or sample.match(line), line
