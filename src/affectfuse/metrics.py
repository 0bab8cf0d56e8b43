"""Prometheus instrumentation (text exposition format 0.0.4).

A small self-contained registry: counters, gauges, and histograms, every
series labeled with model_size and run_id for cohort analysis. The registry
is safe for concurrent updates; exposition can be served over HTTP or dumped
to a file.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, List, Mapping, Optional, Tuple

DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
)


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


# Label values escape backslash, double quote and line feed (text format 0.0.4).
_LABEL_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n"})


def _format_labels(labels: Mapping[str, str]) -> str:
    # "le" sorts last so histogram bucket lines read naturally.
    keys = sorted(labels, key=lambda k: (k == "le", k))
    return "{" + ",".join(f'{k}="{str(labels[k]).translate(_LABEL_ESCAPES)}"' for k in keys) + "}"


class _Metric:
    """One metric; counters and gauges hold one value per label set."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str, base_labels: Mapping[str, str]) -> None:
        self.name = name
        self.help = help_text
        self.base_labels = dict(base_labels)
        self._lock = threading.Lock()
        self._values: Dict[Tuple[Tuple[str, str], ...], float] = {}
        self._keys: Dict[Tuple[Tuple[str, str], ...], Tuple[Tuple[str, str], ...]] = {}

    def _merge(self, labels: Mapping[str, str]) -> Tuple[Tuple[str, str], ...]:
        """The row key of a label set, merged with the base labels; built once per set."""
        given = tuple(labels.items())
        key = self._keys.get(given)
        if key is None:
            merged = dict(self.base_labels)
            merged.update({k: str(v) for k, v in given})
            key = self._keys[given] = tuple(sorted(merged.items()))
        return key

    def render(self) -> List[str]:
        with self._lock:
            items = sorted(self._values.items())
        return [
            f"{self.name}{_format_labels(dict(key))} {_format_value(value)}"
            for key, value in items
        ]


class Counter(_Metric):
    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = self._merge(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        with self._lock:
            return self._values.get(self._merge(labels), 0.0)

    def render(self) -> List[str]:
        # A counter that never moved still exposes its zero.
        return super().render() or [f"{self.name}{_format_labels(self.base_labels)} 0"]


class Gauge(_Metric):
    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        with self._lock:
            self._values[self._merge(labels)] = float(value)


class Histogram(_Metric):
    """Cumulative DEFAULT_BUCKETS counts, sum and count per label set.

    Each label set keeps one row: the count of observations per bucket, then
    the count above the last bound (and of NaN, which no bound admits), then
    the sum.
    """

    kind = "histogram"
    buckets = DEFAULT_BUCKETS

    def observe(self, value: float, **labels: str) -> None:
        key = self._merge(labels)
        index = bisect_left(self.buckets, value) if value == value else len(self.buckets)
        with self._lock:
            row = self._values.get(key)
            if row is None:
                row = self._values[key] = [0] * (len(self.buckets) + 1) + [0.0]
            row[index] += 1
            row[-1] += value

    def count(self, **labels: str) -> int:
        with self._lock:
            row = self._values.get(self._merge(labels))
            return sum(row[:-1]) if row else 0

    def bucket_count(self, upper: float, **labels: str) -> int:
        index = self.buckets.index(upper)
        with self._lock:
            row = self._values.get(self._merge(labels))
            return sum(row[: index + 1]) if row else 0

    def render(self) -> List[str]:
        lines: List[str] = []
        with self._lock:
            for key, row in sorted(self._values.items()):
                base = dict(key)
                cumulative = 0
                for upper, count in zip((*map(repr, self.buckets), "+Inf"), row):
                    cumulative += count
                    lines.append(f"{self.name}_bucket{_format_labels({**base, 'le': upper})} {cumulative}")
                lines.append(f"{self.name}_sum{_format_labels(base)} {repr(row[-1])}")
                lines.append(f"{self.name}_count{_format_labels(base)} {cumulative}")
        return lines


class MetricsRegistry:
    """Holds every metric of one pipeline run."""

    def __init__(self, model_size: str = "stub", run_id: str = "local") -> None:
        self.base_labels = {"model_size": model_size, "run_id": run_id}
        self._metrics: Dict[str, _Metric] = {}
        self._lock = threading.Lock()

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._get_or_create(name, help_text, Counter)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._get_or_create(name, help_text, Gauge)

    def histogram(self, name: str, help_text: str = "") -> Histogram:
        return self._get_or_create(name, help_text, Histogram)

    def _get_or_create(self, name: str, help_text: str, cls) -> _Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help_text, self.base_labels)
                self._metrics[name] = metric
            if not isinstance(metric, cls):
                raise TypeError(f"metric {name} already registered as {metric.kind}")
            return metric

    def render(self) -> str:
        with self._lock:
            metrics = [self._metrics[name] for name in sorted(self._metrics)]
        lines: List[str] = []
        for metric in metrics:
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            lines.extend(metric.render())
        return "\n".join(lines) + "\n"


class MetricsServer:
    """Serves /metrics on 127.0.0.1 only, from a daemon thread; port 0 picks a free one."""

    def __init__(self, registry: MetricsRegistry, port: int) -> None:
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer  # loaded only to serve

        class _MetricsHandler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                if self.path.rstrip("/") not in ("", "/metrics".rstrip("/")):
                    self.send_response(404)
                    self.end_headers()
                    return
                body = registry.render().encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args) -> None:
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", port), _MetricsHandler)
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=2.0)


def export_metrics(registry: MetricsRegistry, output_path: Optional[str] = None) -> str:
    """Render the exposition text; optionally also write it to a file."""
    text = registry.render()
    if output_path:
        with open(output_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return text
