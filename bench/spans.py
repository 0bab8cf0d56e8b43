"""In-memory span tracer for the affectfuse benchmark.

The tracer wraps public entry points of ``affectfuse`` modules from outside the
package: a wrapper replaces a module or class attribute, so callers that look
the name up at call time (module globals, ``audio_mod.load_wav``, methods)
reach it. Each call records a span ``[name, start, end, parent, op, child]``
in a per-thread list; ``child`` accumulates the time covered by direct
children, so a span's self time is ``end - start - child``. Nothing is
written until :meth:`Tracer.dump` runs at the end of a traced run.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

NAME, START, END, PARENT, OP, CHILD = range(6)


class Tracer:
    """Records spans per thread; ``op`` is the current turn or row id."""

    def __init__(self) -> None:
        self.op = -1
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._threads: Dict[str, List[list]] = {}
        self._lock = threading.Lock()
        self._restore: List[tuple] = []

    def _state(self):
        local = self._local
        try:
            return local.spans, local.stack
        except AttributeError:
            local.spans, local.stack = [], []
            with self._lock:
                self._threads[threading.current_thread().name] = local.spans
            return local.spans, local.stack

    def add(self, key: str, n: float = 1) -> None:
        """Add to a count; the seal thread counts too, so this locks."""
        with self._lock:
            self.counts[key] += n

    def enclosing(self) -> Optional[str]:
        """Name of the innermost open span on the calling thread."""
        spans, stack = self._state()
        return spans[stack[-1]][NAME] if stack else None

    def _span(self, name: str, fn: Callable, after=None, enter=None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = tracer._state()
            parent = stack[-1] if stack else -1
            if enter is not None:
                enter(spans[parent][NAME] if parent >= 0 else None)
            span = [name, 0.0, 0.0, parent, tracer.op, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = end = time.perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD] += end - span[START]
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def _counter(self, key: str, fn: Callable) -> Callable:
        """Count calls and output bytes per enclosing span, without a span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            where = tracer.enclosing()
            tracer.add(f"{key}.calls")
            tracer.add(f"{key}.bytes@{where}", len(result))
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, after=None, enter=None) -> None:
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self._span(name, original, after, enter))

    def patch_counter(self, owner, attr: str, key: str) -> None:
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self._counter(key, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def threads(self) -> Dict[str, List[list]]:
        with self._lock:
            return dict(self._threads)

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line (times in seconds)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for thread, spans in self.threads().items():
                for index, span in enumerate(spans):
                    out.write(json.dumps({
                        "thread": thread, "index": index, "name": span[NAME],
                        "start": span[START], "end": span[END], "parent": span[PARENT],
                        "op": span[OP], "self": span[END] - span[START] - span[CHILD],
                    }) + "\n")


class SpanStats:
    """Per-name totals over every recorded span."""

    def __init__(self, tracer: Tracer) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.by_op: Dict[str, Dict[int, float]] = defaultdict(lambda: defaultdict(float))
        for spans in tracer.threads().values():
            for span in spans:
                name = span[NAME]
                duration = span[END] - span[START]
                self.self_s[name] += duration - span[CHILD]
                self.total_s[name] += duration
                self.calls[name] += 1
                self.by_op[name][span[OP]] += duration
