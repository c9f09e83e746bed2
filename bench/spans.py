"""In-memory spans recorded by the benchmark around calls into a layer.

``repro`` emits no spans yet, so the benchmark wraps each public entry
point it calls: one span per call, the request's index as the shared
identifier, the enclosing span as parent.  Spans stay in a list until
the run ends and are then written as JSON lines.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional


class Span:
    __slots__ = ("name", "request_id", "parent", "start", "end", "cpu",
                 "attrs")

    def __init__(self, name: str, request_id: int, parent: Optional[str]):
        self.name = name
        self.request_id = request_id
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.cpu = 0.0          # process CPU seconds spent inside
        self.attrs: Dict[str, object] = {}

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3

    def as_dict(self) -> dict:
        return {"name": self.name, "request_id": self.request_id,
                "parent": self.parent, "start": self.start,
                "end": self.end, "cpu_s": self.cpu, **self.attrs}


class Tracer:
    """Collects spans; ``enabled=False`` times the call and keeps
    nothing, which is the untraced side of the overhead measurement."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: List[Span] = []
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, request_id: int) -> Iterator[Span]:
        stack = self._local.__dict__.setdefault("stack", [])
        span = Span(name, request_id, stack[-1] if stack else None)
        stack.append(name)
        cpu = time.process_time()
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            span.cpu = time.process_time() - cpu
            stack.pop()
            if self.enabled:
                self.spans.append(span)

    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")
