"""In-memory spans recorded around calls into the system's layers.

A span is ``(name, start, end, parent, group, pid)``: ``parent`` is the
index of the enclosing span recorded by the same thread (``-1`` at the
root) and ``group`` is the id shared by every span of one batch or one
request.  Spans stay in memory and are written out when the run ends.
Timestamps come from ``time.monotonic`` (CLOCK_MONOTONIC on Linux), so
spans recorded by the server process line up with the client's.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from typing import List


class Tracer:
    """Span recorder; ``Tracer(enabled=False)`` records nothing."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: List[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._pid = os.getpid()

    @contextmanager
    def span(self, name: str, group: int = 0):
        if not self.enabled:
            yield
            return
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else -1
        record = [name, time.monotonic(), 0.0, parent, int(group), self._pid]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield
        finally:
            record[2] = time.monotonic()
            stack.pop()

    def add(self, name: str, start: float, end: float, group: int = 0) -> None:
        """Record a span timed elsewhere (e.g. submit -> future done)."""
        if self.enabled:
            with self._lock:
                self.spans.append(
                    [name, start, end, -1, int(group), self._pid]
                )

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "group", "pid"],
                 "spans": self.spans},
                fh,
            )

