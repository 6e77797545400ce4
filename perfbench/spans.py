"""In-memory spans around the benchmark's calls into urnengine modules.

A span has a name (``layer.function`` or a benchmark stage), a start and an
end on the ``time.perf_counter`` clock, the index of the span that was open
when it started (its parent), and optional counts.  Spans stay in memory and
are written out once, when the benchmark ends.  A disabled tracer records
nothing and costs one attribute test per call.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **counts):
        if not self.enabled:
            yield counts
            return
        index = len(self.spans)
        record = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "counts": counts,
        }
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield counts
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def durations(self, name: str) -> list[float]:
        """Durations of every closed span called ``name``, in start order."""
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name and s["end"] is not None]

    def counts(self, name: str, key: str) -> list:
        return [s["counts"][key] for s in self.spans if s["name"] == name and key in s["counts"]]

    def write(self, path: str, extra: dict) -> None:
        with open(path, "w") as fh:
            json.dump({**extra, "spans": self.spans}, fh)
