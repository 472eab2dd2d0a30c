"""In-memory spans around the benchmark's calls into protoseq.

Spans are recorded only from the benchmark's own files: every call the
benchmark makes into a layer goes through `Tracer.call`, so no file of the
package is touched.  A span holds its name, start, end, parent span and
job id; spans stay in memory until the run writes them out at its end.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    """Records spans while `enabled`; disabled, `call` is a plain call."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.job: str | None = None

    def call(self, name: str, fn, *args, **kwargs):
        """Call `fn`, recording a span `name` ("<layer>.<function>") if enabled."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield None
            return
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "job": self.job, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover.

    The benchmark is single-threaded, so sibling spans never overlap and
    the covered time is the sum of the children's durations.
    """
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out
