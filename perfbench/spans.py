"""In-memory spans for the benchmark's traced runs (standard library only).

A span records one call into a layer: name, start, end, parent span and run
id.  Spans stay in memory until the run ends and are written out once.
Times come from ``time.perf_counter``, which on Linux reads the system-wide
monotonic clock, so spans recorded in a worker process line up with the
harness's own spans.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager, nullcontext


class Tracer:
    """Records nested spans; ``enabled=False`` makes ``span`` a no-op."""

    def __init__(self, run_id: str, enabled: bool = True):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def span(self, name: str):
        return self._record(name) if self.enabled else nullcontext()

    @contextmanager
    def _record(self, name: str):
        span = {"id": len(self.spans), "name": name, "start": time.perf_counter(),
                "end": None, "parent": self._stack[-1] if self._stack else None,
                "run": self.run_id}
        self.spans.append(span)
        self._stack.append(span["id"])
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def adopt(self, spans: list[dict], parent: int):
        """Append spans recorded by another process under span ``parent``."""
        base = len(self.spans)
        for s in spans:
            self.spans.append(dict(
                s, id=s["id"] + base, run=self.run_id,
                parent=parent if s["parent"] is None else s["parent"] + base))

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def median(self, name: str) -> float:
        return statistics.median(self.durations(name))

    def self_times(self) -> list[float]:
        """Each span's duration minus the part of it its children cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append((s["start"], s["end"]))
        out = []
        for s in self.spans:
            covered, reach = 0.0, s["start"]
            for start, end in sorted(children.get(s["id"], ())):
                start, end = max(start, reach), min(end, s["end"])
                if end > start:
                    covered += end - start
                    reach = end
            out.append(s["end"] - s["start"] - covered)
        return out

    def self_total(self, name: str) -> float:
        return sum(t for s, t in zip(self.spans, self.self_times()) if s["name"] == name)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s, self_s in zip(self.spans, self.self_times()):
                fh.write(json.dumps(dict(s, self_s=self_s)) + "\n")
