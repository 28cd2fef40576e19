"""In-memory span recorder used by the traced in-process run.

A span records a name, start and end (``perf_counter`` seconds), the id of
the enclosing span and the batch it belongs to.  Spans stay in memory and
are written out once, when the run ends.
"""
from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.batch: int | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name, "batch": self.batch,
                  "parent": self._open[-1] if self._open else None,
                  "start": perf_counter(), "end": None}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)`` inside a span called ``name``."""
        with self.span(name):
            return fn(*args)

    def self_times(self, batch: int) -> dict[str, float]:
        """Summed self time per span name within one batch.

        Self time is a span's duration minus the time its child spans cover.
        """
        spans = [s for s in self.spans if s["batch"] == batch]
        child_time: dict[int, float] = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        totals: dict[str, float] = defaultdict(float)
        for s in spans:
            totals[s["name"]] += s["end"] - s["start"] - child_time[s["id"]]
        return dict(totals)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"clock": "perf_counter", "spans": self.spans}, handle)
