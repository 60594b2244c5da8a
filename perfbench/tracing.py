"""In-memory spans around the benchmark's calls into the library.

A span is (name, start, end, parent, job). The layer of a span is the part
of its name before the first dot (``extract``, ``graph``, ``engine``,
``algorithms``); the root span of each job is ``bench.job``. A layer's self
time is its spans' durations minus the parts covered by their child spans,
so the self times of one job sum to the job's wall time.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.enabled = False
        self.job = None
        self.walls: dict[str, float] = {}
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def start_job(self, job: int, traced: bool):
        self.job, self.enabled, self.walls = job, traced, {}

    @contextmanager
    def span(self, name: str):
        """Time a call. The wall per name is kept for every job; the span
        itself only when tracing is on."""
        rec = None
        if self.enabled:
            rec = {"name": name, "start": None, "end": None,
                   "parent": self._stack[-1] if self._stack else None,
                   "job": self.job}
            self._stack.append(len(self.spans))
            self.spans.append(rec)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self.walls[name] = self.walls.get(name, 0.0) + t1 - t0
            if rec is not None:
                rec["start"], rec["end"] = t0, t1
                self._stack.pop()

    def self_times(self, job) -> dict[str, float]:
        """Self time per layer for one job, in seconds."""
        out: dict[str, float] = {}
        child: dict[int, float] = {}
        for sp in self.spans:
            if sp["job"] == job and sp["parent"] is not None:
                child[sp["parent"]] = child.get(sp["parent"], 0.0) + (
                    sp["end"] - sp["start"])
        for i, sp in enumerate(self.spans):
            if sp["job"] == job:
                layer = sp["name"].split(".")[0]
                out[layer] = out.get(layer, 0.0) + (
                    sp["end"] - sp["start"] - child.get(i, 0.0))
        return out

    def dump(self, path: str):
        with open(path, "w") as f:
            for sp in self.spans:
                f.write(json.dumps(sp) + "\n")
