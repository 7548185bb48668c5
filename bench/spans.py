"""In-memory span recording for the traced benchmark run.

Spans are recorded by the benchmark's own code around each call into a
layer of the package (`wrap`), around each request of the workload loop
(`add`), and around every garbage-collector pause (`gc.callbacks`). A span
is stored as (name, start, end) in flat arrays, so recording allocates no
objects the collector has to traverse. Parents and request ids are derived
afterwards from the nesting of the intervals: the benchmark is
single-threaded, so spans nest properly and the parent of a span is the
innermost span that contains it.
"""

from __future__ import annotations

import gc
import time
from array import array
from pathlib import Path

import numpy as np

GC_SPAN = "py.gc"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        # Collector pauses go to their own arrays: a pause can begin while
        # a wrapped call is half-way through appending its span.
        self.gc_start = array("d")
        self.gc_end = array("d")

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span whose bounds the caller measured itself."""
        self.name.append(self._intern(name))
        self.start.append(start)
        self.end.append(end)

    def wrap(self, name: str, fn):
        """`fn` with a span recorded around every call."""
        nid = self._intern(name)
        pc = time.perf_counter
        name_append, start_append, end_append = self.name.append, self.start.append, self.end.append

        def traced(*args):
            t0 = pc()
            out = fn(*args)
            t1 = pc()
            name_append(nid)
            start_append(t0)
            end_append(t1)
            return out
        return traced

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self.gc_start.append(time.perf_counter())
        else:
            self.gc_end.append(time.perf_counter())

    def __enter__(self):
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._on_gc)

    def analyse(self, request_names: tuple[str, ...]) -> "Spans":
        return Spans(self, request_names)


class Spans:
    """Spans with derived parent, request id, duration and self time.

    A span's request id is the index of its nearest ancestor (or itself)
    whose name is one of `request_names`; -1 outside any request.
    """

    def __init__(self, tracer: Tracer, request_names: tuple[str, ...]):
        self.names = list(tracer.names) + [GC_SPAN]
        pauses = len(tracer.gc_end)
        start = np.concatenate((np.asarray(tracer.start), np.asarray(tracer.gc_start)[:pauses]))
        end = np.concatenate((np.asarray(tracer.end), np.asarray(tracer.gc_end)))
        name = np.concatenate((np.asarray(tracer.name, dtype=np.int32),
                               np.full(pauses, len(self.names) - 1, dtype=np.int32)))
        order = np.lexsort((-end, start))
        self.start, self.end, self.name = start[order], end[order], name[order]
        n = len(order)
        parent = np.full(n, -1, dtype=np.int64)
        request = np.full(n, -1, dtype=np.int64)
        is_request = np.isin(self.name, [self.names.index(r) for r in request_names
                                         if r in self.names])
        stack: list[int] = []
        ends = self.end.tolist()
        starts = self.start.tolist()
        req_flags = is_request.tolist()
        for i in range(n):
            while stack and starts[i] >= ends[stack[-1]]:
                stack.pop()
            if stack:
                parent[i] = stack[-1]
                request[i] = request[stack[-1]]
            if req_flags[i]:
                request[i] = i
            stack.append(i)
        self.parent, self.request = parent, request
        self.dur = self.end - self.start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=self.dur[has_parent], minlength=n)
        self.self_time = self.dur - covered

    def _sel(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.name), dtype=bool)
        return self.name == self.names.index(name)

    def durations(self, name: str) -> np.ndarray:
        return self.dur[self._sel(name)]

    def total(self, name: str) -> float:
        return float(self.durations(name).sum())

    def count(self, name: str) -> int:
        return int(self._sel(name).sum())

    def durations_in(self, name: str, outer: str) -> np.ndarray:
        """Durations of the `name` spans that lie inside some `outer` span."""
        inside = np.zeros(len(self.name), dtype=bool)
        o = self._sel(outer)
        for s, e in zip(self.start[o].tolist(), self.end[o].tolist()):
            inside |= (self.start >= s) & (self.end <= e)
        return self.dur[self._sel(name) & inside]

    def self_by_layer(self) -> dict[str, float]:
        """Self time summed per layer, the name up to its first dot."""
        out: dict[str, float] = {}
        for idx, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + float(self.self_time[self.name == idx].sum())
        return out

    def write_csv(self, path: Path) -> None:
        t0 = float(self.start.min()) if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,parent,request,start_us,end_us\n")
            for i, (nid, p, r, s, e) in enumerate(zip(self.name.tolist(), self.parent.tolist(),
                                                      self.request.tolist(), self.start.tolist(),
                                                      self.end.tolist())):
                fh.write(f"{i},{self.names[nid]},{p},{r},{(s - t0) * 1e6:.3f},{(e - t0) * 1e6:.3f}\n")
