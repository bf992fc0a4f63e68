"""In-memory span tracer that wraps library functions from the outside.

The benchmark never edits the library.  For a traced pass it replaces module
or class attributes (``tscsynth.evolve.decode``, ``Island.make_migrant``...)
with wrappers that record one span per call: name, start, end and the span
that was open when the call began.  Spans live in flat arrays until the run
ends, when they are written out in one go.  A layer's self time is its span
time minus the time of its child spans.
"""

from __future__ import annotations

import gzip
import time
from array import array
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _begin(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._open.append(idx)
        self.start[idx] = time.perf_counter()
        return idx

    def _finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._begin(self._intern(name))
        try:
            yield
        finally:
            self._finish(idx)

    def wrap(self, name: str, fn, observe=None):
        """Return fn wrapped in a span; observe(args, result) runs after the
        span closes, inside a "trace" span so its cost can be set apart."""
        nid = self._intern(name)
        trace_nid = self._intern("trace")

        def traced(*args, **kwargs):
            idx = self._begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._finish(idx)
            if observe is not None:
                tidx = self._begin(trace_nid)
                try:
                    observe(args, result)
                finally:
                    self._finish(tidx)
            return result

        return traced

    @contextmanager
    def patched(self, targets):
        """Temporarily replace attributes: targets are (owner, attr, span name)
        or (owner, attr, span name, observe)."""
        saved = []
        try:
            for owner, attr, name, *observe in targets:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, *observe))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layer_times(self) -> dict[str, dict[str, list[float] | float]]:
        """Per span name: list of durations (s) and summed self time (s)."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, dict] = {
            name: {"durations": [], "self": 0.0} for name in self.names
        }
        for i in range(n):
            rec = out[self.names[self.name[i]]]
            dur = self.end[i] - self.start[i]
            rec["durations"].append(dur)
            rec["self"] += dur - child[i]
        return out

    def write(self, path: Path) -> None:
        """Spans as gzip TSV: name, start_us, end_us, parent row (-1 = root)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tstart_us\tend_us\tparent\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.names[self.name[i]]}\t{(self.start[i] - t0) * 1e6:.1f}\t"
                    f"{(self.end[i] - t0) * 1e6:.1f}\t{self.parent[i]}\n"
                )
