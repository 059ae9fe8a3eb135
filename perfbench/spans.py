"""In-memory span recording for the traced benchmark run.

A span is ``[id, parent, op, name, start, end]``: ``op`` names the operation
it belongs to (one set-up repetition, the offline build, one query, ...), so
all spans of one operation share it.  Spans are kept in memory and written
out once, when the run ends.  A disabled tracer records nothing; the
untraced run that yields the end-to-end metrics uses one.
"""

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self._stack = [0]  # ids of the open spans; 0 is the root

    @contextmanager
    def span(self, name, op):
        """Time the enclosed block as a child of the innermost open span."""
        if not self.enabled:
            yield
            return
        rec = [len(self.spans) + 1, self._stack[-1], op, name, time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield
        finally:
            rec[5] = time.perf_counter()
            self._stack.pop()

    def record(self, name, op, start, end):
        """Add a finished span timed by the caller (hot loops time anyway)."""
        if self.enabled:
            self.spans.append([len(self.spans) + 1, self._stack[-1], op, name, start, end])

    def totals(self):
        """Total and self seconds per span name.

        Self time is a span's duration minus the durations of its direct
        children, which nest inside it because the benchmark is one thread.
        """
        child = defaultdict(float)
        for sid, parent, _, _, start, end in self.spans:
            if parent:
                child[parent] += end - start
        total, own = defaultdict(float), defaultdict(float)
        for sid, _, _, name, start, end in self.spans:
            total[name] += end - start
            own[name] += end - start - child[sid]
        return dict(total), dict(own)

    def write(self, path):
        keys = ("id", "parent", "op", "name", "start", "end")
        with open(path, "w") as fh:
            json.dump({"spans": [dict(zip(keys, s)) for s in self.spans]}, fh)
            fh.write("\n")


def span_cost_seconds(samples=20000):
    """Measured cost of one empty ``Tracer.span`` block on an enabled tracer.

    ``record`` does less work, so this bounds the cost of every span kind.
    """
    probe = Tracer(True)
    t0 = time.perf_counter()
    for _ in range(samples):
        with probe.span("x", 0):
            pass
    return (time.perf_counter() - t0) / samples
