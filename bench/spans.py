"""In-memory spans for the traced run, and the per-layer figures derived
from them.

A span is (name, start, end, parent span index or -1, operation id or
-1).  Spans are kept in a list and written out once, at the end.
"""

from time import perf_counter


def direct(name, fn, *args):
    """The untraced ``call``: no span, just the call."""
    return fn(*args)


class SpanRecorder:
    def __init__(self):
        self.spans = []
        self._open = []
        self.op_id = -1

    def call(self, name, fn, *args):
        """Call fn(*args) inside a span; the span is recorded even if fn raises."""
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else -1
        self._open.append(sid)
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = perf_counter()
            self._open.pop()
            self.spans[sid] = (name, t0, t1, parent, self.op_id)

    def self_times(self):
        """{name: (calls, total duration, total self time)}, where self time
        is the duration minus the part covered by direct child spans."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for sid, (name, t0, t1, _, _) in enumerate(self.spans):
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + (t1 - t0), own + (t1 - t0 - child[sid]))
        return out

    def write_tsv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\top\n")
            base = self.spans[0][1] if self.spans else 0.0
            for sid, (name, t0, t1, parent, op) in enumerate(self.spans):
                fh.write(f"{sid}\t{name}\t{t0 - base:.9f}\t{t1 - base:.9f}\t{parent}\t{op}\n")
