"""Span recorder for the traced run.

Spans wrap the calls the benchmark makes into qmn; each records its name,
start, end, parent span and the id of the op it belongs to.  Counts are
recorded at the same call sites.  Everything stays in memory until `dump`.
`NULL` has the same interface and records nothing; the untraced run and the
untraced half of the traced run go through it.
"""

import json
import statistics
from time import perf_counter


class NullTracer:
    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, value):
        pass

    def begin(self, name, op=None):
        pass

    def end(self):
        pass

    def record(self, name, start, end, op):
        pass


NULL = NullTracer()


class Tracer(NullTracer):
    enabled = True

    def __init__(self):
        self.spans = []  # [name, start, end, parent, op]
        self.counts = []  # (name, value, op)
        self._stack = []
        self._op = None

    def begin(self, name, op=None):
        if op is not None:
            self._op = op
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        self.spans.append([name, perf_counter(), None, parent, self._op])

    def end(self):
        sid = self._stack.pop()
        self.spans[sid][2] = perf_counter()
        if not self._stack:
            self._op = None

    def record(self, name, start, end, op):
        """A top-level span timed by the caller."""
        self.spans.append([name, start, end, None, op])

    def call(self, name, fn, *args, **kwargs):
        self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end()

    def count(self, name, value):
        self.counts.append((name, value, self._op))

    # --- summaries -------------------------------------------------------

    def durations(self, name):
        return [s[2] - s[1] for s in self.spans if s[0] == name and s[2] is not None]

    def median_ms(self, name):
        d = self.durations(name)
        return 1000.0 * statistics.median(d) if d else None

    def count_values(self, name, ops=None):
        return [v for n, v, op in self.counts if n == name and (ops is None or op in ops)]

    def self_ms_per_op(self, ops):
        """Self time per op of each module (the name before the first dot),
        over the spans of the given op ids: a span's duration minus that of
        its children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent is not None and end is not None:
                child[parent] += end - start
        total = {}
        for sid, (name, start, end, parent, op) in enumerate(self.spans):
            if op in ops and end is not None:
                module = name.split(".")[0]
                total[module] = total.get(module, 0.0) + (end - start - child[sid])
        n = max(len(ops), 1)
        return {m: 1000.0 * t / n for m, t in sorted(total.items())}

    def dump(self, path):
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"span": name, "id": sid, "parent": parent, "op": op,
                                     "start": start, "end": end}) + "\n")
            for name, value, op in self.counts:
                fh.write(json.dumps({"count": name, "value": value, "op": op}) + "\n")
