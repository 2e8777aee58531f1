"""In-memory span tracer that wraps library calls at their call sites.

A wrapper replaces one module or class attribute, the name a caller looks up
when it makes the call, so the library itself stays untouched.  Each call
records a span ``[name, start, end, parent]`` where ``parent`` is the index of
the enclosing span (or -1).  The benchmark is single-threaded, so spans nest
strictly and a plain stack gives the parent.
"""

import json
import time
from collections import defaultdict


class Tracer:
    """Spans and exact counters of one traced benchmark run."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self._stack = []
        self._patches = []

    def wrap(self, owner, attr, name, after=None):
        """Replace owner.attr by a traced call named ``name``.

        ``after(tracer, args, kwargs, result)`` runs in a span of its own,
        ``trace.hook``, after the call's span has closed, so extra work done
        only for tracing (such as counting factor nonzeros) is charged
        neither to the layer nor to its caller's self time.
        """
        orig = getattr(owner, attr)

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                hook = self._open("trace.hook")
                try:
                    after(self, args, kwargs, out)
                finally:
                    self._close(hook)
            return out

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, orig))

    def _open(self, name):
        span = [name, time.perf_counter(), 0.0,
                self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    def restore(self):
        """Undo every wrap, newest first."""
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def add(self, key, n=1):
        self.counts[key] += n

    def peak(self, key, value):
        self.maxima[key] = max(self.maxima[key], int(value))

    def layer_times(self):
        """{name: {"calls", "s", "self_s"}}; self time excludes child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for (name, start, end, _), inner in zip(self.spans, child):
            row = out[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - inner
        return dict(out)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)
