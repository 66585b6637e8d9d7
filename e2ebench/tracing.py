"""In-memory spans around calls into the program's layers.

A :class:`Tracer` replaces public callables (module functions, class
methods) with thin wrappers that record one span per call: name, start,
end and the index of the enclosing span.  Spans stay in memory until the
phase ends; :meth:`Tracer.summary` then folds them into per-name totals
and self times (a span's duration minus the time its child spans
cover), and :meth:`Tracer.dump` writes them out as JSON lines.

The untraced measurement never constructs a tracer, so it runs the
program's callables unwrapped.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    """Records nested spans of wrapped callables in one process."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index or -1]
        self._stack = []  # indices of the open spans
        self._restore = []
        self.items = {}   # name -> work count reported by on_result

    def begin(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def end(self):
        index = self._stack.pop()
        self.spans[index][2] = time.perf_counter()

    def wrap(self, owner, attr, name, on_result=None):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``on_result(result, args)`` may return an integer work count
        that is added to the name's ``items`` total (tests executed,
        bytes written).  :meth:`restore` undoes every wrap.
        """
        original = getattr(owner, attr)
        begin, end, items = self.begin, self.end, self.items

        def traced(*args, **kwargs):
            begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                end()
            if on_result is not None:
                items[name] = items.get(name, 0) + on_result(result, args)
            return result

        traced.__wrapped__ = original
        self.patch(owner, attr, traced)

    def patch(self, owner, attr, replacement):
        """Set ``owner.attr`` until :meth:`restore`."""
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def summary(self):
        """``{name: {"calls", "total_s", "self_s", "items"}}``.

        Self time is the span's duration minus its direct children's
        durations; summed over every name it equals the root spans'
        wall time, so nothing is counted twice.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0 and end is not None:
                child_time[parent] += end - start
        out = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            if end is None:
                continue
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0, "items": 0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - child_time[index]
        for name, count in self.items.items():
            out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                  "self_s": 0.0, "items": 0})
            out[name]["items"] = count
        return out

    def dump(self, path, phase):
        """Append the spans as JSON lines (one object per span)."""
        with open(path, "a") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"phase": phase, "id": index,
                                     "name": name, "start": start,
                                     "end": end, "parent": parent}))
                fh.write("\n")


@contextmanager
def span(tracer, name):
    """A span around a block; a no-op when ``tracer`` is None."""
    if tracer is None:
        yield
        return
    tracer.begin(name)
    try:
        yield
    finally:
        tracer.end()
