"""Span recording from outside the program, for the traced benchmark run.

:class:`SpanRecorder` replaces a module or class attribute that the
program calls through with a wrapper that records one span per call:
``(id, parent id, name, start, end, attrs)``.  Nothing under ``src/``
knows about it; :meth:`SpanRecorder.uninstall` puts every original back.

Parents come from a per-thread stack of open spans.  A span opened on a
thread with no open span (the HTTP handler thread) takes as parent the
open span of a wrapper installed with ``carries=True`` (the client's
request), which is exact for a closed loop with one client.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict


class SpanRecorder:
    """Wrappers plus the spans they record, kept in memory until written."""

    def __init__(self):
        #: ``(id, parent, name, start, end, attrs or None)`` per finished call.
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._carried = 0
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr, name, *, before=None, after=None,
             carries=False):
        """Record a span around every call of ``owner.attr``.

        ``name`` is a string or a no-argument callable evaluated per call.
        ``before(args)`` runs before the call and its value is handed to
        ``after(token, args, result)``, which returns the span's attrs.
        """
        original = getattr(owner, attr)
        recorder = self

        def wrapper(*args, **kwargs):
            span_name = name() if callable(name) else name
            stack = recorder._stack()
            parent = stack[-1] if stack else recorder._carried
            span_id = next(recorder._ids)
            token = before(args) if before is not None else None
            stack.append(span_id)
            if carries:
                carried, recorder._carried = recorder._carried, span_id
            start = time.perf_counter()
            result = attrs = None
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if carries:
                    recorder._carried = carried
                if after is not None and result is not None:
                    attrs = after(token, args, result)
                recorder.spans.append(
                    (span_id, parent, span_name, start, end, attrs)
                )
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------

    def self_times(self):
        """Span id -> duration minus the durations of its child spans."""
        child_time = defaultdict(float)
        for _, parent, _, start, end, _ in self.spans:
            child_time[parent] += end - start
        return {
            span_id: (end - start) - child_time[span_id]
            for span_id, _, _, start, end, _ in self.spans
        }

    def by_name(self):
        """name -> list of ``(span, self seconds)``."""
        self_of = self.self_times()
        groups = defaultdict(list)
        for span in self.spans:
            groups[span[2]].append((span, self_of[span[0]]))
        return groups

    def write_jsonl(self, path):
        """Write every span as one JSON object per line, in finish order."""
        self_of = self.self_times()
        origin = min((span[3] for span in self.spans), default=0.0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span_id, parent, name, start, end, attrs in self.spans:
                record = {
                    "id": span_id,
                    "parent": parent,
                    "name": name,
                    "start_ms": (start - origin) * 1000.0,
                    "ms": (end - start) * 1000.0,
                    "self_ms": self_of[span_id] * 1000.0,
                }
                if attrs:
                    record["attrs"] = attrs
                out.write(json.dumps(record) + "\n")
