"""Context-manager span tracer with trace IDs, nesting, and attributes.

One process-wide :class:`Tracer` (``repro.obs.TRACER``) carries a
*thread-local* active trace.  When no trace is active -- the production
default -- ``TRACER.span(...)`` returns a shared no-op span, so
instrumentation left in place costs one method call and no allocation of
trace state; hot paths (the solver inner loops) guard with
``TRACER.enabled`` instead and skip even that.

A trace is opened with ``with TRACER.trace("grade") as handle:`` -- the
handle exposes the finished span tree (``to_dict()`` / ``tree()`` /
``render()``) after the block exits.  Opening a trace while one is
already active captures a *subtree*: the spans recorded under the nested
root also stay in the outer trace, so per-request capture (``"trace":
true``) composes with server-wide slow-request tracing.  A handle's
``to_dict()`` is JSON-safe, which is how the batch grader hands back
each form's span tree (see ``BatchResult.traces``).
"""

from __future__ import annotations

import os
import threading
import time


class Span:
    """One timed operation inside a trace; also its own context manager."""

    __slots__ = ("name", "span_id", "parent_id", "start", "end", "attrs",
                 "_trace")

    def __init__(self, trace, name, span_id, parent_id, attrs):
        self._trace = trace
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = time.perf_counter()
        self.end = None
        self.attrs = attrs

    def set(self, **attrs):
        self.attrs.update(attrs)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._trace.finish(self)
        return False


class _NullSpan:
    """Shared no-op span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def set(self, **attrs):
        pass


_NULL_SPAN = _NullSpan()


class Trace:
    """Mutable recording state of one active trace (one thread)."""

    __slots__ = ("name", "trace_id", "wall_start", "perf_start", "spans",
                 "stack", "_next_id")

    def __init__(self, name):
        self.name = name
        self.trace_id = os.urandom(8).hex()
        self.wall_start = time.time()
        self.perf_start = time.perf_counter()
        self.spans = []  # every span, in start order (parents before children)
        self.stack = []  # currently open spans
        self._next_id = 1

    def start_span(self, name, attrs):
        parent = self.stack[-1].span_id if self.stack else None
        span = Span(self, name, self._next_id, parent, attrs)
        self._next_id += 1
        self.spans.append(span)
        self.stack.append(span)
        return span

    def finish(self, span):
        span.end = time.perf_counter()
        # Spans close in LIFO order under normal with-block nesting; the
        # fallbacks tolerate a span leaked across an exception boundary.
        if self.stack and self.stack[-1] is span:
            self.stack.pop()
        elif span in self.stack:
            self.stack.remove(span)

    def subtree(self, root):
        """Spans rooted at ``root``, relying on start-order parent-first."""
        keep = {root.span_id}
        collected = []
        for span in self.spans:
            if span.span_id in keep or span.parent_id in keep:
                keep.add(span.span_id)
                collected.append(span)
        return collected


class TraceHandle:
    """Context manager opening (or nesting into) a trace.

    Inside the with-block the handle is live; after it exits the captured
    spans are frozen on the handle (``spans`` / ``tree()`` / ``to_dict()``
    / ``render()``).
    """

    def __init__(self, tracer, name, attrs):
        self._tracer = tracer
        self._attrs = attrs
        self._trace = None
        self._root = None
        self._owns = False
        self.name = name
        self.trace_id = None
        self.wall_start = None
        self.duration = 0.0  # seconds
        self.spans = ()  # frozen Span objects after exit

    @property
    def duration_ms(self):
        return self.duration * 1000.0

    def __enter__(self):
        tracer = self._tracer
        trace = tracer._current()
        if trace is None:
            trace = Trace(self.name)
            tracer._activate(trace)
            self._owns = True
        self._trace = trace
        self._root = trace.start_span(self.name, dict(self._attrs))
        self.trace_id = trace.trace_id
        return self

    def __exit__(self, exc_type, exc, tb):
        trace, root = self._trace, self._root
        if exc_type is not None:
            root.attrs.setdefault("error", exc_type.__name__)
        trace.finish(root)
        self.duration = root.end - root.start
        self.wall_start = trace.wall_start + (root.start - trace.perf_start)
        self.spans = tuple(
            trace.spans if self._owns else trace.subtree(root)
        )
        if self._owns:
            self._tracer._deactivate(trace)
        return False

    # -- frozen views ---------------------------------------------------

    def _span_dicts(self):
        base = self._root.start
        ids = {span.span_id for span in self.spans}
        out = []
        for span in self.spans:
            end = span.end if span.end is not None else span.start
            out.append(
                {
                    "id": span.span_id,
                    "parent": (
                        span.parent_id if span.parent_id in ids else None
                    ),
                    "name": span.name,
                    "start_ms": round((span.start - base) * 1000.0, 4),
                    "duration_ms": round((end - span.start) * 1000.0, 4),
                    "attrs": dict(span.attrs),
                }
            )
        return out

    def to_dict(self):
        """JSON-safe trace: flat span list plus the nested tree."""
        spans = self._span_dicts()
        return {
            "trace_id": self.trace_id,
            "name": self.name,
            "wall_start": self.wall_start,
            "duration_ms": round(self.duration_ms, 4),
            "spans": spans,
            "tree": _build_tree(spans),
        }

    def render(self):
        """Indented one-line-per-span rendering (CLI ``--trace``)."""
        lines = []
        for node in _build_tree(self._span_dicts()):
            _render_node(node, 0, lines)
        return lines


def _build_tree(span_dicts):
    nodes = {}
    roots = []
    for item in span_dicts:
        node = {
            "name": item["name"],
            "start_ms": item["start_ms"],
            "duration_ms": item["duration_ms"],
            "attrs": item["attrs"],
            "children": [],
        }
        nodes[item["id"]] = node
        parent = nodes.get(item["parent"])
        if parent is None:
            roots.append(node)
        else:
            parent["children"].append(node)
    return roots


def _render_node(node, depth, lines):
    attrs = " ".join(
        f"{key}={value}" for key, value in sorted(node["attrs"].items())
    )
    line = f"{'  ' * depth}{node['name']} {node['duration_ms']:.2f}ms"
    if attrs:
        line += f"  {attrs}"
    lines.append(line)
    for child in node["children"]:
        _render_node(child, depth + 1, lines)


class Tracer:
    """Thread-local trace activation; see the module docstring."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._active_count = 0
        #: The hot-path guard: solver inner loops check this plain
        #: attribute (one instance ``LOAD_ATTR``, ~10x cheaper than the
        #: thread-local lookup) and skip span construction when no trace
        #: is being recorded *anywhere in the process*.  It is
        #: conservative: while another thread traces, this thread's
        #: guarded code falls through to :meth:`span`, which still
        #: resolves the *thread-local* trace and hands back the no-op
        #: span -- correct output, merely unguarded for that window.
        self.enabled = False

    # -- activation plumbing -------------------------------------------

    def _current(self):
        return getattr(self._local, "trace", None)

    def _activate(self, trace):
        self._local.trace = trace
        with self._lock:
            self._active_count += 1
            self.enabled = True

    def _deactivate(self, trace):
        if getattr(self._local, "trace", None) is trace:
            self._local.trace = None
        with self._lock:
            self._active_count = max(0, self._active_count - 1)
            self.enabled = self._active_count > 0

    # -- public API -----------------------------------------------------

    def trace(self, name, **attrs):
        """Open (or nest into) a trace; returns a :class:`TraceHandle`."""
        return TraceHandle(self, name, attrs)

    def span(self, name, **attrs):
        """A span under the active trace, or the shared no-op span."""
        trace = getattr(self._local, "trace", None)
        if trace is None:
            return _NULL_SPAN
        return trace.start_span(name, attrs)


#: The process-wide tracer every instrumentation point goes through.
TRACER = Tracer()
