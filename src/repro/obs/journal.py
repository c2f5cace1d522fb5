"""Always-on bounded flight recorder of structured events.

A :class:`Journal` is the black-box recorder production SQL services
keep: a fixed-capacity ring buffer of small structured events that is
*always on*, so when a request goes sideways the last few thousand
things the process did are already in memory -- no re-run, no flag to
remember to set.  The process-wide instance is ``repro.obs.JOURNAL``.

Event sources (see ``docs/observability.md``):

* the HTTP server -- request start/finish (status + latency), error
  responses, slow-request trace summaries, unhandled exceptions;
* the artifact cache -- hits, misses, evictions;
* the cache spiller -- spill start/end (entries, bytes, duration) and
  skipped-idle ticks;
* witness generation -- guided-search fallbacks (the solver model path
  failed and the luck-dependent search ran).

Recording discipline: :meth:`Journal.record` is one ``enabled`` check,
one ``time.time()`` call, one small dict, and one GIL-atomic
``deque.append`` -- cheap enough to leave in rare-event call sites of
hot loops (the CI gate bounds the journal-enabled overhead on the
``sat_conjunctive`` kernel at < 2%, next to the tracer's gate; the SAT
core itself records no events).  The
buffer is bounded (default 2048 events), so sustained traffic can never
grow it; old events fall off the far end.

The journal is **per process**: the serving process, where debugging
happens, is the one whose history matters, and batch grading records
into the same journal as the code that called it.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from collections import deque


class Journal:
    """Thread-safe bounded ring buffer of structured events.

    ``record`` relies on the GIL-atomicity of ``deque.append`` (with
    ``maxlen`` set, the displacing append is a single bytecode-level
    operation) and an :class:`itertools.count` sequence, so the hot path
    takes no lock; ``tail``/``clear`` take a lock only to snapshot or
    reset consistently.
    """

    def __init__(self, capacity=2048):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        #: Plain-attribute hot-path guard, same discipline as
        #: ``TRACER.enabled`` -- instrumentation sites check this before
        #: building the event.  On (always-on) by default.
        self.enabled = True
        self._events = deque(maxlen=capacity)
        self._seq = itertools.count(1)
        self._lock = threading.Lock()
        self.dropped = 0  # events displaced off the ring (approximate)

    def record(self, kind, **fields):
        """Append one event; returns its sequence number.

        ``fields`` must be JSON-safe scalars (the journal is dumped as
        JSON verbatim).  No-op (returns 0) while ``enabled`` is False.
        """
        if not self.enabled:
            return 0
        seq = next(self._seq)
        if len(self._events) >= self.capacity:
            self.dropped += 1  # approximate under races; monotone enough
        self._events.append((seq, time.time(), kind, fields))
        return seq

    def __len__(self):
        return len(self._events)

    def tail(self, n=None):
        """The most recent ``n`` events (all, if None), oldest first.

        Each event is a JSON-safe dict: ``{"seq", "ts", "kind", ...}``
        with the recorded fields inlined (fields never shadow the three
        reserved keys -- ``record`` callers use dotted kinds instead).
        """
        with self._lock:
            events = list(self._events)
        if n is not None and n >= 0:
            events = events[-n:] if n else []
        return [
            {"seq": seq, "ts": ts, "kind": kind, **fields}
            for seq, ts, kind, fields in events
        ]

    def clear(self):
        with self._lock:
            self._events.clear()
            self.dropped = 0

    def stats(self):
        return {
            "capacity": self.capacity,
            "size": len(self._events),
            "dropped": self.dropped,
            "enabled": self.enabled,
        }

    # -- rendering ------------------------------------------------------

    def render(self, n=None):
        """The last ``n`` events, one line each (:func:`render_events`)."""
        return render_events(self.tail(n))

    def dump(self, stream=None, n=200, reason=None):
        """Write the last ``n`` events to ``stream`` (default stderr).

        The unhandled-exception path of the HTTP server calls this so
        the flight recording lands in the server log next to the
        traceback it explains.
        """
        stream = stream if stream is not None else sys.stderr
        header = f"--- journal (last {min(n, len(self._events))} events"
        if reason:
            header += f"; {reason}"
        header += ") ---"
        print(header, file=stream)
        for line in self.render(n):
            print(line, file=stream)
        print("--- end journal ---", file=stream)


def render_events(events):
    """One line per event, oldest first (CLI and stderr dumps).

    Renders this process's events (:meth:`Journal.tail`) and events
    fetched from a server's ``/debug/journal`` alike: a missing
    ``seq``/``ts``/``kind`` renders as 0, the epoch or ``?``.
    """
    lines = []
    for event in events:
        ts = event.get("ts", 0)
        stamp = time.strftime("%H:%M:%S", time.localtime(ts))
        line = (
            f"{event.get('seq', 0):>6}  {stamp}.{int(ts * 1000) % 1000:03d}"
            f"  {event.get('kind', '?')}"
        )
        fields = " ".join(
            f"{key}={event[key]}"
            for key in sorted(event)
            if key not in ("seq", "ts", "kind")
        )
        if fields:
            line += f"  {fields}"
        lines.append(line)
    return lines


#: The process-wide flight recorder every instrumentation point uses.
JOURNAL = Journal()
