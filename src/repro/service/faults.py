"""Deterministic fault injection for the serving stack.

Production code is instrumented with *named fault points* -- e.g.
``FAULTS.sleep("solver.slow")`` in the DPLL(T) round loop,
``FAULTS.raise_io("spill.io")`` in the cache spiller -- that are
zero-cost no-ops unless the matching point has been activated.  Tests
(``tests/test_faults.py``) and the CI ``chaos-smoke`` job activate
points through :meth:`FaultRegistry.activate` or the ``REPRO_FAULTS``
environment variable, read when this module is imported:

    REPRO_FAULTS="spill.io:n=2;solver.slow:ms=50"

Every activation is deterministic: a point either always fires or fires
on the *n*-th hit of a process-wide counter -- no randomness, so a
failing chaos test replays exactly.

Fault points (see ``docs/service.md``):

``solver.slow``
    Sleep ``ms`` milliseconds per DPLL(T) round -- makes any query
    arbitrarily slow so deadline/degradation paths can be exercised with
    real pipeline work.
``spill.io``
    Raise :class:`OSError` from the spiller's write path.
``spill.stall``
    Sleep ``s`` seconds inside the spill write -- lets tests pin the
    background spill thread to exercise the ``stop()`` join-timeout path.

This module must stay import-light (stdlib + ``repro.obs``) so the
solver facade can import it without cycles.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from dataclasses import dataclass, field

from repro.obs import JOURNAL

__all__ = ["FaultRegistry", "FaultPoint", "FAULTS", "stalled_client_socket"]

#: Environment variable holding fault activations (inherited over fork).
ENV_VAR = "REPRO_FAULTS"


@dataclass
class FaultPoint:
    """One activated fault point and its deterministic trigger."""

    name: str
    params: dict[str, str] = field(default_factory=dict)
    hits: int = 0

    def int_param(self, key: str, default: int = 0) -> int:
        try:
            return int(self.params.get(key, default))
        except ValueError:
            return default

    def float_param(self, key: str, default: float = 0.0) -> float:
        try:
            return float(self.params.get(key, default))
        except ValueError:
            return default

    def should_fire(self) -> bool:
        """Deterministic trigger: every hit, or only the ``n``-th.

        Increments the hit counter on every call.
        """
        self.hits += 1
        nth = self.int_param("n", 0)
        if nth:
            return self.hits == nth
        return True


class FaultRegistry:
    """Process-wide registry of activated fault points.

    ``enabled`` is a plain attribute checked before any other work so
    production hot paths pay a single attribute load when no faults are
    active (the common case, including all benchmarks).
    """

    def __init__(self) -> None:
        self.enabled = False
        self._points: dict[str, FaultPoint] = {}
        self._lock = threading.Lock()
        self.load_env()

    # -- activation ----------------------------------------------------

    def activate(self, name: str, **params: object) -> None:
        with self._lock:
            self._points[name] = FaultPoint(
                name, {k: str(v) for k, v in params.items()}
            )
            self.enabled = True

    def deactivate(self, name: str) -> None:
        with self._lock:
            self._points.pop(name, None)
            self.enabled = bool(self._points)

    def clear(self) -> None:
        with self._lock:
            self._points.clear()
            self.enabled = False

    def active(self, name: str) -> FaultPoint | None:
        if not self.enabled:
            return None
        return self._points.get(name)

    def load_env(self, spec: str | None = None) -> None:
        """Parse ``REPRO_FAULTS`` (``point:k=v,k=v;point2:...``).

        Called at import, so a process started with the variable set
        runs with those points active from the start.
        """
        if spec is None:
            spec = os.environ.get(ENV_VAR, "")
        for chunk in spec.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            name, _, rest = chunk.partition(":")
            params: dict[str, str] = {}
            for pair in rest.split(","):
                pair = pair.strip()
                if not pair:
                    continue
                key, _, value = pair.partition("=")
                params[key.strip()] = value.strip()
            self.activate(name.strip(), **params)

    # -- injection hooks (called from production code) -----------------

    def sleep(self, name: str) -> None:
        """Sleep ``ms`` (or ``s``) at an activated slow point; no-op otherwise."""
        point = self.active(name)
        if point is None:
            return
        point.hits += 1
        seconds = point.float_param("s", point.float_param("ms") / 1000.0)
        if seconds > 0:
            time.sleep(seconds)

    def raise_io(self, name: str) -> None:
        """Raise :class:`OSError` at an activated IO-error point."""
        point = self.active(name)
        if point is None:
            return
        if point.should_fire():
            JOURNAL.record("fault.fired", point=name)
            raise OSError(f"injected fault: {name}")


#: The process-wide registry, seeded from ``REPRO_FAULTS`` at import.
FAULTS = FaultRegistry()


def stalled_client_socket(
    host: str, port: int, path: str, body_len: int = 512
) -> socket.socket:
    """Open a raw connection that sends headers then stalls mid-body.

    Declares ``Content-Length: body_len`` but writes nothing after the
    header block -- the server's read timeout must reclaim the handler
    thread (408 / connection close) instead of letting the client pin it.
    Returns the open socket; the caller closes it.
    """
    sock = socket.create_connection((host, port), timeout=30)
    request = (
        f"POST {path} HTTP/1.1\r\n"
        f"Host: {host}:{port}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {body_len}\r\n"
        "\r\n"
    )
    sock.sendall(request.encode("ascii"))
    return sock
