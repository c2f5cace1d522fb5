"""Stdlib HTTP JSON API over assignment sessions.

A :class:`HintService` is a registry of
:class:`~repro.service.session.AssignmentSession` objects; the handler
exposes it over the routes declared in :data:`ROUTES`, served by a
``ThreadingHTTPServer``:

* ``POST /assignments`` -- register a target query; body
  ``{"schema": {...}, "target_sql": "..."}`` (schema in the same format as
  the CLI schema file) and an optional string ``"assignment_id"``,
  returns ``{"assignment_id": "a1", ...}``.
* ``POST /grade`` -- grade a submission; body
  ``{"assignment_id": "a1", "sql": "...", "show_fixes": false,
  "witness": false, "effort": false}`` (``"witness": true`` adds an
  executor-verified counterexample instance to wrong submissions;
  ``"effort": true`` adds the solver-effort counter delta of serving the
  request).
* ``POST /witness`` -- just the counterexample; body
  ``{"assignment_id": "a1", "sql": "..."}``.
* ``GET /stats`` -- per-assignment cache/solver statistics plus
  process-level HTTP request/latency statistics (and the cache-spiller's
  ``spill`` block when one is attached).
* ``GET /metrics`` -- Prometheus text exposition (request counters and
  latency histograms, grade/stage histograms, per-route solver-effort
  counters, per-assignment solver and cache counters).
* ``GET /debug/journal?n=K`` -- the last K events of the process-wide
  flight recorder (``repro.obs.JOURNAL``) as JSON; the recorder is also
  dumped to stderr when a request dies with an unhandled exception.

Observability: every response increments ``repro_http_requests_total``
(and ``repro_http_errors_total`` for 4xx/5xx) and observes
``repro_http_request_seconds``, labeled by route (unknown paths collapse
into ``other`` to bound label cardinality).  A grade request carrying
``"trace": true`` returns its span tree in the response; starting the
server with ``slow_ms`` set wraps *every* request in a trace and logs the
rendered tree to stderr when handling exceeds the threshold.

Request hardening: bodies above ``MAX_BODY_BYTES`` are rejected with 413,
and POST requests whose ``Content-Length`` is absent or malformed get a
400 (both close the connection -- the body framing cannot be trusted).

Fault tolerance (see ``docs/service.md``): POST work routes run under an
:class:`AdmissionController` -- beyond ``max_inflight`` concurrent grades
plus a bounded wait queue, requests are shed with 503 + ``Retry-After``.
``read_timeout`` bounds how long a stalled client can hold a handler
thread (408 mid-body, silent close between requests).  ``timeout_ms`` on
``POST /grade`` (capped by the server's ``max_timeout_ms``) bounds one
grade: on expiry the response is a degraded-200 partial report, or 408
when the budget was spent before the pipeline started.  Shutdown drains:
new work is shed (``draining``) while admitted requests finish complete
responses, then the spiller takes its final flush.

Concurrency model: the threading server gives each request its own
thread; the registry is guarded by a service-level lock and each grade
takes its session's re-entrant lock, so concurrent submissions for the
same assignment are serialized (the solver is not concurrency-safe) while
different assignments grade in parallel.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.catalog import Catalog
from repro.errors import ReproError
from repro.obs import JOURNAL, REGISTRY, TRACER
from repro.obs.effort import record_route_effort
from repro.obs.export import service_metric_families
from repro.obs.metrics import render_families
from repro.service.deadline import Deadline, DeadlineExceeded
from repro.service.faults import FAULTS
from repro.service.session import AssignmentSession

MAX_BODY_BYTES = 1_048_576

__all__ = [
    "AdmissionController",
    "CacheSpiller",
    "HintHTTPServer",
    "HintRequestHandler",
    "HintService",
    "KNOWN_ROUTES",
    "MAX_BODY_BYTES",
    "ROUTES",
    "ServiceError",
    "bounded_route",
    "http_stats",
    "make_server",
    "serve",
]

_HTTP_REQUESTS = REGISTRY.counter(
    "repro_http_requests_total",
    "HTTP requests served, by route and status.",
    ("route", "status"),
)
_HTTP_ERRORS = REGISTRY.counter(
    "repro_http_errors_total",
    "HTTP error responses (status >= 400), by route and status.",
    ("route", "status"),
)
_HTTP_LATENCY = REGISTRY.histogram(
    "repro_http_request_seconds",
    "HTTP request handling wall time, by route.",
    ("route",),
)
_SHED = REGISTRY.counter(
    "repro_shed_total",
    "Requests shed by the fault-tolerance layer, by reason "
    "(queue_full, timeout, draining, read_timeout).",
    ("reason",),
)


def _setting(name, value, *, integer=False, positive=False, optional=False,
             below=math.inf):
    """``value`` if it is a finite number (an int, never a bool, when
    ``integer``) below ``below`` that is > 0 when ``positive`` and >= 0
    otherwise, or None when ``optional``; ``ValueError`` for anything
    else, NaN included."""
    kinds = int if integer else (int, float)
    if (value is None and optional) or (
        isinstance(value, kinds)
        and not isinstance(value, bool)
        and (value > 0 if positive else value >= 0)
        and value < below
    ):
        return value
    kind = "an integer" if integer else "a finite number"
    bound = "> 0" if positive else ">= 0"
    if below < math.inf:
        bound += f" and < {below}"
    none = " or None" if optional else ""
    raise ValueError(f"{name} must be {kind} {bound}{none}, got {value!r}")


class ServiceError(Exception):
    """An HTTP-mappable request error."""

    def __init__(self, status, message):
        super().__init__(message)
        self.status = status


class AdmissionController:
    """Bounded in-flight admission with a small wait queue.

    The threading server otherwise accepts unbounded concurrent work: a
    burst of expensive grades piles up threads until every one of them is
    slow.  The controller admits at most ``max_inflight`` concurrent work
    requests; up to ``max_queue`` more wait (at most ``queue_timeout``
    seconds) for a slot, and everything beyond that is shed immediately
    with 503 + ``Retry-After`` so clients back off instead of queuing
    invisible seconds of latency.

    ``max_inflight=None`` means unbounded-but-tracked: nothing is ever
    shed for load, but in-flight accounting still works, which is what
    graceful drain (:meth:`HintHTTPServer.drain`) relies on -- so a
    controller is always attached, bounded or not.  ``max_inflight`` is
    None or an int >= 1, ``max_queue`` an int >= 0, ``queue_timeout`` >= 0.
    """

    def __init__(self, max_inflight=None, max_queue=0, queue_timeout=1.0):
        self.max_inflight = _setting(
            "max_inflight", max_inflight,
            integer=True, positive=True, optional=True,
        )
        self.max_queue = _setting("max_queue", max_queue, integer=True)
        self.queue_timeout = _setting("queue_timeout", queue_timeout)
        self._cond = threading.Condition()
        self.inflight = 0
        self._responding = 0  # see responding()
        self.waiting = 0
        self.draining = False
        self.admitted = 0
        self.shed = {"queue_full": 0, "timeout": 0, "draining": 0}

    def _slot_free(self):
        return self.max_inflight is None or self.inflight < self.max_inflight

    def acquire(self):
        """Try to admit one work request.

        Returns ``"admitted"`` (caller must :meth:`release`), or the shed
        reason: ``"queue_full"``, ``"timeout"`` (queued but no slot freed
        within ``queue_timeout``), or ``"draining"`` (shutdown underway).
        """
        with self._cond:
            if self.draining:
                self.shed["draining"] += 1
                return "draining"
            if self._slot_free():
                self.inflight += 1
                self.admitted += 1
                return "admitted"
            if self.waiting >= self.max_queue:
                self.shed["queue_full"] += 1
                return "queue_full"
            self.waiting += 1
            deadline = time.monotonic() + self.queue_timeout
            try:
                while True:
                    if self.draining:
                        self.shed["draining"] += 1
                        return "draining"
                    if self._slot_free():
                        self.inflight += 1
                        self.admitted += 1
                        return "admitted"
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        self.shed["timeout"] += 1
                        return "timeout"
                    self._cond.wait(remaining)
            finally:
                self.waiting -= 1

    def release(self):
        with self._cond:
            self.inflight -= 1
            self._cond.notify_all()

    @contextmanager
    def responding(self):
        """Keep :meth:`wait_idle` waiting while a response is written:
        entered before :meth:`release`, it lets a request free its slot
        before the client can read the response."""
        with self._cond:
            self._responding += 1
        try:
            yield
        finally:
            with self._cond:
                self._responding -= 1
                self._cond.notify_all()

    def start_drain(self):
        """Refuse all future admissions (drain begins)."""
        with self._cond:
            self.draining = True
            self._cond.notify_all()

    def wait_idle(self, timeout):
        """Block until no admitted work is in flight or being answered;
        False on timeout."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while self.inflight > 0 or self._responding > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(remaining)
            return True

    def stats(self):
        """The ``admission`` block of ``GET /stats``."""
        with self._cond:
            return {
                "max_inflight": self.max_inflight,
                "max_queue": self.max_queue,
                "queue_timeout": self.queue_timeout,
                "inflight": self.inflight,
                "waiting": self.waiting,
                "admitted": self.admitted,
                "draining": self.draining,
                "shed": dict(self.shed),
            }


class HintService:
    """Registry of assignment sessions behind the HTTP front end."""

    def __init__(self):
        self._sessions = {}
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.started_at = time.time()

    def create_assignment(
        self,
        catalog,
        target_sql,
        *,
        assignment_id=None,
        max_sites=2,
        cache_size=256,
    ):
        if assignment_id is not None and not isinstance(assignment_id, str):
            raise ServiceError(400, "assignment_id must be a string")
        session = AssignmentSession(
            catalog,
            target_sql,
            max_sites=max_sites,
            cache_size=cache_size,
        )
        with self._lock:
            if assignment_id is None:
                assignment_id = f"a{next(self._ids)}"
            if assignment_id in self._sessions:
                raise ServiceError(
                    409, f"assignment {assignment_id!r} already exists"
                )
            session.assignment_id = assignment_id
            self._sessions[assignment_id] = session
        return session

    def session(self, assignment_id):
        with self._lock:
            session = self._sessions.get(assignment_id)
        if session is None:
            raise ServiceError(404, f"unknown assignment {assignment_id!r}")
        return session

    def stats(self):
        with self._lock:
            sessions = dict(self._sessions)
        return {
            "uptime": time.time() - self.started_at,
            "assignments": {
                aid: session.stats() for aid, session in sessions.items()
            },
        }


def http_stats():
    """Process-level HTTP request/latency statistics (``GET /stats``).

    Derived from the global registry's request counters and latency
    histograms, so counts span every server in the process; quantiles are
    bucket upper bounds (see :class:`repro.obs.Histogram`).
    """
    requests = {}
    for labels, value in _HTTP_REQUESTS.items():
        requests.setdefault(labels["route"], {})[labels["status"]] = value
    errors = {}
    for labels, value in _HTTP_ERRORS.items():
        errors[labels["route"]] = errors.get(labels["route"], 0) + value
    latency = {}
    for labels, value in _HTTP_LATENCY.items():
        route = labels["route"]
        latency[route] = {
            "count": value["count"],
            "mean_ms": round(
                value["sum"] / value["count"] * 1000.0, 3
            ) if value["count"] else 0.0,
            "p50_ms": round(
                _HTTP_LATENCY.quantile(0.5, route=route) * 1000.0, 3
            ),
            "p95_ms": round(
                _HTTP_LATENCY.quantile(0.95, route=route) * 1000.0, 3
            ),
            "p99_ms": round(
                _HTTP_LATENCY.quantile(0.99, route=route) * 1000.0, 3
            ),
        }
    return {"requests": requests, "errors": errors, "latency": latency}


class CacheSpiller:
    """Periodic background spill of a session's artifact cache to disk.

    Until now the cache was load-at-start/save-at-shutdown only, so a
    crash lost every artifact computed since startup.  The spiller wakes
    every ``interval`` seconds and rewrites the spill file through
    :meth:`AssignmentSession.save`, whose temp-file + rename write is
    atomic: a crash mid-spill leaves the previous snapshot intact, and a
    restart loses at most one interval of work.

    Idle intervals are skipped via a cheap change marker -- every cache
    mutation in the serve path is preceded by a miss (and evictions move
    on overflow), so ``(size, misses, evictions)`` is a reliable
    dirtiness signal and an idle server never touches the disk.
    ``interval`` must be finite and > 0, else ``ValueError``.
    """

    def __init__(self, session, path, interval):
        self.session = session
        self.path = path
        self.interval = _setting("interval", interval, positive=True)
        self.spills = 0  # completed (non-skipped) spills
        self.skipped_idle = 0  # spills skipped because the cache was clean
        self.errors = 0  # spills that failed with OSError
        self.join_timeouts = 0  # stop() joins that abandoned a live thread
        self.last_duration_ms = 0.0
        self.last_bytes = 0
        self.last_entries = 0
        self._stop = threading.Event()
        self._last_marker = self._marker()
        self._thread = threading.Thread(
            target=self._run, name="cache-spill", daemon=True
        )

    def _marker(self):
        stats = self.session.cache.stats()
        return (stats["size"], stats["misses"], stats["evictions"])

    def start(self):
        self._thread.start()
        return self

    def stop(self, join_timeout=None):
        """Signal the loop, join it, then flush one final spill.

        Without the final flush, mutations landing after the last timer
        tick were lost on a clean shutdown -- and shutdown raced the
        background thread's in-flight spill against the server teardown.
        Joining first guarantees no concurrent writer; the flush itself
        is a no-op when the cache is clean (change-marker skip).

        When the join times out the spill thread is still live (e.g.
        wedged on stalled disk I/O).  That used to be silent; now it is
        counted (``join_timeouts``, surfaced in the ``spill`` stats
        block), journaled as ``spill.join_timeout``, and the final flush
        is *skipped* -- writing concurrently with the wedged thread's
        in-flight spill could interleave two writers on the same path.
        """
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(
                join_timeout if join_timeout is not None
                else self.interval + 30
            )
            if self._thread.is_alive():
                self.join_timeouts += 1
                JOURNAL.record(
                    "spill.join_timeout", join_timeouts=self.join_timeouts
                )
                return
        try:
            self.spill()
        except OSError as exc:  # pragma: no cover - disk trouble at shutdown
            self.errors += 1
            JOURNAL.record("spill.error", error=str(exc), at="stop")

    def _run(self):
        while not self._stop.wait(self.interval):
            try:
                self.spill()
            except OSError as exc:  # disk trouble; retry next interval
                self.errors += 1
                JOURNAL.record("spill.error", error=str(exc), at="loop")

    def spill(self):
        """Write a snapshot now (if dirty); returns entries written."""
        import os

        marker = self._marker()
        if marker == self._last_marker:
            self.skipped_idle += 1
            JOURNAL.record("spill.idle", skipped=self.skipped_idle)
            return 0
        JOURNAL.record("spill.start", size=marker[0])
        if FAULTS.enabled:  # chaos harness: stalled or failing spill I/O
            FAULTS.sleep("spill.stall")
            FAULTS.raise_io("spill.io")
        started = time.perf_counter()
        count = self.session.save(self.path)
        self.last_duration_ms = round(
            (time.perf_counter() - started) * 1000.0, 3
        )
        try:
            self.last_bytes = os.path.getsize(self.path)
        except OSError:  # pragma: no cover - racing file removal
            self.last_bytes = 0
        self.last_entries = count
        self._last_marker = marker
        self.spills += 1
        JOURNAL.record(
            "spill.end",
            entries=count,
            bytes=self.last_bytes,
            duration_ms=self.last_duration_ms,
        )
        return count

    def stats(self):
        """The ``spill`` block of ``GET /stats``."""
        return {
            "count": self.spills,
            "skipped_idle": self.skipped_idle,
            "errors": self.errors,
            "join_timeouts": self.join_timeouts,
            "last_duration_ms": self.last_duration_ms,
            "last_bytes": self.last_bytes,
            "last_entries": self.last_entries,
            "interval": self.interval,
            "path": str(self.path),
        }


class HintRequestHandler(BaseHTTPRequestHandler):
    """JSON request handler; the service lives on ``self.server.service``.

    Each request is answered by the handler :data:`ROUTES` declares for
    its method and path, through :meth:`_outcome` and :meth:`_respond`.
    """

    protocol_version = "HTTP/1.1"

    def log_message(self, fmt, *args):  # pragma: no cover - noise control
        if not self.server.quiet:
            super().log_message(fmt, *args)

    def setup(self):
        """Apply the server's socket read timeout before the first read.

        ``StreamRequestHandler.setup`` installs ``self.timeout`` on the
        connection, so a stalled client (headers or body trickling in, or
        an idle keep-alive socket) raises ``TimeoutError`` instead of
        pinning this handler thread forever.
        """
        self.timeout = self.server.read_timeout
        super().setup()

    # -- plumbing -------------------------------------------------------

    def _send_json(self, status, payload, extra_headers=None):
        body = json.dumps(payload).encode("utf-8")
        self._send_body(
            status, body, "application/json", extra_headers=extra_headers
        )

    def _send_body(self, status, body, content_type, extra_headers=None):
        """Single response exit point: writes the body, records metrics.

        The status counters and ``http.error`` are recorded before the
        body goes out, so a client that has read the response already
        sees them; the latency and ``http.finish`` include the write.
        """
        route = self._route
        _HTTP_REQUESTS.inc(route=route, status=str(status))
        if status >= 400:
            _HTTP_ERRORS.inc(route=route, status=str(status))
            JOURNAL.record("http.error", route=route, status=status)
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)
        elapsed = time.perf_counter() - self._started
        _HTTP_LATENCY.observe(elapsed, route=route)
        JOURNAL.record(
            "http.finish",
            route=route,
            status=status,
            ms=round(elapsed * 1000.0, 3),
        )

    def _content_length(self):
        """Parse Content-Length, or None when absent.

        A malformed (non-integer or negative) value is a 400: the body
        framing cannot be trusted, so the connection is dropped after the
        response instead of resynchronized.
        """
        raw = self.headers.get("Content-Length")
        if raw is None:
            return None
        try:
            length = int(raw)
        except ValueError:
            self.close_connection = True
            raise ServiceError(400, "malformed Content-Length header")
        if length < 0:
            self.close_connection = True
            raise ServiceError(400, "malformed Content-Length header")
        return length

    def _drain_body(self):
        """Consume an unread request body so keep-alive stays in sync.

        Responding without reading the body leaves its bytes on the
        socket, and the next request on the persistent connection would
        be parsed out of them.
        """
        try:
            length = self._content_length() or 0
        except ServiceError:
            return  # malformed framing; _content_length closed the connection
        try:
            while length > 0:
                chunk = self.rfile.read(min(length, 65536))
                if not chunk:
                    break
                length -= len(chunk)
        except TimeoutError:
            # Stalled client mid-body on a non-work route: nothing left to
            # salvage on this connection.
            self._record_read_timeout()

    def _read_json(self):
        length = self._content_length()
        if length is None:
            # No framing at all: nothing safe to read on a keep-alive
            # socket, so reject and drop the connection.
            self.close_connection = True
            raise ServiceError(400, "missing Content-Length header")
        if length > MAX_BODY_BYTES:
            # Too large to drain; drop the connection after responding.
            self.close_connection = True
            raise ServiceError(413, "request body too large")
        try:
            raw = self.rfile.read(length) if length else b""
        except TimeoutError:
            # The client declared a body it never finished sending; the
            # read timeout reclaims this thread instead of letting the
            # stall pin it.  408 + close (body framing is unrecoverable).
            self._record_read_timeout()
            raise ServiceError(408, "timed out reading request body")
        if not raw:
            raise ServiceError(400, "empty request body")
        try:
            payload = json.loads(raw)
        except ValueError:
            raise ServiceError(400, "request body is not valid JSON")
        if not isinstance(payload, dict):
            raise ServiceError(400, "request body must be a JSON object")
        return payload

    def _record_read_timeout(self):
        self.close_connection = True
        _SHED.inc(reason="read_timeout")
        JOURNAL.record("http.read_timeout", route=self._route)

    def _require(self, payload, key, types=str):
        value = payload.get(key)
        if not isinstance(value, types):
            raise ServiceError(400, f"field {key!r} is required")
        return value

    def _outcome(self, handler):
        """Run ``handler`` and return the ``(status, payload)`` to send.

        The one place an exception becomes a status: a
        :class:`ServiceError` carries its own, an expired deadline is 408
        (reachable only when the budget was spent before the pipeline
        started; mid-run expiry degrades to a partial 200 instead), any
        other :class:`ReproError` is 400, and anything else is 500,
        journaled as ``http.exception`` with the flight recording dumped
        to stderr.
        """
        try:
            return handler(self)
        except ServiceError as error:
            return error.status, {"error": str(error)}
        except DeadlineExceeded as error:
            return 408, {"error": str(error), "kind": "DeadlineExceeded"}
        except ReproError as error:
            return 400, {"error": str(error), "kind": type(error).__name__}
        except Exception as error:
            # The flight recording explains the crash; dump it into the
            # server log next to where the traceback would land.
            JOURNAL.record(
                "http.exception",
                route=self._route,
                exception=type(error).__name__,
                error=str(error),
            )
            JOURNAL.dump(
                reason=f"unhandled {type(error).__name__} on {self._route}"
            )
            return 500, {"error": f"internal error: {error}"}

    def _respond(self, status, payload):
        """Send a ``str`` payload as Prometheus text, any other as JSON."""
        if isinstance(payload, str):
            self._send_body(
                status,
                payload.encode("utf-8"),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        else:
            self._send_json(status, payload)

    # -- dispatch -------------------------------------------------------

    def do_POST(self):
        self._handle("POST")

    def do_GET(self):
        self._handle("GET")

    def _handle(self, method):
        """Per-request bookkeeping around :meth:`_route_request`.

        Stamps the latency start and the metric route label, and -- when
        the server was started with ``slow_ms`` -- wraps the whole request
        in a trace, logging the rendered span tree to stderr if handling
        exceeds the threshold.
        """
        self._started = time.perf_counter()
        # Cardinality guard: the metric/journal route label comes from the
        # bounded set, query string stripped, no matter what was requested.
        self._route = bounded_route(self.path)
        JOURNAL.record("http.start", method=method, route=self._route)
        slow_ms = self.server.slow_ms
        if slow_ms is None:
            self._route_request(method)
            return
        with TRACER.trace("http", method=method, path=self.path) as handle:
            self._route_request(method)
        if handle.duration_ms >= slow_ms:
            lines = [
                f"slow request: {method} {self.path} "
                f"took {handle.duration_ms:.1f}ms "
                f"(threshold {slow_ms:g}ms) trace={handle.trace_id}"
            ]
            lines.extend(f"  {line}" for line in handle.render())
            print("\n".join(lines), file=sys.stderr)
            JOURNAL.record(
                "http.slow",
                route=self._route,
                ms=round(handle.duration_ms, 3),
                trace_id=handle.trace_id,
                spans=len(handle.spans),
            )

    def _route_request(self, method):
        """Answer one request with its :data:`ROUTES` handler.

        GET routes and unknown requests drain any body (keep-alive
        framing) and answer at once: stats, metrics and health bypass
        admission so they answer precisely when the server is saturated.
        POST routes are work; they read their own body and run under
        admission control.  A shed request gets 503 + ``Retry-After``
        without *grading* anything; its (bounded, usually
        already-buffered) body is still drained first -- closing a socket
        with unread bytes sends a TCP RST that can destroy the in-flight
        503 before the client reads it -- and the connection is then
        closed to keep keep-alive framing honest.
        """
        handler = ROUTES.get((method, self._route))
        if handler is None or method != "POST":
            self._drain_body()
            self._respond(
                *self._outcome(handler or HintRequestHandler._no_route)
            )
            return
        admission = self.server.admission
        verdict = admission.acquire()
        if verdict != "admitted":
            _SHED.inc(reason=verdict)
            JOURNAL.record(
                "admission.shed", route=self._route, reason=verdict
            )
            self._drain_body()
            self.close_connection = True
            retry_after = "5" if verdict == "draining" else "1"
            self._send_json(
                503,
                {"error": f"server busy ({verdict})", "reason": verdict},
                extra_headers={"Retry-After": retry_after},
            )
            return
        # The slot is free before the client can read the response, so a
        # client that sends its next request on reading it is not shed.
        with admission.responding():
            try:
                outcome = self._outcome(handler)
            finally:
                admission.release()
            self._respond(*outcome)

    # -- routes: each returns (status, payload); see ROUTES -------------

    def _no_route(self):
        return 404, {"error": f"no such route {self.path}"}

    def _post_assignment(self):
        payload = self._read_json()
        spec = self._require(payload, "schema", dict)
        target_sql = self._require(payload, "target_sql")
        try:
            catalog = Catalog.from_spec(spec)
        except (KeyError, TypeError, ValueError) as error:
            raise ServiceError(400, f"invalid schema: {error}")
        try:
            max_sites = int(payload.get("max_sites", 2))
            cache_size = int(payload.get("cache_size", 256))
        except (TypeError, ValueError, OverflowError):
            raise ServiceError(400, "max_sites/cache_size must be integers")
        if max_sites < 0:
            raise ServiceError(400, "max_sites must be >= 0")
        if cache_size < 1:
            raise ServiceError(400, "cache_size must be >= 1")
        session = self.server.service.create_assignment(
            catalog,
            target_sql,
            assignment_id=payload.get("assignment_id"),
            max_sites=max_sites,
            cache_size=cache_size,
        )
        return 201, {
            "assignment_id": session.assignment_id,
            "target_sql": " ".join(session.target_sql.split()),
        }

    def _post_grade(self):
        payload = self._read_json()
        assignment_id = self._require(payload, "assignment_id")
        sql = self._require(payload, "sql")
        show_fixes = bool(payload.get("show_fixes", False))
        witness_text = bool(payload.get("witness_text", False))
        # witness_text needs a witness to anchor to, so it implies one.
        witness = bool(payload.get("witness", False)) or witness_text
        want_trace = bool(payload.get("trace", False))
        want_effort = bool(payload.get("effort", False))
        deadline = self._request_deadline(payload)
        session = self.server.service.session(assignment_id)
        trace_dict = None
        # Effort is always measured (two counter-dict copies) so the
        # per-route /metrics aggregation sees every grade; the response
        # carries the delta only on "effort": true requests.
        if want_trace:
            with TRACER.trace("grade", assignment=assignment_id) as handle:
                result = session.grade(
                    sql, witness=witness, effort=True, deadline=deadline
                )
            trace_dict = handle.to_dict()
        else:
            result = session.grade(
                sql, witness=witness, effort=True, deadline=deadline
            )
        if result.degraded:
            JOURNAL.record(
                "grade.degraded",
                route=self._route,
                assignment=assignment_id,
            )
        record_route_effort(self._route, result.effort)
        body = result.to_dict(show_fixes=show_fixes)
        if not want_effort:
            body.pop("effort", None)
        body["assignment_id"] = assignment_id
        body["text"] = result.text(
            show_fixes=show_fixes, witness_text=witness_text
        )
        if trace_dict is not None:
            body["trace"] = trace_dict
        return 200, body

    def _request_deadline(self, payload):
        """Per-request ``timeout_ms`` -> :class:`Deadline`, server-capped.

        ``max_timeout_ms`` on the server both caps client-requested
        budgets and, when set, applies as the default for requests that
        did not ask for one -- so an operator can bound worst-case grade
        latency fleet-wide.
        """
        raw = payload.get("timeout_ms")
        cap = self.server.max_timeout_ms
        if raw is None:
            return Deadline.after_ms(cap) if cap is not None else None
        try:
            timeout_ms = float(raw)
        except (TypeError, ValueError, OverflowError):
            raise ServiceError(400, "timeout_ms must be a number")
        # NaN fails both comparisons: min(nan, cap) would be nan, a
        # deadline that never expires.
        if not 0 < timeout_ms < math.inf:
            raise ServiceError(400, "timeout_ms must be positive and finite")
        if cap is not None:
            timeout_ms = min(timeout_ms, cap)
        return Deadline.after_ms(timeout_ms)

    def _post_witness(self):
        from repro.witness import witness_to_dict

        payload = self._read_json()
        assignment_id = self._require(payload, "assignment_id")
        sql = self._require(payload, "sql")
        session = self.server.service.session(assignment_id)
        result = session.grade(sql, witness=True, effort=True)
        record_route_effort(self._route, result.effort)
        return 200, {
            "assignment_id": assignment_id,
            "all_passed": result.all_passed,
            "found": result.witness is not None,
            "witness": (
                witness_to_dict(result.witness)
                if result.witness is not None
                else None
            ),
        }

    def _get_stats(self):
        stats = self.server.service.stats()
        stats["http"] = http_stats()
        if self.server.spiller is not None:
            stats["spill"] = self.server.spiller.stats()
        stats["admission"] = self.server.admission.stats()
        return 200, stats

    def _get_metrics(self):
        """Prometheus text exposition: registry metrics plus the
        scrape-time per-assignment solver/cache/session families."""
        return 200, REGISTRY.render() + render_families(
            service_metric_families(self.server.service)
        )

    def _get_healthz(self):
        return 200, {"ok": True}

    def _get_journal(self):
        """``GET /debug/journal?n=K``: the flight recorder's tail as JSON."""
        n = None
        for part in self.path.partition("?")[2].split("&"):
            key, _, value = part.partition("=")
            if key == "n":
                try:
                    n = max(0, int(value))
                except ValueError:
                    raise ServiceError(400, "n must be an integer")
        return 200, {"journal": JOURNAL.stats(), "events": JOURNAL.tail(n)}


#: Every route the service answers, each declared once: ``(method,
#: path)`` -> the handler, which returns ``(status, payload)``.  POST
#: routes are work and run under admission control; GET routes bypass
#: it.  The metric route labels (:data:`KNOWN_ROUTES`) and the start-up
#: banner of :func:`serve` derive from this table, the banner in its order.
ROUTES = {
    ("POST", "/assignments"): HintRequestHandler._post_assignment,
    ("POST", "/grade"): HintRequestHandler._post_grade,
    ("POST", "/witness"): HintRequestHandler._post_witness,
    ("GET", "/stats"): HintRequestHandler._get_stats,
    ("GET", "/metrics"): HintRequestHandler._get_metrics,
    ("GET", "/healthz"): HintRequestHandler._get_healthz,
    ("GET", "/debug/journal"): HintRequestHandler._get_journal,
}

#: The bounded route-label set for HTTP metric families.  Everything
#: else (typo'd paths, scanners, probes) collapses into ``other`` at
#: record time so request-path cardinality can never grow the registry.
KNOWN_ROUTES = frozenset(path for _, path in ROUTES)


def bounded_route(path):
    """Collapse an arbitrary request path into the bounded label set.

    The query string is stripped before matching (``/debug/journal?n=5``
    records as ``/debug/journal``); anything outside
    :data:`KNOWN_ROUTES` records as ``other``.
    """
    route = path.partition("?")[0]
    return route if route in KNOWN_ROUTES else "other"


class HintHTTPServer(ThreadingHTTPServer):
    """Threading HTTP server with admission control and graceful drain."""

    daemon_threads = True
    # Overload must be shed at the application layer (503 + Retry-After),
    # not by the kernel: with socketserver's default backlog of 5, a
    # connect burst overflows the accept queue and Linux drops handshake
    # ACKs -- clients then see connection resets and retransmit stalls
    # instead of a clean shed.
    request_queue_size = 128

    def serve_forever(self, poll_interval=0.05):
        """``socketserver``'s loop, polling for shutdown every 50 ms.

        ``shutdown()`` (and so :meth:`drain`) waits until the next poll;
        the inherited 0.5 s default made every server stop wait that long.
        """
        super().serve_forever(poll_interval)

    def drain(self, timeout=10.0):
        """Graceful shutdown: stop accepting, finish in-flight work.

        Must be called from a thread other than the one running
        ``serve_forever`` (which it stops).  New work requests are shed
        with 503 (``draining``) the moment this starts; the call then
        blocks up to ``timeout`` seconds for admitted requests to finish
        writing their complete responses.  Returns True when the server
        drained fully, False when the timeout left work in flight.
        """
        JOURNAL.record("server.drain.start")
        self.admission.start_drain()
        self.shutdown()  # stop serve_forever; no new connections accepted
        drained = self.admission.wait_idle(timeout)
        JOURNAL.record("server.drain.end", drained=drained)
        return drained


def make_server(host="127.0.0.1", port=0, service=None, slow_ms=None,
                spiller=None, admission=None, read_timeout=None,
                max_timeout_ms=None, quiet=True):
    """Build (but do not start) the threading HTTP server.

    ``port`` is an integer in 0..65535; ``port=0`` binds an ephemeral
    port (tests), and the bound address is on ``server.server_address``.
    ``slow_ms`` enables per-request tracing
    with slow-request logging (see :class:`HintRequestHandler._handle`).
    ``spiller`` is exposed on the server so ``GET /stats`` can report the
    ``spill`` block (the caller still owns start/stop).

    Fault-tolerance knobs (see ``docs/service.md``, "Fault tolerance"):
    ``admission`` is an :class:`AdmissionController` (one is always
    attached -- unbounded by default -- so graceful drain works);
    ``read_timeout`` puts a socket timeout on request reads so stalled
    clients get 408/disconnected instead of pinning handler threads;
    ``max_timeout_ms`` caps (and defaults) per-request ``timeout_ms``
    grade budgets.  ``quiet=False`` writes an access-log line per
    request to stderr.  A bad setting raises ``ValueError`` before the
    bind; a failed bind raises its ``OSError``.
    """
    _setting("port", port, integer=True, below=65536)
    _setting("slow_ms", slow_ms, optional=True)
    _setting("read_timeout", read_timeout, positive=True, optional=True)
    _setting("max_timeout_ms", max_timeout_ms, positive=True, optional=True)
    server = HintHTTPServer((host, port), HintRequestHandler)
    server.service = service or HintService()
    server.slow_ms = slow_ms
    server.spiller = spiller
    server.admission = admission or AdmissionController()
    server.read_timeout = read_timeout
    server.max_timeout_ms = max_timeout_ms
    server.quiet = quiet
    return server


def serve(host="127.0.0.1", port=8100, service=None, quiet=False,
          drain_timeout=10.0, **settings):
    """Run the API server until interrupted; returns the exit code.

    ``settings`` go to :func:`make_server`.  Its ``spiller`` (a
    :class:`CacheSpiller`) is started alongside the server and stopped --
    after a final flush attempt -- on the way out; ``slow_ms`` logs any
    request slower than the threshold together with its rendered span
    tree.

    Shutdown is graceful: on interrupt the admission controller starts
    shedding (503 ``draining``), in-flight requests get up to
    ``drain_timeout`` seconds to finish their complete responses, and the
    spiller performs its final flush only after the drain -- so the spill
    file includes artifacts from requests that finished during it.  A bad
    setting raises ``ValueError`` before anything starts.
    """
    _setting("drain_timeout", drain_timeout)
    server = make_server(host, port, service, quiet=quiet, **settings)
    bound_host, bound_port = server.server_address[:2]
    print(f"repro hint service listening on http://{bound_host}:{bound_port}")
    print("routes: "
          + "  ".join(f"{method} {path}" for method, path in ROUTES))
    spiller = server.spiller
    if spiller is not None:
        spiller.start()
        print(f"cache spill every {spiller.interval:g}s -> {spiller.path}")
    if server.slow_ms is not None:
        print(f"tracing requests; logging those slower than "
              f"{server.slow_ms:g}ms")
    controller = server.admission
    if controller.max_inflight is not None:
        print(f"admission: {controller.max_inflight} in flight, "
              f"queue {controller.max_queue} "
              f"(wait {controller.queue_timeout:g}s)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down (draining in-flight requests)")
    finally:
        # serve_forever has exited, so drain's shutdown() returns at once;
        # shed queued/late work and let admitted requests finish.
        drained = server.drain(drain_timeout)
        if not drained:  # pragma: no cover - hung in-flight work
            print(f"drain timed out after {drain_timeout:g}s "
                  f"({controller.inflight} request(s) still in flight)")
        if spiller is not None:
            spiller.stop()
        server.server_close()
    return 0
