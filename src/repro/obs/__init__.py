"""Observability: span tracing, a metrics registry, and exposition.

Three pieces (see ``docs/observability.md``):

* :data:`TRACER` -- the process-wide span tracer.  Disabled by default;
  ``TRACER.span(...)`` then returns a shared no-op span, and hot paths
  guard with ``TRACER.enabled``.  A trace is opened per request/CLI run
  with ``with TRACER.trace("grade") as handle:``.
* :data:`REGISTRY` -- the process-wide :class:`MetricsRegistry` holding
  service-level counters and histograms, rendered on ``/metrics``.
* :mod:`repro.obs.export` -- Prometheus text rendering of scrape-time
  families (the existing solver/session/cache counters, re-homed without
  renaming their public keys) and a text-format validator.

Alongside them:

* :data:`JOURNAL` -- the process-wide always-on bounded flight recorder
  (:mod:`repro.obs.journal`);
* :mod:`repro.obs.effort` -- solver-effort attribution per request,
  batch form and pipeline stage via counter snapshot/deltas;
* :mod:`repro.obs.baseline` -- the unified perf-regression sentinel over
  the committed ``BENCH_*.json`` files (``repro perfdiff``).
"""

from repro.obs.export import parse_prometheus_text, service_metric_families
from repro.obs.journal import JOURNAL, Journal
from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    DEFAULT_TIME_BUCKETS,
    log_buckets,
    render_families,
)
from repro.obs.trace import TRACER, Span, Trace, TraceHandle, Tracer

#: The process-wide registry all service-level metrics register into.
REGISTRY = MetricsRegistry()

# Effort helpers import lazily from this package (record_route_effort
# resolves REGISTRY at call time), so this import must follow REGISTRY.
from repro.obs.effort import (  # noqa: E402
    EFFORT_KEYS,
    effort_delta,
    effort_snapshot,
    mean_effort,
    merge_effort,
    record_route_effort,
)

__all__ = [
    "TRACER",
    "REGISTRY",
    "JOURNAL",
    "Journal",
    "EFFORT_KEYS",
    "effort_snapshot",
    "effort_delta",
    "mean_effort",
    "merge_effort",
    "record_route_effort",
    "Tracer",
    "Trace",
    "TraceHandle",
    "Span",
    "MetricsRegistry",
    "Counter",
    "Histogram",
    "DEFAULT_TIME_BUCKETS",
    "log_buckets",
    "render_families",
    "parse_prometheus_text",
    "service_metric_families",
]
