"""Counters and log-bucketed histograms, rendered for Prometheus.

A :class:`MetricsRegistry` owns a set of named metrics behind one lock:

* :class:`Counter` -- monotone float/int sums, optionally labeled;
* :class:`Histogram` -- log-bucketed observation counts plus sum/count,
  from which p50/p95/p99 are derivable (:meth:`Histogram.quantile`).

:meth:`MetricsRegistry.render` emits Prometheus text format (version
0.0.4); :func:`render_families` renders the scrape-time families that
``/metrics`` builds from the service's plain counters.
"""

from __future__ import annotations

import threading


def log_buckets(start=0.0001, factor=2.0, count=22):
    """Geometric histogram bucket upper bounds (seconds by convention)."""
    bounds = []
    value = float(start)
    for _ in range(count):
        bounds.append(value)
        value *= factor
    return tuple(bounds)


#: Default latency buckets: 100us doubling up to ~210s, then +Inf.
DEFAULT_TIME_BUCKETS = log_buckets()


def _format_value(value):
    as_float = float(value)
    if as_float.is_integer():
        return str(int(as_float))
    return repr(as_float)


def _escape_label(value):
    return (
        str(value)
        .replace("\\", r"\\")
        .replace('"', r"\"")
        .replace("\n", r"\n")
    )


def _escape_help(text):
    return str(text).replace("\\", r"\\").replace("\n", r"\n")


def _label_block(labels):
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label(value)}"' for name, value in labels
    )
    return "{" + inner + "}"


def render_families(families):
    """Render scrape-time metric families to Prometheus text.

    Each family is ``{"name", "kind", "help", "samples"}`` with samples a
    list of ``(labels_dict, numeric_value)`` pairs.
    """
    lines = []
    for family in families:
        name = family["name"]
        if family.get("help"):
            lines.append(f"# HELP {name} {_escape_help(family['help'])}")
        lines.append(f"# TYPE {name} {family['kind']}")
        for labels, value in family["samples"]:
            block = _label_block(sorted(labels.items()))
            lines.append(f"{name}{block} {_format_value(value)}")
    if not lines:
        return ""
    return "\n".join(lines) + "\n"


class _Metric:
    """Shared labeled-value plumbing; subclasses define the value shape."""

    kind = None

    def __init__(self, name, help, labelnames, lock):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = lock
        self._values = {}  # labelvalues tuple -> state

    def _key(self, labels):
        if len(labels) != len(self.labelnames) or any(
            name not in labels for name in self.labelnames
        ):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def items(self):
        """``(labels_dict, value)`` pairs; histogram value is a dict."""
        with self._lock:
            states = list(self._values.items())
        return [
            (dict(zip(self.labelnames, key)), self._public_value(state))
            for key, state in states
        ]

    def _public_value(self, state):
        return state

    def _render(self):
        lines = [
            f"# HELP {self.name} {_escape_help(self.help)}",
            f"# TYPE {self.name} {self.kind}",
        ]
        with self._lock:
            states = sorted(self._values.items())
        for key, state in states:
            block = _label_block(list(zip(self.labelnames, key)))
            lines.append(f"{self.name}{block} {_format_value(state)}")
        return lines


class Counter(_Metric):
    """A monotonically increasing sum."""

    kind = "counter"

    def inc(self, amount=1, **labels):
        if amount < 0:
            raise ValueError("counters only go up")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels):
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0)


class Histogram(_Metric):
    """Log-bucketed observation histogram (cumulative on render).

    State per label set is ``[per-bucket counts (+Inf last), sum]``;
    quantiles are derived from the bucket counts as the upper bound of
    the bucket containing the requested rank, which is exact to within
    one bucket width -- the log spacing bounds the relative error.
    """

    kind = "histogram"

    def __init__(self, name, help, labelnames, lock,
                 buckets=DEFAULT_TIME_BUCKETS):
        super().__init__(name, help, labelnames, lock)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket")
        self.buckets = bounds

    def _state(self, key):
        state = self._values.get(key)
        if state is None:
            state = [[0] * (len(self.buckets) + 1), 0.0]
            self._values[key] = state
        return state

    def observe(self, value, **labels):
        key = self._key(labels)
        value = float(value)
        index = 0
        for bound in self.buckets:  # short series; linear beats bisect setup
            if value <= bound:
                break
            index += 1
        with self._lock:
            counts, _ = state = self._state(key)
            counts[index] += 1
            state[1] += value

    def count(self, **labels):
        key = self._key(labels)
        with self._lock:
            state = self._values.get(key)
            return sum(state[0]) if state else 0

    def sum(self, **labels):
        key = self._key(labels)
        with self._lock:
            state = self._values.get(key)
            return state[1] if state else 0.0

    def quantile(self, q, **labels):
        """Upper-bound estimate of the ``q`` quantile (0 < q <= 1)."""
        key = self._key(labels)
        with self._lock:
            state = self._values.get(key)
            counts = list(state[0]) if state else None
        if not counts or not sum(counts):
            return 0.0
        rank = q * sum(counts)
        cumulative = 0
        for bound, count in zip(self.buckets, counts):
            cumulative += count
            if cumulative >= rank:
                return bound
        return self.buckets[-1]  # rank fell in the +Inf bucket

    def _public_value(self, state):
        counts, total = state
        return {"counts": list(counts), "sum": total, "count": sum(counts)}

    def _render(self):
        lines = [
            f"# HELP {self.name} {_escape_help(self.help)}",
            f"# TYPE {self.name} {self.kind}",
        ]
        with self._lock:
            states = sorted(
                (key, list(state[0]), state[1])
                for key, state in self._values.items()
            )
        for key, counts, total in states:
            base = list(zip(self.labelnames, key))
            cumulative = 0
            for bound, count in zip(self.buckets, counts):
                cumulative += count
                block = _label_block(base + [("le", f"{bound:.6g}")])
                lines.append(f"{self.name}_bucket{block} {cumulative}")
            cumulative += counts[-1]
            block = _label_block(base + [("le", "+Inf")])
            lines.append(f"{self.name}_bucket{block} {cumulative}")
            plain = _label_block(base)
            lines.append(f"{self.name}_sum{plain} {_format_value(total)}")
            lines.append(f"{self.name}_count{plain} {cumulative}")
        return lines


class MetricsRegistry:
    """Named metrics behind one lock, rendered as Prometheus text."""

    def __init__(self):
        self._lock = threading.RLock()
        self._metrics = {}

    def counter(self, name, help="", labelnames=()):
        return self._register(Counter, name, help, labelnames)

    def histogram(self, name, help="", labelnames=(),
                  buckets=DEFAULT_TIME_BUCKETS):
        return self._register(
            Histogram, name, help, labelnames, buckets=buckets
        )

    def _register(self, cls, name, help, labelnames, **extra):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls or (
                    existing.labelnames != tuple(labelnames)
                ):
                    raise ValueError(
                        f"metric {name!r} already registered with a "
                        "different signature"
                    )
                return existing
            metric = cls(name, help, labelnames, self._lock, **extra)
            self._metrics[name] = metric
            return metric

    def get(self, name):
        with self._lock:
            return self._metrics.get(name)

    def render(self):
        """Prometheus text format (0.0.4) for every registered metric."""
        with self._lock:
            metrics = sorted(self._metrics.values(), key=lambda m: m.name)
        lines = []
        for metric in metrics:
            lines.extend(metric._render())
        return "\n".join(lines) + ("\n" if lines else "")

