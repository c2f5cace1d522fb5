"""Prometheus exposition helpers: scrape-time families and a validator.

:func:`service_metric_families` re-homes the existing per-assignment
counters -- ``Solver.stats_snapshot()`` deltas, ``ArtifactCache.stats()``
and session counters -- into Prometheus families at scrape time.  The
hot paths keep their plain dict/int counters (public keys unchanged);
only the exposition layer changes shape.

:func:`parse_prometheus_text` is a strict-enough parser of text format
0.0.4 used by the tests and ``benchmarks/bench_obs.py`` to validate what
``GET /metrics`` serves: sample syntax, TYPE declarations, histogram
bucket monotonicity, the ``+Inf`` bucket, and ``_count`` consistency.
"""

from __future__ import annotations

import math
import re

_METRIC_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_SAMPLE_RE = re.compile(
    rf"^(?P<name>{_METRIC_NAME})"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)"
    r"(?:\s+(?P<timestamp>-?\d+))?$"
)
_LABEL_RE = re.compile(
    rf'({_METRIC_NAME})="((?:[^"\\]|\\.)*)"'
)
_VALID_KINDS = {"counter", "gauge", "histogram", "summary", "untyped"}


def _parse_value(raw):
    if raw == "+Inf":
        return math.inf
    if raw == "-Inf":
        return -math.inf
    return float(raw)  # raises ValueError on garbage, incl. "NaN" typos


def _unescape(value):
    return (
        value.replace(r"\n", "\n").replace(r"\"", '"').replace("\\\\", "\\")
    )


def parse_prometheus_text(text):
    """Parse (and validate) Prometheus text format 0.0.4.

    Returns ``{family_name: {"kind", "help", "samples"}}`` where samples
    are ``(sample_name, labels_dict, value)`` tuples.  Raises
    :class:`ValueError` on malformed lines, samples without a TYPE
    declaration covering them, non-monotone histogram buckets, a missing
    ``+Inf`` bucket, ``_sum`` or ``_count`` samples without buckets, or
    ``_count`` disagreeing with the ``+Inf`` bucket.  A declared histogram
    with no samples yet (nothing observed) is valid, as in Prometheus.
    """
    families = {}
    types = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.rstrip()
        if not line:
            continue
        if line.startswith("# HELP "):
            parts = line.split(None, 3)
            if len(parts) < 3:
                raise ValueError(f"line {lineno}: malformed HELP")
            name = parts[2]
            families.setdefault(
                name, {"kind": None, "help": "", "samples": []}
            )["help"] = parts[3] if len(parts) > 3 else ""
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in _VALID_KINDS:
                raise ValueError(f"line {lineno}: malformed TYPE: {line!r}")
            name = parts[2]
            if name in types:
                raise ValueError(f"line {lineno}: duplicate TYPE for {name}")
            types[name] = parts[3]
            families.setdefault(
                name, {"kind": None, "help": "", "samples": []}
            )["kind"] = parts[3]
            continue
        if line.startswith("#"):
            continue  # comment
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample: {line!r}")
        name = match.group("name")
        labels = {}
        raw_labels = match.group("labels")
        if raw_labels:
            consumed = 0
            for lmatch in _LABEL_RE.finditer(raw_labels):
                labels[lmatch.group(1)] = _unescape(lmatch.group(2))
                consumed = lmatch.end()
                if consumed < len(raw_labels) and raw_labels[consumed] == ",":
                    consumed += 1
            if raw_labels[consumed:].strip():
                raise ValueError(
                    f"line {lineno}: malformed labels: {raw_labels!r}"
                )
        try:
            value = _parse_value(match.group("value"))
        except ValueError:
            raise ValueError(
                f"line {lineno}: malformed value: {match.group('value')!r}"
            )
        family = _family_for_sample(name, types)
        if family is None:
            raise ValueError(
                f"line {lineno}: sample {name!r} has no TYPE declaration"
            )
        families.setdefault(
            family, {"kind": types.get(family), "help": "", "samples": []}
        )["samples"].append((name, labels, value))
    _validate_histograms(families)
    return families


def _family_for_sample(name, types):
    if name in types:
        return name
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            base = name[: -len(suffix)]
            if types.get(base) in ("histogram", "summary"):
                return base
    return None


def _validate_histograms(families):
    for name, family in families.items():
        if family["kind"] != "histogram":
            continue
        series = {}  # non-le labels -> list of (le, value)
        sums = {}
        counts = {}
        for sample_name, labels, value in family["samples"]:
            key = tuple(
                sorted((k, v) for k, v in labels.items() if k != "le")
            )
            if sample_name == f"{name}_bucket":
                if "le" not in labels:
                    raise ValueError(f"{name}: bucket sample without le")
                series.setdefault(key, []).append(
                    (_parse_value(labels["le"]), value)
                )
            elif sample_name == f"{name}_sum":
                sums[key] = value
            elif sample_name == f"{name}_count":
                counts[key] = value
        if (sums.keys() | counts.keys()) - series.keys():
            raise ValueError(f"{name}: _sum or _count without buckets")
        for key, buckets in series.items():
            bounds = [b for b, _ in buckets]
            if bounds != sorted(bounds):
                raise ValueError(f"{name}: bucket bounds out of order")
            values = [v for _, v in buckets]
            if any(b > a for a, b in zip(values[1:], values)):
                raise ValueError(f"{name}: bucket counts not cumulative")
            if bounds[-1] != math.inf:
                raise ValueError(f"{name}: missing +Inf bucket")
            if key not in sums:
                raise ValueError(f"{name}: missing _sum sample")
            if counts.get(key) != values[-1]:
                raise ValueError(
                    f"{name}: _count disagrees with +Inf bucket"
                )


# ---------------------------------------------------------------------------
# Scrape-time families for the HTTP service


def _counter_family(name, help, samples):
    return {"name": name, "kind": "counter", "help": help, "samples": samples}


def _gauge_family(name, help, samples):
    return {"name": name, "kind": "gauge", "help": help, "samples": samples}


def service_metric_families(service):
    """Per-assignment solver/cache/session families for ``GET /metrics``.

    The sample values come straight from the existing public stats
    (``AssignmentSession.stats()``); keys are preserved inside the metric
    names (``repro_solver_sat_calls_total`` <- ``sat_calls`` etc.).
    """
    stats = service.stats()
    families = [
        _gauge_family(
            "repro_service_uptime_seconds",
            "Seconds since the service started.",
            [({}, stats["uptime"])],
        ),
        _gauge_family(
            "repro_service_assignments",
            "Registered assignment sessions.",
            [({}, len(stats["assignments"]))],
        ),
    ]

    session_counters = [
        ("submissions", "repro_session_submissions_total",
         "Submissions graded (including cache hits)."),
        ("pipeline_runs", "repro_session_pipeline_runs_total",
         "Full pipeline executions (cache misses)."),
        ("witness_runs", "repro_session_witness_runs_total",
         "Witness generation runs (cache misses)."),
    ]
    cache_counters = [
        ("hits", "repro_cache_hits_total", "Artifact cache hits."),
        ("misses", "repro_cache_misses_total", "Artifact cache misses."),
        ("evictions", "repro_cache_evictions_total",
         "Artifact cache LRU evictions."),
    ]

    assignments = stats["assignments"]
    for key, name, help in session_counters:
        samples = [
            ({"assignment": aid}, session[key])
            for aid, session in assignments.items()
        ]
        if samples:
            families.append(_counter_family(name, help, samples))
    for key, name, help in cache_counters:
        samples = [
            ({"assignment": aid}, session["cache"][key])
            for aid, session in assignments.items()
        ]
        if samples:
            families.append(_counter_family(name, help, samples))
    cache_sizes = [
        ({"assignment": aid}, session["cache"]["size"])
        for aid, session in assignments.items()
    ]
    if cache_sizes:
        families.append(
            _gauge_family(
                "repro_cache_entries",
                "Artifact cache resident entries.",
                cache_sizes,
            )
        )

    # Solver counters: one family per stats_snapshot() key, the key name
    # preserved verbatim inside the metric name.
    solver_keys = sorted(
        {
            key
            for session in assignments.values()
            for key, value in session["solver"].items()
            if isinstance(value, int)
        }
    )
    for key in solver_keys:
        samples = [
            ({"assignment": aid}, session["solver"].get(key, 0))
            for aid, session in assignments.items()
        ]
        families.append(
            _counter_family(
                f"repro_solver_{key}_total",
                f"Solver {key} since session creation.",
                samples,
            )
        )
    hit_rates = [
        ({"assignment": aid}, session["solver"].get("cache_hit_rate", 0.0))
        for aid, session in assignments.items()
    ]
    if hit_rates:
        families.append(
            _gauge_family(
                "repro_solver_cache_hit_rate",
                "Solver SAT-cache hit rate since session creation.",
                hit_rates,
            )
        )
    return families
