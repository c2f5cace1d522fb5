"""Per-request solver-effort attribution: counter snapshot/delta plumbing.

Wall-clock latency says a grade was slow; *effort* says why: how many
SAT solves, propagations, conflicts, theory rounds, learned clauses and
infeasible truth-table assignments the solver burned serving it.  This module
snapshots the existing ``Solver.stats_snapshot()`` counters around a
unit of work and reports the delta, at request, batch-form and
pipeline-stage granularity:

* ``session.grade(..., effort=True)`` attaches the per-request delta to
  the :class:`~repro.service.session.GradeResult` (HTTP ``"effort":
  true`` returns it in the response body);
* ``grade_batch`` measures each unique form it grades (and its witness),
  on either batch path; the deltas sum to ``BatchResult.solver_stats``
  and, with ``effort=True``, ride on every result served from the form;
* each ``stage.<NAME>`` pipeline span carries the stage's nonzero
  counter deltas as an ``effort`` attribute while a trace is active;
* the HTTP server aggregates every grade's delta per route into the
  ``repro_solver_effort_total{route,counter}`` family on ``/metrics``;
* ``corpus.evaluate`` aggregates per-mutation-kind means into the
  ``effort`` block of ``by_kind`` (the ROADMAP's open solver-effort
  attribution dimension).

Snapshots are plain dicts of ints -- JSON-safe, mergeable, and cheap
(one dict copy per boundary), so always-on per-route aggregation costs
two copies per request.
"""

from __future__ import annotations

#: The attribution counters, in reporting order.  A stable subset of
#: ``Solver.stats_snapshot()``: every int counter that measures *work*
#: (cache_hit_rate is derived, so it is excluded).
EFFORT_KEYS = (
    "sat_calls",
    "propagations",
    "conflicts",
    "theory_calls",
    "theory_cache_hits",
    "cache_hits",
    "learned_clauses",
    "core_pruned_subtrees",
)


def effort_snapshot(solver):
    """Point-in-time copy of the solver's effort counters (ints only)."""
    snapshot = solver.stats_snapshot()
    return {
        key: value
        for key, value in snapshot.items()
        if isinstance(value, int)
    }


def effort_delta(before, after):
    """``after - before`` per int counter; EFFORT_KEYS first, in order.

    Derived float entries of ``after`` (``cache_hit_rate``) are skipped.
    """
    out = {}
    for key in EFFORT_KEYS:
        if key in after:
            out[key] = after[key] - before.get(key, 0)
    for key, value in after.items():
        if key not in out and isinstance(value, int):
            out[key] = value - before.get(key, 0)
    return out


def nonzero(delta):
    """The nonzero entries of a delta (span attributes, compact JSON)."""
    return {key: value for key, value in delta.items() if value}


def merge_effort(total, delta):
    """Fold one delta into a running total (in place); returns the total."""
    for key, value in delta.items():
        total[key] = total.get(key, 0) + value
    return total


def mean_effort(deltas, keys=EFFORT_KEYS, digits=1):
    """Per-counter means over a list of deltas (corpus ``by_kind`` block).

    Only ``keys`` present in at least one delta are reported, so the
    block tracks the solver's real counter set instead of hard-coding
    one.
    """
    if not deltas:
        return {}
    out = {}
    for key in keys:
        values = [delta[key] for delta in deltas if key in delta]
        if values:
            out[key] = round(sum(values) / len(deltas), digits)
    return out


def record_route_effort(route, delta, registry=None):
    """Aggregate one request's effort delta into ``/metrics``.

    One counter family, ``repro_solver_effort_total``, labeled by route
    and counter name -- both label sets are bounded (routes by the
    server's known-route guard, counters by EFFORT_KEYS), so cardinality
    stays fixed no matter the traffic.
    """
    if registry is None:
        from repro.obs import REGISTRY as registry  # lazy: avoids a cycle
    counter = registry.counter(
        "repro_solver_effort_total",
        "Solver effort counters attributed to the serving route.",
        ("route", "counter"),
    )
    for key in EFFORT_KEYS:
        value = delta.get(key, 0)
        if value > 0:
            counter.inc(value, route=route, counter=key)
    return counter
