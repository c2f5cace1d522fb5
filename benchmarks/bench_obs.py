"""Observability smoke + overhead gate: tracing must be near-free off.

Two halves, both CI-gated (``repro perfdiff --all`` in the
``perf-sentinel`` job)::

    PYTHONPATH=src python benchmarks/bench_obs.py

1. **Disabled-tracer overhead** on the ``sat_conjunctive`` solver kernel
   (the hot loop every Qr-Hint figure benchmark sits on).  Kernel A runs
   each SAT solve behind the production hot-path guard
   (``if not TRACER.enabled``, the pattern ``repro.solver.smt`` uses);
   kernel B runs the pristine loop.  Rounds are interleaved A/B/A/B so
   thermal drift and scheduler noise hit both sides equally, best-of
   throughput is compared, and the run fails when the guard costs more
   than ``MAX_OVERHEAD`` (2%).

2. **Enabled-journal overhead** on the same kernel: the flight recorder
   is *always on* in production, so its cost on the hot loop is gated at
   the same < 2% bar.  Kernel A runs with ``JOURNAL.enabled`` (the
   production default), kernel B with the journal off; interleaved
   rounds, best-of.  The SAT core records no journal events, so this
   bounds what the always-on recorder costs code that never calls it.

3. **Live-server scrape**: boots the HTTP service on an ephemeral port,
   grades a wrong query with ``"trace": true``, asserts the returned span
   tree covers every pipeline stage plus a solver solve, then fetches
   ``GET /metrics`` and validates the payload with the strict
   :func:`repro.obs.parse_prometheus_text` parser (TYPE coverage,
   histogram bucket monotonicity, ``+Inf``/``_count`` consistency).

Results land in ``BENCH_obs.json`` at the repository root (or in
``$BENCH_OUT_DIR`` when set -- how ``repro perfdiff`` re-runs this
without touching the committed baseline).
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import threading
import time
import urllib.request

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "src"))

from bench_solver_micro import sat_conjunctive_kernel, _conjunctive_clauses, NUM_ATOMS, CHAIN
from repro.obs import JOURNAL, TRACER, parse_prometheus_text
from repro.service import make_server
from repro.solver.sat import SatSolver

OUT_PATH = pathlib.Path(
    os.environ.get("BENCH_OUT_DIR")
    or pathlib.Path(__file__).parent.parent
) / "BENCH_obs.json"

#: CI gate: the disabled tracer may cost at most this fraction of the
#: pristine kernel's throughput.  The enabled journal is held to the
#: same bar.
MAX_OVERHEAD = 0.02

ROUNDS = 9  # interleaved A/B timing rounds per side
ROUND_SECONDS = 0.35


def sat_conjunctive_guarded():
    """The sat_conjunctive loop with the production hot-path guard.

    Mirrors ``Solver._solve``: every SAT solve first checks
    ``TRACER.enabled`` and only enters a span when a trace is active.
    With no trace open (the default) the guard is one attribute read and
    one branch per solve -- the cost this benchmark bounds.
    """
    solver = SatSolver()
    solver.ensure_vars(NUM_ATOMS + CHAIN)
    for clause in _conjunctive_clauses():
        solver.add_clause(clause)
    calls = 0
    while True:
        calls += 1
        if not TRACER.enabled:
            model = solver.solve()
        else:  # pragma: no cover - bench runs with tracing off
            with TRACER.span("solver.solve"):
                model = solver.solve()
        if model is None:
            break
        solver.add_clause(
            [-v if model[v] else v for v in range(1, NUM_ATOMS + 1)]
        )
    expected = 2**NUM_ATOMS + 1
    assert calls == expected, f"enumerated {calls}, expected {expected}"
    return calls


def _round_ops(fn):
    """Ops/sec of ``fn`` over one ~ROUND_SECONDS timing round."""
    reps = 0
    start = time.perf_counter()
    while True:
        fn()
        reps += 1
        elapsed = time.perf_counter() - start
        if elapsed >= ROUND_SECONDS:
            return reps / elapsed


def measure_overhead():
    """Interleaved best-of throughput of guarded vs pristine kernels."""
    assert not TRACER.enabled, "tracer must be disabled for the A/B run"
    guarded = sat_conjunctive_guarded
    pristine = lambda: sat_conjunctive_kernel(SatSolver)  # noqa: E731
    guarded()  # warm-up both sides before timing
    pristine()
    ops_a, ops_b = [], []
    for _ in range(ROUNDS):
        ops_a.append(_round_ops(guarded))
        ops_b.append(_round_ops(pristine))
    best_a, best_b = max(ops_a), max(ops_b)
    overhead = 1.0 - best_a / best_b
    return {
        "guarded_ops_per_sec": round(best_a, 3),
        "pristine_ops_per_sec": round(best_b, 3),
        "overhead": round(overhead, 5),
        "rounds": ROUNDS,
    }


def measure_journal_overhead():
    """Interleaved best-of throughput: journal enabled vs disabled.

    Both sides run the pristine kernel; the only difference is the
    ``JOURNAL.enabled`` flag, so this measures what always-on flight
    recording costs the solver's hot loop in production.
    """
    assert not TRACER.enabled, "tracer must be disabled for the A/B run"
    kernel = lambda: sat_conjunctive_kernel(SatSolver)  # noqa: E731
    saved = JOURNAL.enabled
    try:
        kernel()  # warm-up
        ops_on, ops_off = [], []
        for _ in range(ROUNDS):
            JOURNAL.enabled = True
            ops_on.append(_round_ops(kernel))
            JOURNAL.enabled = False
            ops_off.append(_round_ops(kernel))
        best_on, best_off = max(ops_on), max(ops_off)
        overhead = 1.0 - best_on / best_off
        return {
            "enabled_ops_per_sec": round(best_on, 3),
            "disabled_ops_per_sec": round(best_off, 3),
            "overhead": round(overhead, 5),
            "rounds": ROUNDS,
            "events_buffered": len(JOURNAL),
        }
    finally:
        JOURNAL.enabled = saved
        JOURNAL.clear()


# ----------------------------------------------------------------------
# Live-server scrape smoke
# ----------------------------------------------------------------------

SCHEMA = {"Serves": [["bar", "STRING"], ["beer", "STRING"], ["price", "FLOAT"]]}
# Aggregate target: SPJ queries skip the GROUP BY/HAVING stages, and the
# smoke must see a span for every one of the five pipeline stages.
TARGET = ("SELECT bar, COUNT(beer) FROM Serves WHERE price > 2 "
          "GROUP BY bar HAVING COUNT(beer) > 1")
WRONG = ("SELECT bar, COUNT(beer) FROM Serves WHERE price >= 2 "
         "GROUP BY bar HAVING COUNT(beer) > 2")

#: Families GET /metrics must serve after one traced grade.
REQUIRED_FAMILIES = (
    "repro_http_request_seconds",
    "repro_http_requests_total",
    "repro_grades_total",
    "repro_grade_seconds",
    "repro_stage_seconds",
    "repro_cache_hits_total",
    "repro_cache_misses_total",
    "repro_solver_sat_calls_total",
    "repro_service_uptime_seconds",
)

#: Spans one traced grade must cover (every pipeline stage + a solve).
REQUIRED_SPANS = (
    "grade", "session.grade", "cache.get", "pipeline.run",
    "stage.FROM", "stage.WHERE", "stage.GROUP BY", "stage.HAVING",
    "stage.SELECT", "solver.solve",
)


def _post(base, path, payload):
    request = urllib.request.Request(
        base + path, json.dumps(payload).encode(),
        {"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as resp:
        return json.loads(resp.read())


def scrape_smoke():
    """Boot the service, grade with tracing, validate /metrics."""
    server = make_server(port=0)
    host, port = server.server_address[:2]
    base = f"http://{host}:{port}"
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        created = _post(base, "/assignments",
                        {"schema": SCHEMA, "target_sql": TARGET})
        body = _post(base, "/grade", {
            "assignment_id": created["assignment_id"],
            "sql": WRONG,
            "trace": True,
        })
        assert not body["all_passed"]
        names = [span["name"] for span in body["trace"]["spans"]]
        for span in REQUIRED_SPANS:
            assert span in names, f"traced grade missing span {span!r}"
        with urllib.request.urlopen(base + "/metrics") as resp:
            content_type = resp.headers.get("Content-Type")
            text = resp.read().decode()
        assert content_type.startswith("text/plain"), content_type
        families = parse_prometheus_text(text)  # raises on malformed text
        for family in REQUIRED_FAMILIES:
            assert family in families, f"/metrics missing family {family}"
        return {
            "families": len(families),
            "trace_spans": len(names),
            "bytes": len(text),
        }
    finally:
        server.shutdown()
        server.server_close()


def main():
    overhead = measure_overhead()
    print(
        f"  guarded  {overhead['guarded_ops_per_sec']:.1f} ops/s\n"
        f"  pristine {overhead['pristine_ops_per_sec']:.1f} ops/s\n"
        f"  overhead {overhead['overhead'] * 100:.2f}% "
        f"(gate: < {MAX_OVERHEAD * 100:.0f}%)"
    )
    assert overhead["overhead"] < MAX_OVERHEAD, (
        f"disabled-tracer overhead {overhead['overhead'] * 100:.2f}% "
        f"exceeds the {MAX_OVERHEAD * 100:.0f}% bar"
    )

    journal_overhead = measure_journal_overhead()
    print(
        f"  journal on  {journal_overhead['enabled_ops_per_sec']:.1f} ops/s\n"
        f"  journal off {journal_overhead['disabled_ops_per_sec']:.1f} ops/s\n"
        f"  overhead {journal_overhead['overhead'] * 100:.2f}% "
        f"(gate: < {MAX_OVERHEAD * 100:.0f}%)"
    )
    assert journal_overhead["overhead"] < MAX_OVERHEAD, (
        f"enabled-journal overhead "
        f"{journal_overhead['overhead'] * 100:.2f}% "
        f"exceeds the {MAX_OVERHEAD * 100:.0f}% bar"
    )

    smoke = scrape_smoke()
    print(
        f"  /metrics: {smoke['families']} families, "
        f"{smoke['bytes']} bytes; traced grade: "
        f"{smoke['trace_spans']} spans"
    )

    payload = {
        "python": sys.version.split()[0],
        "overhead": overhead,
        "journal_overhead": journal_overhead,
        "scrape": smoke,
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUT_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
