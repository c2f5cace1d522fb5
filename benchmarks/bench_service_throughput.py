"""Throughput benchmark: batch grading vs. the one-shot CLI path.

Simulates the paper's classroom scenario: a duplicate-heavy pile of
userstudy-style submissions (one shared target, formatting/case/alias
variants of the same wrong answers) graded two ways:

* **sequential** -- the historic one-shot path, exactly what looping
  ``repro hint`` per submission pays: fresh solver, target re-parsed,
  full pipeline for every submission;
* **batch** -- ``repro.service.grade_batch``: parse the target once,
  dedupe submissions by canonical form, grade only the unique forms,
  serve the rest from the artifact cache.

Asserts the two paths produce byte-identical hint output and that batch
achieves >= 5x throughput, then writes ``BENCH_service.json``::

    PYTHONPATH=src python benchmarks/bench_service_throughput.py [--full]
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "src"))

from repro.core.pipeline import QrHint
from repro.service import grade_batch
from repro.service.session import format_report
from repro.solver import Solver
from repro.sqlparser.rewrite import parse_query_extended
from repro.workloads import dblp, userstudy

OUT_PATH = pathlib.Path(
    os.environ.get("BENCH_OUT_DIR")
    or pathlib.Path(__file__).parent.parent
) / "BENCH_service.json"
MIN_SPEEDUP = 5.0


def one_shot(catalog, target_sql, submission_sql):
    """The per-request work of the one-shot CLI path."""
    target = parse_query_extended(target_sql, catalog)
    working = parse_query_extended(submission_sql, catalog)
    report = QrHint(catalog, target, working, solver=Solver()).run()
    return format_report(report)


def run_scenario(qid, count, seed):
    question = next(q for q in dblp.QUESTIONS if q.qid == qid)
    catalog = dblp.catalog()
    pool = userstudy.submission_pool(question, count=count, seed=seed)

    started = time.perf_counter()
    sequential = [one_shot(catalog, question.correct_sql, sql) for sql in pool]
    sequential_seconds = time.perf_counter() - started

    batch = grade_batch(catalog, question.correct_sql, pool)
    batch_texts = [result.text() for result in batch.results]

    identical = batch_texts == sequential
    speedup = sequential_seconds / batch.elapsed if batch.elapsed else 0.0
    return {
        "question": qid,
        "submissions": count,
        "unique": batch.unique,
        "cache_hit_rate": batch.cache_hit_rate,
        "sequential_seconds": round(sequential_seconds, 4),
        "batch_seconds": round(batch.elapsed, 4),
        "sequential_qps": round(count / sequential_seconds, 2),
        "batch_qps": round(batch.throughput, 2),
        "speedup": round(speedup, 2),
        "byte_identical": identical,
        "solver": batch.solver_stats,
    }


def run_overload(levels=(1, 4, 16), requests=40, max_inflight=2):
    """Latency and shed rate against a live admission-controlled server.

    Starts the HTTP service with ``max_inflight`` slots (no queue) and
    offers ``requests`` unique grade requests per concurrency level --
    unique WHERE constants, so every admitted request does real pipeline
    work instead of hitting the artifact cache.  Reports p50/p99 latency
    of the *served* requests and the shed rate per offered concurrency:
    with bounded admission, saturating load must show up as 503s, not as
    unbounded latency.
    """
    import statistics
    import threading
    import urllib.error
    import urllib.request
    from concurrent.futures import ThreadPoolExecutor

    from repro.service import make_server
    from repro.service.server import AdmissionController

    server = make_server(
        port=0,
        admission=AdmissionController(max_inflight=max_inflight, max_queue=0),
    )
    host, port = server.server_address[:2]
    base = f"http://{host}:{port}"
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()

    def post(path, payload):
        request = urllib.request.Request(
            base + path,
            json.dumps(payload).encode(),
            {"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=60) as resp:
                return resp.status
        except urllib.error.HTTPError as error:
            error.read()
            return error.code

    out = {}
    try:
        status = post("/assignments", {
            "assignment_id": "overload",
            "schema": {"Serves": [["bar", "STRING"], ["beer", "STRING"],
                                  ["price", "FLOAT"]]},
            "target_sql": "SELECT beer FROM Serves WHERE price > 2",
        })
        assert status == 201, status

        def one(k):
            started = time.perf_counter()
            code = post("/grade", {
                "assignment_id": "overload",
                "sql": f"SELECT beer FROM Serves WHERE price >= {k}",
            })
            return code, (time.perf_counter() - started) * 1000.0

        for offered in levels:
            with ThreadPoolExecutor(max_workers=offered) as pool:
                outcomes = list(pool.map(
                    one, range(offered * 10_000, offered * 10_000 + requests)
                ))
            served = sorted(ms for code, ms in outcomes if code == 200)
            shed = sum(1 for code, _ in outcomes if code == 503)
            level = {
                "offered": offered,
                "requests": requests,
                "served": len(served),
                "shed": shed,
                "shed_rate": round(shed / requests, 4),
                "p50_ms": round(statistics.median(served), 2) if served
                else None,
                "p99_ms": round(
                    served[min(len(served) - 1, int(0.99 * len(served)))], 2
                ) if served else None,
            }
            out[f"c{offered}"] = level
            print(f"overload c{offered}: served {level['served']}/{requests}"
                  f" shed {shed} ({level['shed_rate']:.0%}),"
                  f" p50 {level['p50_ms']}ms p99 {level['p99_ms']}ms")
    finally:
        server.shutdown()
        server.server_close()
    return out


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--count", type=int, default=200,
                        help="submissions in the pile (default 200)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--full", action="store_true",
        help="also run the expensive Q1 scenario (minutes, not seconds)",
    )
    args = parser.parse_args(argv)

    scenarios = {}
    for qid in ("Q4", "Q2"):
        result = run_scenario(qid, args.count, args.seed)
        scenarios[qid] = result
        print(f"{qid}: {result['submissions']} submissions "
              f"({result['unique']} unique), sequential "
              f"{result['sequential_seconds']}s vs batch "
              f"{result['batch_seconds']}s -> {result['speedup']}x, "
              f"cache hit-rate {result['cache_hit_rate']:.0%}, "
              f"byte-identical={result['byte_identical']}")
    if args.full:
        result = run_scenario("Q1", max(20, args.count // 10), args.seed)
        scenarios["Q1"] = result
        print(f"Q1 (full): {result['speedup']}x")

    overload = run_overload()

    headline = scenarios["Q4"]
    payload = {
        "benchmark": "service_throughput",
        "headline_speedup": headline["speedup"],
        "cache_hit_rate": headline["cache_hit_rate"],
        "byte_identical": all(s["byte_identical"] for s in scenarios.values()),
        "scenarios": scenarios,
        "overload": overload,
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUT_PATH}")

    if not payload["byte_identical"]:
        print("FAIL: batch and sequential hint output differ", file=sys.stderr)
        return 1
    if headline["speedup"] < MIN_SPEEDUP:
        print(f"FAIL: speedup {headline['speedup']}x < {MIN_SPEEDUP}x",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
