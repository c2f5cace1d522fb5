"""Witness coverage + latency benchmark over the userstudy submission pool.

For each study question, a duplicate-heavy classroom pile is graded with
witnesses enabled; every *gradeable wrong* submission should come back
with a counterexample instance that is (a) independently re-verified here
by rebuilding the database and executing the original submission and the
reference query on it, and (b) shrunk to at most 3 rows per table.

Writes ``BENCH_witness.json``::

    PYTHONPATH=src python benchmarks/bench_witness.py [--count 150] [--full]

Asserts coverage >= 90% of gradeable wrong submissions, a 100%
verification rate over emitted witnesses, and the per-table row cap.
``--full`` adds the expensive Q1 scenario (8-way self-join).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "src"))

from repro.engine.database import Database
from repro.engine.executor import bag_equal, execute
from repro.errors import ReproError
from repro.service import AssignmentSession
from repro.sqlparser import parse_query
from repro.workloads import dblp, userstudy

OUT_PATH = pathlib.Path(
    os.environ.get("BENCH_OUT_DIR")
    or pathlib.Path(__file__).parent.parent
) / "BENCH_witness.json"
MIN_COVERAGE = 0.9
MAX_ROWS_PER_TABLE = 3


def _reverify(witness, catalog, target_sql, submission_sql):
    """Independently confirm the witness outside the generation path."""
    database = Database(
        catalog,
        {name: [list(row) for row in rows] for name, _, rows in witness.tables},
    )
    target = parse_query(target_sql, catalog)
    submission = parse_query(submission_sql, catalog)
    return not bag_equal(execute(submission, database), execute(target, database))


def run_question(qid, count, seed):
    question = next(q for q in dblp.QUESTIONS if q.qid == qid)
    catalog = dblp.catalog()
    pool = userstudy.submission_pool(question, count=count, seed=seed)
    session = AssignmentSession(catalog, question.correct_sql)

    wrong = 0
    covered = 0
    verified = 0
    oversized = 0
    latencies = []
    sources = {"model": 0, "search": 0}
    started = time.perf_counter()
    for sql in pool:
        try:
            before = session.witness_runs
            result = session.grade(sql, witness=True)
        except ReproError:
            continue
        if result.all_passed:
            continue
        wrong += 1
        if session.witness_runs > before and result.witness is not None:
            # Uncached generation: Witness.elapsed times generate_witness
            # alone (the pipeline run is accounted to the hint service).
            latencies.append(result.witness.elapsed)
        if result.witness is None:
            continue
        if result.witness.max_rows > MAX_ROWS_PER_TABLE:
            oversized += 1
            continue
        covered += 1
        sources[result.witness.source] += 1
        if _reverify(result.witness, catalog, question.correct_sql, sql):
            verified += 1
    total = time.perf_counter() - started

    coverage = covered / wrong if wrong else 1.0
    verification_rate = verified / covered if covered else 1.0
    latencies.sort()
    return {
        "question": qid,
        "submissions": len(pool),
        "wrong_gradeable": wrong,
        "witnesses": covered,
        "coverage": round(coverage, 4),
        "verification_rate": round(verification_rate, 4),
        "oversized_rejected": oversized,
        "sources": sources,
        "witness_runs": session.witness_runs,
        "latency_mean_s": round(sum(latencies) / len(latencies), 4) if latencies else 0.0,
        "latency_max_s": round(latencies[-1], 4) if latencies else 0.0,
        "elapsed_s": round(total, 4),
        "cache": session.cache.stats(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--count", type=int, default=150,
                        help="submissions per question (default 150)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--full", action="store_true",
        help="also run the expensive Q1 scenario (8-way self-join)",
    )
    args = parser.parse_args(argv)

    questions = ["Q2", "Q3", "Q4"] + (["Q1"] if args.full else [])
    scenarios = {}
    for qid in questions:
        result = run_question(qid, args.count, args.seed)
        scenarios[qid] = result
        print(f"{qid}: {result['wrong_gradeable']} wrong submissions, "
              f"coverage {result['coverage']:.0%}, "
              f"verified {result['verification_rate']:.0%}, "
              f"sources {result['sources']}, "
              f"witness latency mean {result['latency_mean_s']}s "
              f"(max {result['latency_max_s']}s)")

    total_wrong = sum(s["wrong_gradeable"] for s in scenarios.values())
    total_covered = sum(s["witnesses"] for s in scenarios.values())
    coverage = total_covered / total_wrong if total_wrong else 1.0
    verification = all(
        s["verification_rate"] == 1.0 for s in scenarios.values()
    )
    payload = {
        "benchmark": "witness_coverage",
        "coverage": round(coverage, 4),
        "verification_rate": 1.0 if verification else min(
            s["verification_rate"] for s in scenarios.values()
        ),
        "max_rows_per_table": MAX_ROWS_PER_TABLE,
        "scenarios": scenarios,
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUT_PATH}")

    if coverage < MIN_COVERAGE:
        print(f"FAIL: witness coverage {coverage:.0%} < {MIN_COVERAGE:.0%}",
              file=sys.stderr)
        return 1
    if not verification:
        print("FAIL: an emitted witness failed independent re-verification",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
