"""Command-line interface: hint, witness, batch-grade, or serve.

Subcommands::

    repro hint --schema schema.json --target target.sql --working wrong.sql
    repro witness --schema schema.json --target target.sql --working wrong.sql
    repro grade-batch --schema schema.json --target target.sql \
                      --submissions subs.json --timeout-ms 5000
    repro grade-batch --workload userstudy --question Q4 --count 200
    repro serve --port 8100 [--schema schema.json --target target.sql]
    repro journal [--url http://host:port] [-n 50]
    repro perfdiff --all --gate 0.5x

``hint`` is the default: invocations that start with a flag (the historic
one-shot interface, ``python -m repro --schema ... --working ...``) are
routed to it unchanged.  ``witness`` produces a tiny executor-verified
database instance on which the wrong and reference queries visibly
disagree.

Exit codes: ``0`` success, ``1`` differential verification failed (or no
witness found), ``2`` any error: bad SQL, input or setting, or a file or
socket error (see :func:`main`).

The schema file maps table names to [name, type] column pairs::

    {"Serves": [["bar", "STRING"], ["beer", "STRING"], ["price", "FLOAT"]]}
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys

from repro.catalog import Catalog
from repro.core.pipeline import QrHint
from repro.engine import appear_equivalent
from repro.errors import ReproError
from repro.solver import Solver
from repro.sqlparser import parse_query

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_ERROR = 2

COMMANDS = (
    "hint", "witness", "grade-batch", "corpus", "serve", "journal",
    "perfdiff",
)


def load_catalog(path):
    with open(path) as handle:
        spec = json.load(handle)
    try:
        return Catalog.from_spec(spec)
    except (KeyError, TypeError, ValueError) as error:
        raise ValueError(f"invalid schema {path}: {error}")


def _read_sql(args, file_attr, inline_attr, label):
    inline = getattr(args, inline_attr)
    if inline:
        return inline
    path = getattr(args, file_attr)
    if not path:
        raise ValueError(f"either --{label} or --{label}-sql is required")
    with open(path) as handle:
        return handle.read()


def _add_schema_target_args(parser, schema_required=True):
    parser.add_argument(
        "--schema", required=schema_required, help="schema JSON file"
    )
    parser.add_argument("--target", help="file with the reference query")
    parser.add_argument("--target-sql", help="reference query inline")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Qr-Hint: actionable hints for fixing a wrong SQL query.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    hint = sub.add_parser(
        "hint", help="hint one wrong query against a reference query (default)"
    )
    _add_schema_target_args(hint)
    hint.add_argument("--working", help="file with the wrong query")
    hint.add_argument("--working-sql", help="wrong query inline")
    hint.add_argument(
        "--show-fixes",
        action="store_true",
        help="also print the internal fixes (normally withheld from students)",
    )
    hint.add_argument(
        "--max-sites", type=int, default=2, help="repair-site cap (default 2)"
    )
    hint.add_argument(
        "--no-optimized",
        action="store_true",
        help="use plain DeriveFixes instead of DeriveFixesOPT",
    )
    hint.add_argument(
        "--verify",
        action="store_true",
        help="differentially verify the repaired query against the target",
    )
    hint.add_argument(
        "--witness-text",
        action="store_true",
        help="when the queries differ, also generate a counterexample "
        "database and anchor the hints to it (\"on this database your "
        "query returns X; the reference returns Y\")",
    )
    hint.add_argument(
        "--trace",
        action="store_true",
        help="record spans for the whole run and print the indented span "
        "tree (pipeline stages, solver solves, theory rounds, witness "
        "generation) after the hints",
    )
    hint.add_argument(
        "--timeout-ms", type=float, default=None, metavar="N",
        help="time budget for the whole grading pipeline; on expiry the "
        "finished stages are reported exactly and the unfinished stage "
        "gets a coarse degraded hint instead of hanging",
    )
    hint.add_argument(
        "--solver-stats",
        action="store_true",
        help="print SAT/SMT solver counters (calls, cache hit-rate, learned "
        "clauses, propagations, conflicts, theory-cache hits, infeasible "
        "truth-table component assignments) after the run",
    )
    hint.set_defaults(func=cmd_hint)

    witness = sub.add_parser(
        "witness",
        help="produce a tiny counterexample database showing the two "
        "queries disagree",
    )
    _add_schema_target_args(witness)
    witness.add_argument("--working", help="file with the wrong query")
    witness.add_argument("--working-sql", help="wrong query inline")
    witness.add_argument(
        "--seed", type=int, default=0,
        help="RNG seed for unconstrained column fills and the fallback "
        "search (default 0; witnesses are deterministic per seed)",
    )
    witness.add_argument(
        "--trials", type=int, default=600,
        help="fallback differential-search budget (default 600)",
    )
    witness.add_argument(
        "--max-rows", type=int, default=3,
        help="per-table row cap on the emitted witness (default 3)",
    )
    witness.add_argument("--json", dest="json_out", help="write witness JSON here")
    witness.set_defaults(func=cmd_witness)

    batch = sub.add_parser(
        "grade-batch",
        help="grade a pile of submissions against one shared target",
    )
    _add_schema_target_args(batch, schema_required=False)
    batch.add_argument(
        "--submissions",
        help="submissions file: JSON list of SQL strings, or JSONL with "
        "one SQL string (or {\"sql\": ...} object) per line",
    )
    batch.add_argument(
        "--workload",
        choices=("userstudy",),
        help="generate submissions from a built-in workload instead of a file",
    )
    batch.add_argument(
        "--question", default="Q4",
        help="userstudy question id for --workload (default Q4)",
    )
    batch.add_argument(
        "--count", type=int, default=200,
        help="number of generated submissions for --workload (default 200)",
    )
    batch.add_argument("--seed", type=int, default=0)
    batch.add_argument(
        "--max-sites", type=int, default=2, help="repair-site cap (default 2)"
    )
    batch.add_argument(
        "--timeout-ms", type=float, default=None, metavar="N",
        help="time budget for each unique form's grading pipeline; a form "
        "that runs out is graded once, and all its submissions get its "
        "degraded result",
    )
    batch.add_argument(
        "--witness", action="store_true",
        help="attach an executor-verified counterexample to every wrong "
        "result",
    )
    batch.add_argument(
        "--show-hints", action="store_true",
        help="print the hint block for every submission",
    )
    batch.add_argument("--json", dest="json_out", help="write results JSON here")
    batch.set_defaults(func=cmd_grade_batch)

    corpus = sub.add_parser(
        "corpus",
        help="generate a ground-truth-labeled corpus of wrong queries and "
        "run it through the batch grader",
    )
    corpus.add_argument(
        "--schemas", default="all",
        help="comma-separated schema sources, or 'all' (default); see "
        "--list-schemas",
    )
    corpus.add_argument(
        "--per-query", type=int, default=10,
        help="mutation seeds per reference query (default 10)",
    )
    corpus.add_argument("--seed", type=int, default=0)
    corpus.add_argument(
        "--max-errors", type=int, default=2,
        help="maximum injected errors per entry (default 2)",
    )
    corpus.add_argument(
        "--max-sites", type=int, default=2, help="repair-site cap (default 2)"
    )
    corpus.add_argument(
        "--witness", action="store_true",
        help="also measure witness coverage on a subsample of flagged entries",
    )
    corpus.add_argument(
        "--witness-limit", type=int, default=40,
        help="witness-coverage subsample size (default 40)",
    )
    corpus.add_argument(
        "--generate-only", action="store_true",
        help="generate (and optionally --dump) without grading",
    )
    corpus.add_argument(
        "--dump", help="write the generated corpus as JSONL here"
    )
    corpus.add_argument(
        "--json", dest="json_out", help="write evaluation metrics JSON here"
    )
    corpus.add_argument(
        "--trace-jsonl", metavar="PATH",
        help="export one span tree per unique graded form as JSON lines",
    )
    corpus.add_argument(
        "--list-schemas", action="store_true",
        help="list the bundled schema sources and exit",
    )
    corpus.set_defaults(func=cmd_corpus)

    serve = sub.add_parser("serve", help="run the HTTP hint service")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8100)
    serve.add_argument(
        "--schema", help="optionally preload an assignment from this schema"
    )
    serve.add_argument("--target", help="file with the preloaded target query")
    serve.add_argument("--target-sql", help="preloaded target query inline")
    serve.add_argument(
        "--assignment-id", default="default",
        help="id for the preloaded assignment (default: 'default')",
    )
    serve.add_argument(
        "--cache-file",
        help="JSON spill file for the preloaded assignment's artifact "
        "cache: loaded at startup (if present) and saved on shutdown, so "
        "canonical-form reports and witnesses survive restarts "
        "(requires --schema)",
    )
    serve.add_argument(
        "--cache-spill-interval", type=float, default=0.0, metavar="SECONDS",
        help="also spill the cache to --cache-file every SECONDS seconds "
        "in the background (atomic temp-file + rename writes), so a crash "
        "loses at most one interval of artifacts (0 disables; requires "
        "--cache-file)",
    )
    serve.add_argument(
        "--slow-ms", type=float, default=None, metavar="N",
        help="trace every request and log those slower than N ms to "
        "stderr together with their span tree",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=None, metavar="N",
        help="admit at most N concurrent work requests; excess load is "
        "shed with 503 + Retry-After (default: unbounded)",
    )
    serve.add_argument(
        "--max-queue", type=int, default=0, metavar="N",
        help="let up to N shed-candidates wait briefly for a free slot "
        "before 503 (default 0; needs --max-inflight)",
    )
    serve.add_argument(
        "--queue-timeout", type=float, default=1.0, metavar="SECONDS",
        help="longest a queued request waits for a slot (default 1.0)",
    )
    serve.add_argument(
        "--read-timeout", type=float, default=None, metavar="SECONDS",
        help="socket timeout for reading a request; stalled clients get "
        "408 and their handler thread back (default: none)",
    )
    serve.add_argument(
        "--max-timeout-ms", type=float, default=None, metavar="N",
        help="cap (and default) for per-request timeout_ms grading "
        "budgets (default: uncapped, no default budget)",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=10.0, metavar="SECONDS",
        help="on shutdown, wait up to SECONDS for in-flight requests to "
        "finish before closing (default 10)",
    )
    serve.add_argument("--quiet", action="store_true", help="suppress access log")
    serve.set_defaults(func=cmd_serve)

    journal = sub.add_parser(
        "journal",
        help="dump the flight recorder (this process's, or a running "
        "server's via --url)",
    )
    journal.add_argument(
        "--url", metavar="BASE",
        help="fetch GET BASE/debug/journal from a running hint service "
        "instead of dumping this process's (empty) recorder",
    )
    journal.add_argument(
        "-n", type=int, default=None,
        help="only the most recent N events (default: all buffered)",
    )
    journal.add_argument(
        "--json", dest="json_out", action="store_true",
        help="print raw JSON events instead of the rendered lines",
    )
    journal.set_defaults(func=cmd_journal)

    perfdiff = sub.add_parser(
        "perfdiff",
        help="compare fresh benchmark runs against the committed "
        "BENCH_*.json files (the unified perf-regression sentinel)",
    )
    perfdiff.add_argument(
        "--all", action="store_true",
        help="check every registered benchmark",
    )
    perfdiff.add_argument(
        "--bench", action="append", default=[], metavar="NAME",
        help="benchmark to check (repeatable); see --list",
    )
    perfdiff.add_argument(
        "--gate", default="0.5x", metavar="RATIO",
        help="hard floor for gated higher-is-better metrics, e.g. 0.5x "
        "(default 0.5x)",
    )
    perfdiff.add_argument(
        "--ingest", action="append", default=[], metavar="BENCH_X.json",
        help="use this already-produced run file instead of re-running "
        "its benchmark (repeatable; the benchmark is inferred from the "
        "file name)",
    )
    perfdiff.add_argument(
        "--no-run", action="store_true",
        help="never re-run benchmarks; compare only the --ingest files",
    )
    perfdiff.add_argument(
        "--out-dir", metavar="DIR",
        help="keep the fresh benchmark JSONs here (default: a temp dir "
        "discarded after the comparison); CI uploads these as artifacts",
    )
    perfdiff.add_argument(
        "--json", dest="json_out", metavar="PATH",
        help="also write the full comparison report as JSON here",
    )
    perfdiff.add_argument(
        "--list", action="store_true",
        help="list the registered benchmarks and their metrics, then exit",
    )
    perfdiff.set_defaults(func=cmd_perfdiff)

    return parser


# ----------------------------------------------------------------------
# hint (the historic one-shot path)
# ----------------------------------------------------------------------


def _timeout_ms(args):
    """``--timeout-ms``: None, or a positive finite number of ms."""
    if args.timeout_ms is not None and not 0 < args.timeout_ms < math.inf:
        raise ValueError("--timeout-ms must be positive and finite")
    return args.timeout_ms


def _print_solver_stats(solver):
    snapshot = solver.stats_snapshot()
    print()
    print("Solver stats:")
    for key in sorted(snapshot):
        value = snapshot[key]
        if isinstance(value, float):
            print(f"  {key}: {value:.3f}")
        else:
            print(f"  {key}: {value}")


def cmd_hint(args):
    from contextlib import nullcontext

    from repro.obs import TRACER

    solver = Solver()
    trace_cm = TRACER.trace("hint") if args.trace else nullcontext()
    catalog = load_catalog(args.schema)
    target = parse_query(
        _read_sql(args, "target", "target_sql", "target"), catalog
    )
    working = parse_query(
        _read_sql(args, "working", "working_sql", "working"), catalog
    )
    deadline = None
    if _timeout_ms(args) is not None:
        from repro.service.deadline import Deadline

        deadline = Deadline.after_ms(args.timeout_ms)
    with trace_cm as trace_handle:
        report = QrHint(
            catalog,
            target,
            working,
            max_sites=args.max_sites,
            optimized=not args.no_optimized,
            solver=solver,
            deadline=deadline,
        ).run()
        witness = None
        if args.witness_text and not report.all_passed:
            from repro.witness import generate_witness

            witness = generate_witness(
                catalog, target, working, solver=solver, seed=0
            )

    from repro.service.session import format_report

    code = EXIT_OK
    print(
        format_report(
            report,
            show_fixes=args.show_fixes,
            witness=witness,
            witness_text=args.witness_text,
        )
    )
    if report.degraded:
        print(f"(degraded: time budget exhausted in the "
              f"{report.degraded_stage} stage; rerun with a larger "
              f"--timeout-ms for an exact hint)")
    if args.verify and not report.all_passed and not report.degraded:
        ok = appear_equivalent(
            report.final_query, report.target_query, catalog, trials=60
        )
        print(f"Differential verification: {'PASS' if ok else 'FAIL'}")
        if not ok:
            code = EXIT_VERIFY_FAILED
    if args.trace:
        print()
        print(f"Trace ({trace_handle.trace_id}, "
              f"{trace_handle.duration_ms:.1f}ms):")
        for line in trace_handle.render():
            print(f"  {line}")
    # Stats are printed in exactly one place, whatever the exit path.
    if args.solver_stats:
        _print_solver_stats(solver)
    return code


# ----------------------------------------------------------------------
# witness
# ----------------------------------------------------------------------


def cmd_witness(args):
    from repro.witness import format_witness_lines, generate_witness, witness_to_dict

    catalog = load_catalog(args.schema)
    target = parse_query(
        _read_sql(args, "target", "target_sql", "target"), catalog
    )
    working = parse_query(
        _read_sql(args, "working", "working_sql", "working"), catalog
    )
    witness = generate_witness(
        catalog,
        target,
        working,
        solver=Solver(),
        seed=args.seed,
        max_rows_per_table=args.max_rows,
        trials=args.trials,
    )
    if witness is None:
        print("No witness found: the queries agreed on every candidate "
              "instance (they may be equivalent).")
        return EXIT_VERIFY_FAILED
    print("\n".join(format_witness_lines(witness)))
    print(f"\nsource: {witness.source} "
          f"({'solver model' if witness.source == 'model' else 'guided differential search'}), "
          f"generated in {witness.elapsed:.3f}s")
    if args.json_out:
        with open(args.json_out, "w") as handle:
            json.dump(witness_to_dict(witness), handle, indent=2)
        print(f"wrote {args.json_out}")
    return EXIT_OK


# ----------------------------------------------------------------------
# grade-batch
# ----------------------------------------------------------------------


def _load_submissions(path):
    with open(path) as handle:
        text = handle.read()
    stripped = text.lstrip()
    if stripped.startswith("["):
        items = json.loads(text)
    else:  # JSONL
        items = [json.loads(line) for line in text.splitlines() if line.strip()]
    submissions = []
    for item in items:
        if isinstance(item, str):
            submissions.append(item)
        elif isinstance(item, dict) and isinstance(item.get("sql"), str):
            submissions.append(item["sql"])
        else:
            raise ValueError(f"unsupported submission entry: {item!r}")
    return submissions


def cmd_grade_batch(args):
    from repro.service.batch import GradeError, grade_batch
    from repro.service.session import format_grade_lines

    if args.workload == "userstudy":
        from repro.workloads import dblp, userstudy

        catalog = dblp.catalog()
        question = next(
            (q for q in dblp.QUESTIONS if q.qid == args.question), None
        )
        if question is None:
            raise ValueError(f"unknown userstudy question {args.question!r}")
        target_sql = question.correct_sql
        submissions = userstudy.submission_pool(
            question, count=args.count, seed=args.seed
        )
    else:
        if not args.schema or not args.submissions:
            raise ValueError("grade-batch needs either --workload or "
                             "--schema/--target/--submissions")
        catalog = load_catalog(args.schema)
        target_sql = _read_sql(args, "target", "target_sql", "target")
        submissions = _load_submissions(args.submissions)

    batch = grade_batch(
        catalog,
        target_sql,
        submissions,
        max_sites=args.max_sites,
        witness=args.witness,
        timeout_ms=_timeout_ms(args),
    )
    stats = batch.stats()
    print(f"Graded {stats['submissions']} submissions "
          f"({stats['unique']} unique, {stats['errors']} errors) "
          f"in {stats['elapsed']:.2f}s "
          f"({stats['throughput']:.1f}/s, "
          f"cache hit-rate {stats['cache_hit_rate']:.0%})")
    if args.show_hints:
        for i, result in enumerate(batch.results):
            print(f"\n--- submission {i} ---")
            if isinstance(result, GradeError):
                print(f"error: {result.kind}: {result.error}")
                if result.detail:
                    print(f"  {result.detail}")
            else:
                print("\n".join(format_grade_lines(result)))
    if args.json_out:
        payload = {
            "stats": stats,
            "results": [
                {"error": r.error, "kind": r.kind, "detail": r.detail}
                if isinstance(r, GradeError)
                else r.to_dict()
                for r in batch.results
            ],
        }
        with open(args.json_out, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json_out}")
    return EXIT_OK


# ----------------------------------------------------------------------
# corpus
# ----------------------------------------------------------------------


def cmd_corpus(args):
    from repro.corpus import CorpusGenerator, evaluate_corpus
    from repro.corpus.generator import stage_mix
    from repro.corpus.schemas import bundled_sources

    if args.list_schemas:
        for source in bundled_sources():
            print(f"{source.name}: {len(source.targets)} reference queries")
        return EXIT_OK

    schemas = None
    if args.schemas and args.schemas != "all":
        schemas = tuple(s.strip() for s in args.schemas.split(",") if s.strip())
    generator = CorpusGenerator(
        schemas=schemas, seed=args.seed, max_errors=args.max_errors
    )
    pool = generator.generate_pool(per_query=args.per_query)
    stage_counts = stage_mix(pool)
    schema_names = sorted({entry.schema for entry in pool})
    print(
        f"Generated {len(pool)} wrong queries across "
        f"{len(schema_names)} schema(s) "
        f"({generator.duplicates} duplicates dropped, "
        f"{generator.failures} seeds unusable)"
    )
    print("  stages: " + ", ".join(
        f"{stage} {count}" for stage, count in stage_counts.items()
    ))

    if args.dump:
        with open(args.dump, "w") as handle:
            for entry in pool:
                handle.write(json.dumps(entry.to_dict()) + "\n")
        print(f"wrote {args.dump}")
    if args.generate_only:
        return EXIT_OK
    if not pool:
        raise ValueError("empty corpus")

    result = evaluate_corpus(
        pool,
        schemas=schemas,
        max_sites=args.max_sites,
        witness=args.witness,
        witness_limit=args.witness_limit,
        trace_jsonl=args.trace_jsonl,
    )
    print(
        f"Graded {result.graded}/{result.total} "
        f"({result.errors} errors) in {result.grade_elapsed:.1f}s "
        f"({result.throughput:.2f}/s)"
    )
    print(
        f"  hint coverage {result.hint_coverage:.1%} "
        f"({result.benign} benign mutants) | "
        f"stage recall {result.stage_recall:.3f} | "
        f"exact stage match {result.stage_exact_rate:.1%}"
    )
    if args.witness:
        print(
            f"  witness coverage {result.witness_coverage:.1%} "
            f"({result.witness_found}/{result.witness_attempted} attempted, "
            f"{result.witness_elapsed:.1f}s)"
        )
    if args.trace_jsonl:
        print(f"wrote {args.trace_jsonl}")
    if args.json_out:
        with open(args.json_out, "w") as handle:
            json.dump(result.to_dict(), handle, indent=2)
        print(f"wrote {args.json_out}")
    return EXIT_OK


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------


def cmd_serve(args):
    import os

    from repro.service.server import (
        AdmissionController,
        CacheSpiller,
        HintService,
        serve,
    )

    service = HintService()
    session = None
    if args.schema:
        catalog = load_catalog(args.schema)
        target_sql = _read_sql(args, "target", "target_sql", "target")
        session = service.create_assignment(
            catalog, target_sql, assignment_id=args.assignment_id
        )
        print(f"preloaded assignment {session.assignment_id!r}")
    if args.cache_file:
        if session is None:
            raise ValueError("--cache-file requires a preloaded assignment "
                             "(--schema/--target)")
        if os.path.exists(args.cache_file):
            try:
                count = session.load(args.cache_file)
            except (OSError, ValueError) as error:
                raise ValueError(
                    f"cannot load {args.cache_file}: {error}"
                ) from error
            print(f"restored {count} cached artifact(s) from {args.cache_file}")
    if args.cache_spill_interval and not args.cache_file:
        raise ValueError("--cache-spill-interval requires --cache-file")
    # The constructors and serve() check every setting before anything
    # starts, so a bad value stops the command before a port is bound.
    spiller = None
    if args.cache_spill_interval:
        spiller = CacheSpiller(
            session, args.cache_file, args.cache_spill_interval
        )
    admission = AdmissionController(
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        queue_timeout=args.queue_timeout,
    )
    code = serve(args.host, args.port, service, quiet=args.quiet,
                 spiller=spiller, slow_ms=args.slow_ms,
                 admission=admission, read_timeout=args.read_timeout,
                 max_timeout_ms=args.max_timeout_ms,
                 drain_timeout=args.drain_timeout)
    # A spiller's final flush in serve() is the only shutdown write: after
    # a join timeout its thread may still hold the temp file save() uses.
    if args.cache_file and spiller is None:
        count = session.save(args.cache_file)
        print(f"saved {count} cached artifact(s) to {args.cache_file}")
    return code


# ----------------------------------------------------------------------
# journal
# ----------------------------------------------------------------------


def cmd_journal(args):
    from repro.obs import JOURNAL
    from repro.obs.journal import render_events

    if args.url:
        from urllib.request import urlopen

        url = args.url.rstrip("/") + "/debug/journal"
        if args.n is not None:
            url += f"?n={args.n}"
        try:
            with urlopen(url, timeout=10) as response:
                payload = json.loads(response.read().decode("utf-8"))
        except (OSError, ValueError) as error:  # URLError is an OSError
            raise ValueError(f"cannot fetch {url}: {error}") from error
        if args.json_out:
            print(json.dumps(payload, indent=2))
            return EXIT_OK
        stats = payload.get("journal", {})
        events = payload.get("events", [])
        print(
            f"journal @ {args.url}: {stats.get('size', len(events))} events "
            f"buffered (capacity {stats.get('capacity', '?')}, "
            f"{stats.get('dropped', 0)} dropped)"
        )
        for line in render_events(events):
            print(line)
        return EXIT_OK

    if args.json_out:
        print(json.dumps(
            {"journal": JOURNAL.stats(), "events": JOURNAL.tail(args.n)},
            indent=2,
        ))
        return EXIT_OK
    stats = JOURNAL.stats()
    print(
        f"journal: {stats['size']} events buffered "
        f"(capacity {stats['capacity']}, {stats['dropped']} dropped)"
    )
    for line in JOURNAL.render(args.n):
        print(line)
    return EXIT_OK


# ----------------------------------------------------------------------
# perfdiff
# ----------------------------------------------------------------------


def cmd_perfdiff(args):
    from repro.obs.baseline import (
        BENCHMARKS,
        infer_bench,
        parse_gate,
        perfdiff,
    )

    if args.list:
        for name, spec in BENCHMARKS.items():
            print(f"{name}: {spec.filename} -- {spec.note}")
            for metric in spec.metrics:
                gate_note = "gated" if metric.gated else "ungated"
                print(f"    {metric.path} ({metric.direction}, {gate_note})")
        return EXIT_OK

    gate = parse_gate(args.gate)
    benches = list(BENCHMARKS) if args.all else list(args.bench)
    fresh_docs = {}
    for path in args.ingest:
        bench = infer_bench(path)
        with open(path) as handle:
            fresh_docs[bench] = json.load(handle)
    if not benches:
        benches = list(fresh_docs)
    if not benches:
        raise ValueError("nothing to check; pass --all, --bench, or --ingest")
    unknown = [b for b in benches if b not in BENCHMARKS]
    if unknown:
        raise ValueError(f"unknown benchmark(s): {', '.join(unknown)} "
                         f"(see --list)")

    diff = perfdiff(
        benches,
        gate=gate,
        fresh_docs=fresh_docs,
        run=not args.no_run,
        out_dir=args.out_dir,
    )
    for line in diff.render():
        print(line)
    if args.json_out:
        pathlib.Path(args.json_out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.json_out, "w") as handle:
            json.dump(diff.to_dict(), handle, indent=2)
        print(f"wrote {args.json_out}")
    return EXIT_VERIFY_FAILED if diff.failed else EXIT_OK


# ----------------------------------------------------------------------


def main(argv=None):
    """Run one command; returns its exit code.

    The CLI's one error boundary: a command raises ``ReproError`` (bad
    SQL, a failed repair), ``OSError`` (a file, a socket, a port) or
    ``ValueError`` (a bad input or setting) with the message to show,
    and this prints it as ``error: <message>`` and exits 2.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    # Backward compatibility: flag-first invocations are the historic
    # one-shot interface and route to the ``hint`` subcommand.
    if argv and argv[0] not in COMMANDS and argv[0] not in ("-h", "--help"):
        argv.insert(0, "hint")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
