"""Multiprocessing batch grader: shard unique submissions across workers.

Classroom piles are duplicate-heavy, so the batch grader splits grading
into a cheap front half and an expensive back half:

1. the parent parses + canonicalizes every submission (sub-millisecond
   each) and groups them by canonical form;
2. only the *unique* canonical queries are graded -- sharded across a
   process pool, each worker holding a persistent
   :class:`~repro.service.session.AssignmentSession` (one target parse,
   one warm solver per worker);
3. the parent seeds its own session cache with the worker reports and
   serves every submission from it, so per-submission results come out in
   input order, in each submitter's alias namespace, and byte-identical
   to a sequential run.

Per-worker solver counter deltas are merged into the batch statistics.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace

from repro.errors import ReproError
from repro.obs import JOURNAL, REGISTRY, TRACER, snapshot_delta
from repro.obs.effort import (
    EFFORT_KEYS,
    effort_delta,
    effort_snapshot,
    merge_effort,
)
from repro.service.faults import FAULTS
from repro.service.session import AssignmentSession

_WORKER_RECOVERIES = REGISTRY.counter(
    "repro_worker_recoveries_total",
    "Batch worker fault-recovery events, by kind "
    "(crash, hang, retry_ok, gave_up).",
    ("kind",),
)


@dataclass(frozen=True)
class GradeError:
    """A submission that could not be graded (parse/resolve/pipeline/worker).

    ``detail`` carries the innermost traceback frame of worker-side
    failures so batch errors are diagnosable from the parent without
    re-running the form; empty for parse-stage errors raised in the
    parent (the message is the whole story there).
    """

    submission_sql: str
    error: str
    kind: str  # exception class name, e.g. "ParseError"
    detail: str = ""

# Worker-process state, created once per worker by ``_init_worker``.
_WORKER_SESSION = None
_WORKER_WITNESS = False
_WORKER_TRACE = False


def _init_worker(catalog, target, max_sites, witness=False, trace=False):
    global _WORKER_SESSION, _WORKER_WITNESS, _WORKER_TRACE
    _WORKER_SESSION = AssignmentSession(catalog, target, max_sites=max_sites)
    _WORKER_WITNESS = witness
    _WORKER_TRACE = trace


def _grade_unique(canonical):
    """Grade one canonical query in a worker.

    Returns ``(report_or_None, error_or_None, solver_delta,
    witness_cache_entry_or_None, metrics_delta, trace_dict_or_None)``.
    Pipeline failures (e.g. ``RepairError`` when no viable repair exists
    under the site cap) are captured per-submission, never raised: one
    unrepairable query must not abort the rest of the pile.

    The worker's registry metrics (stage/grade histograms) are shipped
    back as a :func:`snapshot_delta` for the parent to merge, and with
    ``trace=True`` the whole run is captured as a serialized span tree
    for the parent to re-parent -- the same delta-merge discipline as the
    solver counter snapshot.

    When the pool was initialized with ``witness=True``, a wrong report's
    counterexample is generated here too -- the expensive half of witness
    construction rides the same shards as grading instead of serializing
    in the parent afterwards.  The raw cache entry (witness object, or
    the cached-negative sentinel) is returned so the parent can seed its
    cache with it verbatim; witnesses are deterministic per seed, so the
    output is byte-identical to a serial run.
    """
    session = _WORKER_SESSION
    if FAULTS.enabled:  # chaos harness: crash/hang this worker on demand
        FAULTS.on_task("batch.worker", payload=canonical.to_sql())
    before = session.solver.stats_snapshot()
    metrics_before = REGISTRY.snapshot()
    report, error, witness_entry, trace_dict = None, None, None, None
    handle = (
        TRACER.trace("grade", sql=canonical.to_sql())
        if _WORKER_TRACE
        else None
    )
    try:
        if handle is not None:
            handle.__enter__()
        try:
            report = session.grade_canonical(canonical)
            if _WORKER_WITNESS and not report.all_passed:
                session.witness_canonical(canonical)
                witness_entry = session.cache.get(("witness", canonical))
        finally:
            if handle is not None:
                handle.__exit__(None, None, None)
                trace_dict = handle.to_dict()
    except Exception as exc:
        # Any failure -- expected ReproErrors and unexpected bugs alike --
        # is captured per-form rather than raised: one bad query must not
        # abort the pile, and the parent needs enough context (class name
        # plus the innermost frame) to diagnose without re-running.
        error = (str(exc), type(exc).__name__, _innermost_frame())
    after = session.solver.stats_snapshot()
    metrics_delta = snapshot_delta(metrics_before, REGISTRY.snapshot())
    return (
        report,
        error,
        effort_delta(before, after),
        witness_entry,
        metrics_delta,
        trace_dict,
    )


def _innermost_frame():
    """The deepest ``File "...", line N, in f`` frame of the active traceback."""
    for line in reversed(traceback.format_exc().splitlines()):
        if line.lstrip().startswith("File "):
            return line.strip()
    return ""


@dataclass
class BatchResult:
    """Outcome of one batch grading run."""

    results: list  # GradeResult | GradeError per submission, input order
    elapsed: float
    unique: int  # distinct canonical forms attempted
    processes: int
    unique_failed: int = 0  # canonical forms whose pipeline run failed
    solver_stats: dict = field(default_factory=dict)
    cache_stats: dict = field(default_factory=dict)
    #: With ``trace=True``: one serialized span tree (the
    #: :meth:`TraceHandle.to_dict` shape) per successfully graded unique
    #: canonical form.
    traces: list = field(default_factory=list)
    #: Worker fault-recovery tallies for this run: ``crashes`` (pool
    #: rounds broken by a dead worker), ``hangs`` (no-progress windows
    #: that tripped ``task_timeout``), ``retried_ok`` (forms recovered by
    #: an isolation retry), ``gave_up`` (forms recorded as
    #: :class:`GradeError` after exhausting retries).
    recoveries: dict = field(default_factory=dict)

    @property
    def submissions(self):
        return len(self.results)

    @property
    def errors(self):
        return sum(1 for r in self.results if isinstance(r, GradeError))

    @property
    def throughput(self):
        return self.submissions / self.elapsed if self.elapsed else 0.0

    @property
    def cache_hit_rate(self):
        """Share of graded submissions served without a pipeline run.

        Only *successfully* graded forms count on either side: failed
        forms appear in ``unique`` but none of their submissions are
        graded, so they must not skew the ratio.
        """
        graded = self.submissions - self.errors
        if not graded:
            return 0.0
        return max(0.0, 1.0 - (self.unique - self.unique_failed) / graded)

    def stats(self):
        return {
            "submissions": self.submissions,
            "unique": self.unique,
            "errors": self.errors,
            "processes": self.processes,
            "elapsed": self.elapsed,
            "throughput": self.throughput,
            "cache_hit_rate": self.cache_hit_rate,
            "cache": self.cache_stats,
            "solver": self.solver_stats,
            "recoveries": dict(self.recoveries),
        }


def _pool_context():
    # fork keeps the parsed catalog shared copy-on-write where available.
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        return multiprocessing.get_context("spawn")


def _kill_executor(executor):
    """Tear down an executor that may hold hung or dead workers.

    ``shutdown`` alone would join hung workers forever; terminate the
    processes first, then reap them with a bounded join.
    """
    processes = list(getattr(executor, "_processes", {}).values())
    for proc in processes:
        if proc.is_alive():
            proc.terminate()
    executor.shutdown(wait=False, cancel_futures=True)
    for proc in processes:
        proc.join(timeout=5)


def _pool_round(indices, pending, initargs, workers, task_timeout, graded):
    """One shared-pool grading round over ``indices`` into ``pending``.

    Completed forms land in ``graded`` (index -> worker result tuple).
    Returns ``(leftover_indices, reason)``: forms not completed because a
    worker died (``BrokenProcessPool`` fails every outstanding future) or
    because no future completed within a ``task_timeout`` window (a hung
    worker; only detected when a timeout was given).  ``reason`` is None
    on a clean round, else ``"crash"`` / ``"hang"``.
    """
    executor = ProcessPoolExecutor(
        max_workers=workers,
        mp_context=_pool_context(),
        initializer=_init_worker,
        initargs=initargs,
    )
    futures = {
        executor.submit(_grade_unique, pending[i]): i for i in indices
    }
    outstanding = set(futures)
    reason = None
    try:
        while outstanding:
            done, not_done = wait(
                outstanding, timeout=task_timeout,
                return_when=FIRST_COMPLETED,
            )
            if not done:
                # A full no-progress window: some worker is hung.  Every
                # outstanding form is handed to isolation retries (the
                # hung one will hang again solo and be blamed precisely).
                reason = "hang"
                break
            for future in done:
                try:
                    graded[futures[future]] = future.result()
                except Exception:
                    # The worker died (BrokenProcessPool / lost result).
                    # All remaining futures fail the same way, so stop the
                    # round rather than churning through them.
                    reason = "crash"
            outstanding = not_done
            if reason is not None:
                break
    finally:
        if reason is None:
            executor.shutdown(wait=True)
        else:
            _kill_executor(executor)
    leftovers = sorted(
        futures[f] for f in futures
        if futures[f] not in graded
    )
    return leftovers, reason


def _isolate_form(canonical, initargs, task_timeout, max_retries):
    """Grade one leftover form alone, retrying on a fresh single worker.

    Shared-pool failures cannot assign blame (a crashed worker fails every
    outstanding future); grading each leftover solo does: an innocent
    collateral form succeeds on the first isolation attempt, the culprit
    keeps failing and is recorded as an error tuple after ``max_retries``
    attempts with linear backoff.  Returns the worker result tuple on
    success, else ``(message, kind, detail)``.
    """
    sql = canonical.to_sql()
    failure = ("worker failed before reporting", "WorkerCrashError", "")
    for attempt in range(1, max_retries + 1):
        executor = ProcessPoolExecutor(
            max_workers=1,
            mp_context=_pool_context(),
            initializer=_init_worker,
            initargs=initargs,
        )
        future = executor.submit(_grade_unique, canonical)
        try:
            result = future.result(timeout=task_timeout)
            executor.shutdown(wait=True)
            if attempt > 1:
                _WORKER_RECOVERIES.inc(kind="retry_ok")
            JOURNAL.record("batch.retry_ok", sql=sql, attempt=attempt)
            return result
        except FuturesTimeoutError:
            failure = (
                f"worker hung grading this form (> {task_timeout:g}s)",
                "WorkerTimeoutError",
                "",
            )
        except BrokenProcessPool:
            failure = (
                "worker process died grading this form",
                "WorkerCrashError",
                "",
            )
        except Exception as exc:  # e.g. an unpicklable result
            failure = (str(exc), type(exc).__name__, "")
        _kill_executor(executor)
        JOURNAL.record(
            "batch.retry", sql=sql, attempt=attempt, error=failure[1]
        )
        if attempt < max_retries:
            time.sleep(0.05 * attempt)  # linear backoff before respawn
    _WORKER_RECOVERIES.inc(kind="gave_up")
    JOURNAL.record("batch.gave_up", sql=sql, error=failure[1])
    return failure


def grade_batch(
    catalog,
    target,
    submissions,
    *,
    processes=None,
    max_sites=2,
    session=None,
    witness=False,
    trace=False,
    effort=False,
    task_timeout=None,
    max_retries=2,
):
    """Grade ``submissions`` (SQL strings) against one shared ``target``.

    ``processes=None`` picks ``min(cpu_count, unique forms)``; ``0`` or
    ``1`` grades serially in-process (same results, no pool).  Pass an
    existing ``session`` to reuse its cache across batches.

    ``trace=True`` captures one span tree per graded unique form on
    ``BatchResult.traces`` -- serialized in the worker processes and
    re-parented into the parent's active trace (when one is open).

    ``witness=True`` attaches an executor-verified counterexample to every
    wrong result.  Witness construction for the unique forms is sharded
    over the same worker pool as grading (generation is deterministic per
    seed, so the output matches a serial run byte for byte); forms already
    cached by a caller-supplied session fall back to generation in the
    serve loop.

    ``effort=True`` attaches the solver-effort counter delta of grading
    each unique canonical form to every result served from it.  The
    per-form deltas the workers already ship back for the solver-stats
    merge double as the attribution source, so effort costs nothing
    extra in the pool path; forms served from a pre-warmed cache carry
    an all-zero delta (no solver work was done for them in this batch).

    The pool path is crash-tolerant: a worker that dies (or, with
    ``task_timeout`` set, makes no progress for a full window) fails only
    its own round -- completed results are kept, and every unfinished
    form is re-graded alone on a fresh single worker, up to
    ``max_retries`` attempts with backoff.  Forms that keep failing are
    recorded as per-submission :class:`GradeError`\\s
    (``WorkerCrashError`` / ``WorkerTimeoutError``) instead of aborting
    the pile.  ``task_timeout=None`` (the default) disables hang
    detection; crash detection is always on.
    """
    start = time.perf_counter()
    if session is None:
        session = AssignmentSession(
            catalog, target, max_sites=max_sites,
            cache_size=max(256, 2 * len(submissions) + 1),
        )

    # Front half: dedupe by canonical form (cheap, stays in the parent).
    prepared = []
    unique = {}
    for sql in submissions:
        try:
            canonical, inverse = session.prepare(sql)
        except ReproError as error:
            prepared.append(GradeError(sql, str(error), type(error).__name__))
            continue
        prepared.append((canonical, inverse))
        if canonical not in unique and canonical not in session.cache:
            unique[canonical] = None
    # A caller-supplied session may have a smaller cache than this pile
    # has forms; grow it so every form referenced here (seeded now or
    # already cached) survives until the serve loop.  With witnesses each
    # wrong form occupies a second slot under ("witness", canonical).
    distinct_forms = {
        entry[0] for entry in prepared if not isinstance(entry, GradeError)
    }
    session.cache.maxsize = max(
        session.cache.maxsize,
        (2 if witness else 1) * len(distinct_forms) + 16,
    )

    pending = list(unique)
    if processes is None:
        processes = min(os.cpu_count() or 1, max(1, len(pending)))
    solver_stats = {}
    failed = {}  # canonical form -> (message, kind) for unrepairable piles
    traces = []
    form_efforts = {}  # canonical form -> effort delta of grading it

    recoveries = {"crashes": 0, "hangs": 0, "retried_ok": 0, "gave_up": 0}

    # Back half: grade unique forms, sharded across workers when it pays.
    if processes > 1 and len(pending) > 1:
        initargs = (session.catalog, session.target, session.max_sites,
                    witness, trace)
        graded_by_index = {}
        leftovers, reason = _pool_round(
            list(range(len(pending))), pending, initargs,
            min(processes, len(pending)), task_timeout, graded_by_index,
        )
        if reason is not None:
            recoveries["crashes" if reason == "crash" else "hangs"] += 1
            _WORKER_RECOVERIES.inc(kind=reason)
            JOURNAL.record(
                "batch.pool_broken", reason=reason, leftovers=len(leftovers)
            )
        for index in leftovers:
            outcome = _isolate_form(
                pending[index], initargs, task_timeout, max_retries
            )
            if len(outcome) == 3:  # (message, kind, detail) failure tuple
                failed[pending[index]] = outcome
                continue
            recoveries["retried_ok"] += 1
            graded_by_index[index] = outcome
        recoveries["gave_up"] = len(failed)
        graded = [graded_by_index.get(i) for i in range(len(pending))]
        for canonical, entry in zip(pending, graded):
            if entry is None:  # recorded in ``failed`` by isolation retries
                continue
            (
                report, error, delta, witness_entry, metrics_delta,
                trace_dict,
            ) = entry
            merge_effort(solver_stats, delta)
            REGISTRY.merge(metrics_delta)
            if trace_dict is not None:
                traces.append(trace_dict)
                # Graft the worker's spans into the parent's trace, when
                # one is open (e.g. corpus eval under --trace-jsonl).
                TRACER.adopt(trace_dict)
            if error is not None:
                failed[canonical] = error
                continue
            if effort:
                form_efforts[canonical] = delta  # the worker's delta
            session.seed(canonical, report)
            session.pipeline_runs += 1
            session.pipeline_elapsed_total += report.elapsed
            if witness_entry is not None:
                # Seed the worker's witness (or cached-negative sentinel)
                # so the serve loop never regenerates it.
                session.cache.put(("witness", canonical), witness_entry)
                session.witness_runs += 1
    else:
        before = session.solver.stats_snapshot()
        for canonical in pending:
            form_before = effort_snapshot(session.solver) if effort else None
            handle = (
                TRACER.trace("grade", sql=canonical.to_sql())
                if trace
                else None
            )
            try:
                if handle is not None:
                    handle.__enter__()
                try:
                    report = session.grade_canonical(canonical)
                finally:
                    if handle is not None:
                        handle.__exit__(None, None, None)
                        traces.append(handle.to_dict())
                session.seed(canonical, report)
                if effort:
                    form_efforts[canonical] = effort_delta(
                        form_before, effort_snapshot(session.solver)
                    )
            except Exception as exc:  # per form, as ``_grade_unique``
                failed[canonical] = (
                    str(exc), type(exc).__name__, _innermost_frame()
                )
        merge_effort(
            solver_stats,
            effort_delta(before, session.solver.stats_snapshot()),
        )

    # Serve every submission from the warm cache, preserving input order.
    results = []
    for sql, entry in zip(submissions, prepared):
        if isinstance(entry, GradeError):
            results.append(entry)
            continue
        canonical, _ = entry
        if canonical in failed:
            message, kind, detail = failed[canonical]
            results.append(GradeError(sql, message, kind, detail))
            continue
        outcome = session.grade(sql, witness=witness, _prepared=entry)
        if effort:
            outcome = replace(
                outcome,
                effort=form_efforts.get(
                    canonical, dict.fromkeys(EFFORT_KEYS, 0)
                ),
            )
        results.append(outcome)
    return BatchResult(
        results=results,
        elapsed=time.perf_counter() - start,
        unique=len(pending),
        processes=processes,
        unique_failed=len(failed),
        solver_stats=solver_stats,
        cache_stats=session.cache.stats(),
        traces=traces,
        recoveries=recoveries,
    )
