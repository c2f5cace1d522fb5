"""Batch grader: grade each unique canonical form once, serially or on a pool.

Classroom piles are duplicate-heavy, so the batch grader splits grading
into a cheap front half and an expensive back half:

1. the parent parses + canonicalizes every submission (sub-millisecond
   each) and groups them by canonical form;
2. only the *unique* canonical queries are graded, each through one
   function, :func:`_grade_form`: in the caller's session (the serial
   path), or sharded across a process pool whose workers each hold a
   persistent :class:`~repro.service.session.AssignmentSession` (one
   target parse, one warm solver per worker) and send back the picklable
   :class:`_Outcome` of every form;
3. the parent seeds its own session with the workers' reports and
   witnesses and serves every submission from its cache, so
   per-submission results come out in input order, in each submitter's
   alias namespace, and byte-identical to a sequential run.

Each form's solver-effort delta is folded into the batch statistics.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

from repro.errors import ReproError
from repro.obs import JOURNAL, REGISTRY, TRACER
from repro.obs.effort import (
    EFFORT_KEYS,
    effort_delta,
    effort_snapshot,
    merge_effort,
)
from repro.service.faults import FAULTS
from repro.service.session import _NO_WITNESS, AssignmentSession

_WORKER_RECOVERIES = REGISTRY.counter(
    "repro_worker_recoveries_total",
    "Batch worker fault-recovery events, by kind "
    "(crash, hang, retry_ok, gave_up).",
    ("kind",),
)


@dataclass(frozen=True)
class GradeError:
    """A submission that could not be graded (parse/resolve/pipeline/worker).

    ``detail`` carries the innermost traceback frame of a failure while
    grading a form, on either batch path, so batch errors are diagnosable
    without re-running the form; empty for parse-stage errors (the
    message is the whole story there) and for crashed or hung workers.
    """

    submission_sql: str
    error: str
    kind: str  # exception class name, e.g. "ParseError"
    detail: str = ""


@dataclass(frozen=True)
class _Outcome:
    """What grading one unique form produced; picklable, so a pool worker
    returns it as is."""

    report: object = None  # the pipeline Report; None when the form failed
    error: tuple = None  # (message, kind, innermost frame) on failure
    effort: dict = field(default_factory=dict)  # solver-effort delta
    #: The form's witness cache entry (a witness, or the cached-negative
    #: marker) when this run generated one.
    witness_entry: object = None
    trace: dict = None  # serialized span tree, with ``trace=True``


def _grade_form(session, canonical, witness, trace):
    """Grade one unique canonical form in ``session``; never raises.

    Both batch paths grade every form through here -- the serial path in
    the caller's session, the pool path in a worker's -- so a form's
    report, witness, effort delta and span tree mean the same on either.
    The effort delta and the span tree cover grading and, with
    ``witness``, generating a wrong form's counterexample.  On success
    the report and witness are left in ``session``'s cache; any failure
    (expected ``ReproError``\\s and unexpected bugs alike, e.g.
    ``RepairError`` when no viable repair exists under the site cap) is
    recorded with its class name and innermost frame instead of raised:
    one bad query must not abort the pile.
    """
    before = effort_snapshot(session.solver)
    report = error = witness_entry = None
    scope = (
        TRACER.trace("grade", sql=canonical.to_sql()) if trace
        else nullcontext()
    )
    try:
        with scope:
            report = session.grade_canonical(canonical)
            if witness and not report.all_passed:
                found = session.witness_canonical(canonical)
                witness_entry = _NO_WITNESS if found is None else found
        session.cache.put(canonical, report)
    except Exception as exc:
        report = None
        error = (str(exc), type(exc).__name__, _innermost_frame())
    return _Outcome(
        report=report,
        error=error,
        effort=effort_delta(before, effort_snapshot(session.solver)),
        witness_entry=witness_entry,
        trace=scope.to_dict() if trace else None,
    )


def _innermost_frame():
    """The deepest ``File "...", line N, in f`` frame of the active traceback."""
    for line in reversed(traceback.format_exc().splitlines()):
        if line.lstrip().startswith("File "):
            return line.strip()
    return ""


# Worker-process state ``(session, witness, trace)``, set by ``_init_worker``.
_WORKER = None


def _init_worker(catalog, target, max_sites, witness, trace):
    global _WORKER
    session = AssignmentSession(catalog, target, max_sites=max_sites)
    _WORKER = (session, witness, trace)


def _grade_in_worker(canonical):
    """Pool entry point: the chaos-harness fault hook, then :func:`_grade_form`."""
    if FAULTS.enabled:  # crash/hang this worker on demand
        FAULTS.on_task("batch.worker", payload=canonical.to_sql())
    session, witness, trace = _WORKER
    return _grade_form(session, canonical, witness, trace)


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
    #: :meth:`TraceHandle.to_dict` shape) per unique canonical form whose
    #: grading returned, pipeline failures included (a form that gave up
    #: after worker crashes or hangs has none).
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


def _grade_on_pool(forms, initargs, workers, task_timeout, max_retries,
                   recoveries):
    """Grade ``forms`` on a shared process pool; returns ``{form: _Outcome}``.

    A worker that dies (``BrokenProcessPool`` fails every outstanding
    future) or, with ``task_timeout`` set, a full window in which no
    future completes (a hung worker) ends the shared round: completed
    outcomes are kept and every unfinished form is handed to
    :func:`_isolate_form`.
    """
    executor = ProcessPoolExecutor(
        max_workers=workers,
        mp_context=_pool_context(),
        initializer=_init_worker,
        initargs=initargs,
    )
    futures = {executor.submit(_grade_in_worker, form): form for form in forms}
    outcomes = {}
    outstanding = set(futures)
    reason = None
    try:
        while outstanding and reason is None:
            done, outstanding = wait(
                outstanding, timeout=task_timeout,
                return_when=FIRST_COMPLETED,
            )
            if not done:
                # A full no-progress window: some worker is hung.  Every
                # outstanding form is handed to isolation retries (the
                # hung one will hang again solo and be blamed precisely).
                reason = "hang"
            for future in done:
                try:
                    outcomes[futures[future]] = future.result()
                except Exception:
                    # The worker died (BrokenProcessPool / lost result).
                    # All remaining futures fail the same way, so stop the
                    # round rather than churning through them.
                    reason = "crash"
    finally:
        if reason is None:
            executor.shutdown(wait=True)
        else:
            _kill_executor(executor)
    if reason is not None:
        recoveries["crashes" if reason == "crash" else "hangs"] += 1
        _WORKER_RECOVERIES.inc(kind=reason)
        JOURNAL.record(
            "batch.pool_broken", reason=reason,
            leftovers=len(forms) - len(outcomes),
        )
    for form in forms:
        if form not in outcomes:
            outcomes[form] = _isolate_form(
                form, initargs, task_timeout, max_retries, recoveries
            )
    return outcomes


def _isolate_form(canonical, initargs, task_timeout, max_retries, recoveries):
    """Grade one leftover form alone, retrying on a fresh single worker.

    Shared-pool failures cannot assign blame (a crashed worker fails every
    outstanding future); grading each leftover solo does: an innocent
    collateral form succeeds on the first isolation attempt (counted as
    ``retried_ok``, whatever its grading outcome), the culprit keeps
    failing and, after ``max_retries`` attempts with linear backoff, is
    counted as ``gave_up`` and returned as an outcome carrying the
    worker failure.
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
        future = executor.submit(_grade_in_worker, canonical)
        try:
            outcome = future.result(timeout=task_timeout)
            executor.shutdown(wait=True)
            if attempt > 1:
                _WORKER_RECOVERIES.inc(kind="retry_ok")
            JOURNAL.record("batch.retry_ok", sql=sql, attempt=attempt)
            recoveries["retried_ok"] += 1
            return outcome
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
    recoveries["gave_up"] += 1
    return _Outcome(error=failure)


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
    ``1`` grades serially in-process (same results, no pool: both paths
    grade every unique form through :func:`_grade_form`).  Pass an
    existing ``session`` to reuse its cache across batches.

    ``trace=True`` puts one span tree per graded unique form on
    ``BatchResult.traces``.

    ``witness=True`` attaches an executor-verified counterexample to every
    wrong result.  Each unique wrong form's witness is generated right
    after grading it, in the same session (generation is deterministic
    per seed, so both paths give the same witnesses byte for byte); forms
    already cached by a caller-supplied session fall back to generation
    in the serve loop.

    ``effort=True`` attaches the solver-effort counter delta of grading
    each unique canonical form (and generating its witness) to every
    result served from it; the same deltas sum to
    ``BatchResult.solver_stats``.  Forms served from a pre-warmed cache
    carry an all-zero delta (no solver work was done for them in this
    batch).

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
    recoveries = {"crashes": 0, "hangs": 0, "retried_ok": 0, "gave_up": 0}

    # Back half: grade unique forms, sharded across workers when it pays.
    pooled = processes > 1 and len(pending) > 1
    if pooled:
        initargs = (session.catalog, session.target, session.max_sites,
                    witness, trace)
        outcomes = _grade_on_pool(
            pending, initargs, min(processes, len(pending)), task_timeout,
            max_retries, recoveries,
        )
    else:
        outcomes = {
            canonical: _grade_form(session, canonical, witness, trace)
            for canonical in pending
        }
    solver_stats = {}
    failed = {}  # canonical form -> (message, kind, detail)
    traces = []
    for canonical in pending:
        outcome = outcomes[canonical]
        merge_effort(solver_stats, outcome.effort)
        if outcome.trace is not None:
            traces.append(outcome.trace)
        if outcome.error is not None:
            failed[canonical] = outcome.error
        elif pooled:
            # Install what the worker graded, so the serve loop never
            # re-runs the pipeline or the witness search for this form.
            session.seed(canonical, outcome.report, outcome.witness_entry)

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
        result = session.grade(sql, witness=witness, _prepared=entry)
        if effort:
            graded = outcomes.get(canonical)
            result = replace(
                result,
                effort=(
                    graded.effort if graded is not None
                    else dict.fromkeys(EFFORT_KEYS, 0)
                ),
            )
        results.append(result)
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
