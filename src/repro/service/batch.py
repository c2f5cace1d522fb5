"""Batch grader: grade each unique canonical form once, in one session.

Classroom piles are duplicate-heavy, so the batch grader splits grading
into a cheap front half and an expensive back half:

1. parse + canonicalize every submission (sub-millisecond each) and
   group them by canonical form;
2. grade only the *unique* canonical queries, each once through
   :func:`_grade_form` in the caller's session (one target parse, one
   warm solver), each pipeline run under its own deadline when the
   caller sets ``timeout_ms``;
3. serve every submission from that session's cache, so per-submission
   results come out in input order, in each submitter's alias
   namespace, and byte-identical to a sequential run.

Each form's solver-effort delta is folded into the batch statistics.
"""

from __future__ import annotations

import math
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

from repro.errors import ReproError
from repro.obs import TRACER
from repro.obs.effort import (
    EFFORT_KEYS,
    effort_delta,
    effort_snapshot,
    merge_effort,
)
from repro.service.deadline import Deadline
from repro.service.session import AssignmentSession


@dataclass(frozen=True)
class GradeError:
    """A submission that could not be graded (parse/resolve/pipeline).

    ``detail`` carries the innermost traceback frame of a failure while
    grading a form, so batch errors are diagnosable without re-running
    the form; empty for parse-stage errors (the message is the whole
    story there).
    """

    submission_sql: str
    error: str
    kind: str  # exception class name, e.g. "ParseError"
    detail: str = ""


@dataclass(frozen=True)
class _Outcome:
    """What grading one unique form produced."""

    report: object = None  # the pipeline Report; None when the form failed
    error: tuple = None  # (message, kind, innermost frame) on failure
    effort: dict = field(default_factory=dict)  # solver-effort delta
    trace: dict = None  # serialized span tree, with ``trace=True``


def _grade_form(session, canonical, witness, trace, timeout_ms):
    """Grade one unique canonical form in ``session``; never raises.

    The effort delta and the span tree cover grading and, with
    ``witness``, generating a wrong form's counterexample.  With
    ``timeout_ms`` the pipeline run gets its own deadline; a form that
    runs out comes back degraded and gets no witness.  The report (a
    degraded one too, which :func:`grade_batch` drops once served) and
    the witness are left in ``session``'s cache; any failure (expected
    ``ReproError``\\s and unexpected bugs alike, e.g. ``RepairError``
    when no viable repair exists under the site cap) is recorded with
    its class name and innermost frame instead of raised: one bad query
    must not abort the pile.
    """
    before = effort_snapshot(session.solver)
    report = error = None
    scope = (
        TRACER.trace("grade", sql=canonical.to_sql()) if trace
        else nullcontext()
    )
    try:
        with scope:
            deadline = (
                None if timeout_ms is None else Deadline.after_ms(timeout_ms)
            )
            report = session.grade_canonical(canonical, deadline=deadline)
            if witness and not report.all_passed and not report.degraded:
                session.witness_canonical(canonical)
        session.cache.put(canonical, report)
    except Exception as exc:
        report = None
        error = (str(exc), type(exc).__name__, _innermost_frame())
    return _Outcome(
        report=report,
        error=error,
        effort=effort_delta(before, effort_snapshot(session.solver)),
        trace=scope.to_dict() if trace else None,
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
    unique_failed: int = 0  # canonical forms whose pipeline run failed
    solver_stats: dict = field(default_factory=dict)
    cache_stats: dict = field(default_factory=dict)
    #: With ``trace=True``: one serialized span tree (the
    #: :meth:`TraceHandle.to_dict` shape) per unique canonical form
    #: graded, pipeline failures included.
    traces: list = field(default_factory=list)

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
            "elapsed": self.elapsed,
            "throughput": self.throughput,
            "cache_hit_rate": self.cache_hit_rate,
            "cache": self.cache_stats,
            "solver": self.solver_stats,
        }


def grade_batch(
    catalog,
    target,
    submissions,
    *,
    max_sites=2,
    session=None,
    witness=False,
    trace=False,
    effort=False,
    timeout_ms=None,
):
    """Grade ``submissions`` (SQL strings) against one shared ``target``.

    Every unique canonical form is graded once, through
    :func:`_grade_form`, in ``session``; pass an existing session to
    reuse its cache across batches.  A result is ``cached`` unless it is
    the first submission of a form graded in this batch or a submission
    of a degraded form.

    ``trace=True`` puts one span tree per graded unique form on
    ``BatchResult.traces``.

    ``witness=True`` attaches an executor-verified counterexample to every
    wrong result.  Each unique wrong form's witness is generated right
    after grading it, in the same session; forms already cached by a
    caller-supplied session fall back to generation in the serve loop.

    ``effort=True`` attaches the solver-effort counter delta of grading
    each unique canonical form (and generating its witness) to every
    result served from it; the same deltas sum to
    ``BatchResult.solver_stats``.  Forms served from a pre-warmed cache
    carry an all-zero delta (no solver work was done for them in this
    batch).

    ``timeout_ms`` (positive and finite, else ``ValueError``) gives each
    unique form's pipeline run its own deadline of that many
    milliseconds.  A form that runs out is graded once, and every
    submission of it gets that degraded result (``degraded=True``, no
    witness); as with :meth:`AssignmentSession.grade`, no degraded report
    stays in the session's cache.
    """
    if timeout_ms is not None and not 0 < timeout_ms < math.inf:
        raise ValueError("timeout_ms must be positive and finite")
    start = time.perf_counter()
    if session is None:
        session = AssignmentSession(
            catalog, target, max_sites=max_sites,
            cache_size=max(256, 2 * len(submissions) + 1),
        )

    # Front half: dedupe by canonical form (cheap).
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
    # has forms; grow it so every form referenced here (graded now or
    # already cached) survives until the serve loop.  With witnesses each
    # wrong form occupies a second slot under ("witness", canonical).
    distinct_forms = {
        entry[0] for entry in prepared if not isinstance(entry, GradeError)
    }
    session.cache.maxsize = max(
        session.cache.maxsize,
        (2 if witness else 1) * len(distinct_forms) + 16,
    )

    # Back half: grade each unique form once.
    outcomes = {
        canonical: _grade_form(session, canonical, witness, trace, timeout_ms)
        for canonical in unique
    }
    solver_stats = {}
    traces = []
    for outcome in outcomes.values():
        merge_effort(solver_stats, outcome.effort)
        if outcome.trace is not None:
            traces.append(outcome.trace)

    # Serve every submission from the warm cache, preserving input order.
    # The first submission of a form graded here paid for its pipeline
    # run, and a degraded form is never cached, so neither is a cache hit.
    results = []
    unserved = set(outcomes)
    for sql, entry in zip(submissions, prepared):
        if isinstance(entry, GradeError):
            results.append(entry)
            continue
        canonical = entry[0]
        outcome = outcomes.get(canonical)
        if outcome is not None and outcome.error is not None:
            results.append(GradeError(sql, *outcome.error))
            continue
        result = session.grade(sql, witness=witness, _prepared=entry)
        if outcome is not None and (
            canonical in unserved or outcome.report.degraded
        ):
            unserved.discard(canonical)
            result = replace(result, cached=False)
        if effort:
            result = replace(
                result,
                effort=(
                    outcome.effort if outcome is not None
                    else dict.fromkeys(EFFORT_KEYS, 0)
                ),
            )
        results.append(result)
    # A degraded report answers this batch only: a later grade of the
    # form with a larger budget must run the pipeline again.
    for canonical, outcome in outcomes.items():
        if outcome.report is not None and outcome.report.degraded:
            session.cache.discard(canonical)
    return BatchResult(
        results=results,
        elapsed=time.perf_counter() - start,
        unique=len(outcomes),
        unique_failed=sum(o.error is not None for o in outcomes.values()),
        solver_stats=solver_stats,
        cache_stats=session.cache.stats(),
        traces=traces,
    )
