"""The Qr-Hint orchestrator (Section 3.1).

Walks the logical execution flow FROM -> WHERE -> GROUP BY -> HAVING ->
SELECT.  At each stage it runs the viability check; on failure it computes
a repair, emits hints, and (in autofix mode, used for verification and
experiments) applies its own repair to the working query before moving on.
By Theorem 3.1 the staged fixes compose into a query equivalent to the
target, which callers can confirm via the relational engine's differential
check.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import partial

from repro.core import hints as hint_templates
from repro.core.from_stage import apply_from_fix, check_from
from repro.core.groupby_stage import apply_grouping_fix, fix_grouping
from repro.core.having_stage import (
    analyze_having,
    having_equivalent,
    repair_having,
    split_having,
)
from repro.core.select_stage import apply_select_fix, fix_select
from repro.core.table_mapping import unify_target
from repro.core.where_repair import repair_where
from repro.errors import RepairError
from repro.logic.formulas import simplify
from repro.obs import JOURNAL, REGISTRY, TRACER
from repro.obs.effort import effort_delta, effort_snapshot, nonzero
from repro.query import ResolvedQuery
from repro.service.deadline import DeadlineExceeded
from repro.solver import Solver
from repro.sqlparser.rewrite import parse_query_extended

_STAGE_SECONDS = REGISTRY.histogram(
    "repro_stage_seconds",
    "Pipeline stage wall time per run.",
    ("stage",),
)
_DEADLINE_EXPIRED = REGISTRY.counter(
    "repro_deadline_expired_total",
    "Pipeline runs that exhausted their time budget, by stage reached.",
    ("stage",),
)
_DEGRADED = REGISTRY.counter(
    "repro_degraded_total",
    "Best-effort partial (degraded) reports returned.",
)


@dataclass
class StageResult:
    """Outcome of one pipeline stage."""

    stage: str
    passed: bool  # viability held before any fix
    hints: list = field(default_factory=list)
    elapsed: float = 0.0
    #: The working query after this stage's fix: per run, never spilled.
    query_after: ResolvedQuery | None = field(
        default=None, metadata={"spill": False}
    )


@dataclass
class Report:
    """Full pipeline outcome.

    Reports are cache-safe: ``run()`` freezes the stage list and each
    stage's hints into tuples, so a report memoized by the service layer
    (``repro.service``) can be shared across threads without aliasing
    mutable state.
    """

    stages: tuple
    final_query: ResolvedQuery
    target_query: ResolvedQuery
    elapsed: float
    #: True when the run's deadline expired mid-pipeline and the report is
    #: a best-effort partial: stages graded before expiry are exact; the
    #: stage named by ``degraded_stage`` carries one coarse stage-level
    #: hint and later stages are absent.  Degraded reports are never
    #: cached by the service layer.
    degraded: bool = False
    degraded_stage: str | None = None

    @property
    def all_passed(self):
        return all(stage.passed for stage in self.stages)

    @property
    def hints(self):
        out = []
        for stage in self.stages:
            out.extend(stage.hints)
        return out

    def summary(self):
        lines = []
        for stage in self.stages:
            status = "ok" if stage.passed else "repair"
            lines.append(f"{stage.stage:9s} {status}")
            for hint in stage.hints:
                lines.append(f"    {hint.message}")
        return "\n".join(lines)


class QrHint:
    """End-to-end hint generation for a (target, working) query pair."""

    def __init__(
        self,
        catalog,
        target,
        working,
        max_sites=2,
        optimized=True,
        solver=None,
        deadline=None,
    ):
        self.catalog = catalog
        self.target = self._coerce(target)
        self.working = self._coerce(working)
        self.max_sites = max_sites
        self.optimized = optimized
        self.solver = solver or Solver()
        #: Optional :class:`repro.service.deadline.Deadline`.  Attached to
        #: the solver for the duration of the run; expiry mid-stage yields
        #: a degraded partial report instead of an exception.
        self.deadline = deadline

    def _coerce(self, query):
        if isinstance(query, str):
            return parse_query_extended(query, self.catalog)
        return query

    # ------------------------------------------------------------------

    def run(self):
        """Run all stages, auto-applying each repair (Theorem 3.1 walk)."""
        with TRACER.span("pipeline.run") as span:
            report = self._run()
            span.set(all_passed=report.all_passed)
            return report

    def _run(self):
        start = time.perf_counter()
        deadline = self.deadline
        if deadline is not None:
            # A budget spent before any work is a caller problem (HTTP maps
            # it to 408); degradation only covers expiry *during* the run.
            deadline.check("pipeline.start")
            self.solver.deadline = deadline
        stages = []
        run = partial(self._run_stage, stages)
        target, working = self.target, self.working
        degraded_stage = None
        try:
            working = run("FROM", self._from, target, working)
            target, working, spja = self._unify(working)
            working = run("WHERE", self._where, target, working)
            if spja:
                working = run("GROUP BY", self._grouping, target, working)
                working = run("HAVING", self._having, target, working)
            select = partial(self._select, spja=spja)
            working = run("SELECT", select, target, working)
        except DeadlineExceeded:
            degraded_stage = stages[-1].stage
        finally:
            if deadline is not None:
                self.solver.deadline = None
        return Report(
            stages=tuple(stages),
            final_query=working,
            target_query=target,
            elapsed=time.perf_counter() - start,
            degraded=degraded_stage is not None,
            degraded_stage=degraded_stage,
        )

    def _run_stage(self, stages, name, stage, target, working):
        """Run one stage: the only code that times, traces or degrades one.

        ``stage`` is a ``(target, working) -> (StageResult, working)``
        method.  The runner polls the deadline, opens ``stage.<name>``
        (with ``passed`` and, while a trace records, the stage's nonzero
        solver-effort delta), times the stage into ``elapsed`` and
        ``repro_stage_seconds``, and appends the frozen result to
        ``stages``.  When the budget runs out it appends the degraded
        result instead, timed up to the expiry, and re-raises.  Returns
        the working query after the stage's fix.
        """
        start = time.perf_counter()
        result = None  # stays None if the stage raises a RepairError
        try:
            if self.deadline is not None:
                self.deadline.check(name)
            with TRACER.span(f"stage.{name}") as span:
                solver = self.solver
                before = effort_snapshot(solver) if TRACER.enabled else None
                result, working = stage(target, working)
                span.set(passed=result.passed)
                if before is not None:
                    after = effort_snapshot(solver)
                    span.set(effort=nonzero(effort_delta(before, after)))
            result.query_after = working
        except DeadlineExceeded:
            # One coarse stage-level hint stands in for the unfinished stage.
            hint = hint_templates.Hint(name, "degraded")
            result = StageResult(name, passed=False, hints=[hint])
            _DEADLINE_EXPIRED.inc(stage=name)
            _DEGRADED.inc()
            JOURNAL.record(
                "deadline.expired", stage=name, stages_done=len(stages)
            )
            raise
        finally:
            if result is not None:
                result.elapsed = time.perf_counter() - start
                result.hints = tuple(result.hints)
                stages.append(result)
                _STAGE_SECONDS.observe(result.elapsed, stage=name)
        return working

    def _unify(self, working):
        """Share the working query's aliases; split HAVING (untimed).

        Runs between FROM and WHERE, outside every stage.  Returns the
        unified target, the working query and whether grading is SPJA.
        """
        target, _mapping = unify_target(self.target, working, self.catalog)
        spja = target.is_spja or working.is_spja
        if spja:
            target = _split_having(target)
            working = _split_having(working)
        return target, working, spja

    # -- the stages: (target, working) -> (StageResult, working) ---------

    def _from(self, target, working):
        delta = check_from(target, working)
        result = StageResult("FROM", passed=delta.viable)
        if not delta.viable:
            result.hints = hint_templates.from_stage_hints(delta)
            working = apply_from_fix(working, target, delta)
        return result, working

    def _where(self, target, working):
        passed = self.solver.is_equiv(working.where, target.where)
        result = StageResult("WHERE", passed=passed)
        if not passed:
            repaired = repair_where(
                working.where,
                target.where,
                max_sites=self.max_sites,
                optimized=self.optimized,
                solver=self.solver,
            )
            if not repaired.found:
                raise RepairError("WHERE stage found no viable repair")
            result.hints = hint_templates.predicate_repair_hints(
                "WHERE", repaired.repair, working.where
            )
            working = replace(
                working, where=repaired.repair.apply(working.where)
            )
        return result, working

    def _grouping(self, target, working):
        delta = fix_grouping(
            target.where, working.group_by, target.group_by, self.solver
        )
        result = StageResult("GROUP BY", passed=delta.viable)
        if not delta.viable:
            result.hints = hint_templates.grouping_hints(
                delta, working.group_by
            )
            working = replace(
                working,
                group_by=apply_grouping_fix(
                    working.group_by, target.group_by, delta
                ),
            )
        return result, working

    def _having(self, target, working):
        analysis = _analyze_having(target, working)
        passed = having_equivalent(analysis, self.solver)
        result = StageResult("HAVING", passed=passed)
        if not passed:
            repaired = repair_having(
                analysis,
                max_sites=self.max_sites,
                optimized=self.optimized,
                solver=self.solver,
            )
            if not repaired.found:
                raise RepairError("HAVING stage found no viable repair")
            result.hints = hint_templates.predicate_repair_hints(
                "HAVING", repaired.repair, analysis.working_scalar,
                analysis.descalarize,
            )
            fixed_scalar = repaired.repair.apply(analysis.working_scalar)
            working = replace(
                working, having=simplify(analysis.descalarize(fixed_scalar))
            )
        return result, working

    def _select(self, target, working, spja):
        if spja:
            analysis = _analyze_having(target, working)
            context = analysis.context + (analysis.target_scalar,)
        else:
            context = (target.where,)
        delta = fix_select(working.select, target.select, context, self.solver)
        passed = delta.viable and working.distinct == target.distinct
        result = StageResult("SELECT", passed=passed)
        if not delta.viable:
            result.hints.extend(
                hint_templates.select_hints(
                    delta, working.select, len(target.select)
                )
            )
            working = replace(
                working,
                select=apply_select_fix(working.select, target.select, delta),
                select_aliases=(),
            )
        if working.distinct != target.distinct:
            result.hints.append(hint_templates.distinct_hint(working.distinct))
            working = replace(working, distinct=target.distinct)
        return result, working


def _split_having(query):
    """``query`` with its aggregate-free HAVING conjuncts moved to WHERE."""
    where, having = split_having(query.where, query.group_by, query.having)
    return replace(query, where=where, having=having)


def _analyze_having(target, working):
    # ``analyze_having`` is looked up at call time, so a wrapper installed
    # on this module's binding sees both the HAVING and the SELECT call.
    return analyze_having(
        target.where,
        working.group_by,
        target.group_by,
        working.having,
        target.having,
    )


def grade(catalog, target, working, **options):
    """Side-effect-free one-call entry point: grade one submission.

    ``target`` and ``working`` may be SQL text or resolved queries;
    ``options`` are forwarded to :class:`QrHint` (``max_sites``,
    ``optimized``, ``solver``, ``deadline``).  Returns the frozen
    :class:`Report`.  Long-lived callers should prefer
    :class:`repro.service.AssignmentSession`, which reuses the target
    parse, the solver, and memoized reports across submissions.
    """
    return QrHint(catalog, target, working, **options).run()
