"""Long-lived grading sessions for a single assignment.

An :class:`AssignmentSession` is created once per assignment (one target
query) and then grades any number of submissions against it.  It amortizes
everything the one-shot CLI pays per request:

* the target is parsed and resolved exactly once;
* one persistent :class:`~repro.solver.Solver` carries its learned clauses,
  SAT/theory caches, and saved phases across submissions;
* finished reports are memoized in an :class:`ArtifactCache` keyed by the
  submission's canonical (alias-renamed) form, so duplicate and
  alpha-equivalent submissions are served without re-running the pipeline.

The pipeline always runs on the *canonical* form of the submission and the
cached report is translated back into the submitter's own alias namespace,
which makes the served hints a deterministic function of (canonical form,
alias mapping) -- two students handing in the same query under different
aliases get textually consistent hints.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass

from repro.core.from_stage import fresh_alias
from repro.core.pipeline import QrHint
from repro.obs import REGISTRY, TRACER
from repro.obs.effort import effort_delta, effort_snapshot
from repro.service.cache import ArtifactCache, canonicalize
from repro.service.serialize import VERSION, from_obj, to_obj
from repro.solver import Solver
# A second name for parse_query: perfbench's traced run wraps this binding.
from repro.sqlparser import parse_query as parse_query_extended
from repro.witness import (
    format_witness_lines,
    generate_witness,
    witness_divergence_sentence,
    witness_to_dict,
)

#: Cached marker for "witness generation ran and found nothing", so the
#: expensive search is not repeated per duplicate submission.  A plain
#: string keeps the cache spill trivially serializable.
_NO_WITNESS = "__no_witness__"

_GRADE_SECONDS = REGISTRY.histogram(
    "repro_grade_seconds",
    "Wall time serving one submission, by artifact-cache outcome.",
    ("cached",),
)
_GRADE_TOTAL = REGISTRY.counter(
    "repro_grades_total",
    "Submissions graded, by artifact-cache outcome.",
    ("cached",),
)


@dataclass(frozen=True)
class GradeResult:
    """One graded submission, in the submitter's own alias namespace."""

    submission_sql: str
    all_passed: bool
    #: ``((stage, passed, (Hint, ...)), ...)`` in pipeline order.
    stage_hints: tuple
    final_sql: str
    cached: bool
    pipeline_elapsed: float  # cost of the underlying QrHint run
    elapsed: float  # wall time spent serving this submission
    #: Executor-verified counterexample instance, or None.  Only populated
    #: when the caller asked for one (``witness=True``); with witnesses
    #: disabled every rendering below is byte-identical to pre-witness
    #: behaviour.
    witness: object = None
    #: Solver-effort counter delta for serving this submission (dict of
    #: ints), or None.  Only populated on ``effort=True`` requests; the
    #: default rendering below is byte-identical without it.
    effort: object = None
    #: True when the grade ran out of its time budget mid-pipeline and
    #: this result is a best-effort partial (see ``Report.degraded``).
    #: Degraded results are never cached, so a retry with a larger budget
    #: gets a full grade.
    degraded: bool = False

    @property
    def hints(self):
        out = []
        for _, _, hints in self.stage_hints:
            out.extend(hints)
        return tuple(out)

    def text(self, show_fixes=False, witness_text=False):
        """Render exactly the CLI ``hint`` output block for this result.

        ``witness_text=True`` anchors the hints to the counterexample (an
        extra "on this database your query returns X" bullet) when this
        result carries a witness; the default rendering is byte-identical
        to pre-witness-text behaviour.
        """
        return "\n".join(
            format_grade_lines(
                self, show_fixes=show_fixes, witness_text=witness_text
            )
        )

    def to_dict(self, show_fixes=False):
        """JSON-safe rendering (used by the HTTP API and ``--json``)."""
        stages = [
            {"stage": stage, "passed": passed,
             "hints": [hint.to_dict(show_fixes) for hint in hints]}
            for stage, passed, hints in self.stage_hints
        ]
        payload = {
            "all_passed": self.all_passed,
            "stages": stages,
            "final_sql": self.final_sql,
            "cached": self.cached,
            "elapsed": self.elapsed,
        }
        if self.witness is not None:
            payload["witness"] = witness_to_dict(self.witness)
        if self.effort is not None:
            payload["effort"] = dict(self.effort)
        if self.degraded:
            # Only present on degraded results, keeping the common-path
            # payload byte-identical to pre-deadline behaviour.
            payload["degraded"] = True
        return payload


def format_grade_lines(result, show_fixes=False, witness_text=False):
    """The CLI hint block as a list of lines (shared by CLI and service).

    With ``witness_text=True`` and a witness on the result, the stage the
    witness attributes the divergence to gets an extra bullet quoting the
    concrete result bags ("on this database your query returns X; the
    reference returns Y").  Off by default: the rendering is then
    byte-identical to the historic output.
    """
    if result.all_passed:
        return ["The working query is already equivalent to the target."]
    witness_stage = None
    if witness_text and result.witness is not None:
        failing = [s for s, passed, _ in result.stage_hints if not passed]
        if failing:
            witness_stage = (
                result.witness.stage
                if result.witness.stage in failing
                else failing[-1]
            )
    lines = []
    for stage, passed, hints in result.stage_hints:
        if passed:
            continue
        lines.append(f"[{stage}]")
        for hint in hints:
            lines.append(f"  - {hint.message}")
            if show_fixes and hint.fix is not None:
                lines.append(f"    fix: {hint.site}  ->  {hint.fix}")
        if stage == witness_stage:
            lines.append(
                f"  - {witness_divergence_sentence(result.witness)}"
            )
    lines.append("")
    lines.append("Query after applying all repairs:")
    lines.append(f"  {result.final_sql}")
    if result.witness is not None:
        lines.append("")
        lines.extend(format_witness_lines(result.witness))
    return lines


def format_report(report, show_fixes=False, witness=None, witness_text=False):
    """Render a raw pipeline :class:`Report` the same way as the CLI."""
    stage_hints = tuple(
        (s.stage, s.passed, tuple(s.hints)) for s in report.stages
    )
    shim = GradeResult(
        submission_sql="",
        all_passed=report.all_passed,
        stage_hints=stage_hints,
        final_sql=report.final_query.to_sql(),
        cached=False,
        pipeline_elapsed=report.elapsed,
        elapsed=report.elapsed,
        witness=witness,
    )
    return "\n".join(
        format_grade_lines(
            shim, show_fixes=show_fixes, witness_text=witness_text
        )
    )


def _disambiguate(inverse, query):
    """Extend the inverse mapping so repair-introduced aliases survive.

    The FROM repair may add missing tables under fresh aliases chosen in
    the *canonical* namespace (where only ``_sN`` names are taken).  Such
    an alias can collide with a submitter alias once ``_sN`` names are
    mapped back -- e.g. repair alias ``likes`` vs. submission alias
    ``likes`` -- which would silently merge two FROM entries and turn
    join predicates into tautologies.  Colliding repair aliases are
    renamed ``alias_2``, ``alias_3``, ... exactly as the repair itself
    would have done had it graded the submission directly.
    """
    used = set(inverse.values())
    extended = dict(inverse)
    for entry in query.from_entries:
        if entry.alias not in extended:
            fresh = fresh_alias(entry.alias, used)
            used.add(fresh)
            if fresh != entry.alias:
                extended[entry.alias] = fresh
    return extended


class AssignmentSession:
    """Grades submissions against one target query, reusing all artifacts.

    Thread-safe: :meth:`grade` serializes pipeline runs behind a per-session
    re-entrant lock (the solver and its caches are not concurrency-safe),
    which is the locking granularity the HTTP server relies on.
    """

    def __init__(
        self,
        catalog,
        target,
        *,
        assignment_id=None,
        max_sites=2,
        cache_size=256,
        solver=None,
    ):
        self.catalog = catalog
        self.assignment_id = assignment_id
        if isinstance(target, str):
            self.target_sql = target
            self.target = parse_query_extended(target, catalog)
        else:
            self.target = target
            self.target_sql = target.to_sql()
        self.max_sites = max_sites
        self.solver = solver or Solver()
        self.cache = ArtifactCache(cache_size)
        self.lock = threading.RLock()
        self._solver_baseline = self.solver.stats_snapshot()
        self.submissions = 0
        self.pipeline_runs = 0
        self.witness_runs = 0  # generate_witness invocations (cache misses)
        self.elapsed_total = 0.0
        self.pipeline_elapsed_total = 0.0

    # ------------------------------------------------------------------

    def prepare(self, submission):
        """Parse + canonicalize a submission.

        Returns ``(canonical_query, inverse_alias_mapping)``; the inverse
        mapping translates canonical ``_sN`` aliases back to the
        submitter's.  This is the cheap (sub-millisecond) front half of
        grading, split out so the batch grader can dedupe before running
        the expensive half once per unique form.
        """
        if isinstance(submission, str):
            working = parse_query_extended(submission, self.catalog)
        else:
            working = submission
        canonical, mapping = canonicalize(working)
        inverse = {canon: orig for orig, canon in mapping.items()}
        return canonical, inverse

    def grade(self, submission, witness=False, effort=False, deadline=None):
        """Grade one submission; returns a :class:`GradeResult`.

        Parse/resolution errors propagate as :class:`repro.errors.ReproError`.

        ``deadline`` (a :class:`repro.service.deadline.Deadline`) bounds the
        pipeline run: on expiry the result is a *degraded* partial grade
        (``degraded=True``, coarse stage-level hint for the unfinished
        stage).  Degraded reports are not cached and witness generation is
        skipped for them.  A deadline that is already expired before the
        pipeline starts raises
        :class:`~repro.service.deadline.DeadlineExceeded` instead.

        With ``witness=True`` a wrong submission's result also carries an
        executor-verified counterexample instance (when one is found).
        Witnesses are cached in the same artifact cache as reports, keyed
        by ``("witness", canonical form)``, so duplicate and
        alpha-equivalent submissions share one generation run.

        With ``effort=True`` the result carries the solver-effort counter
        delta for serving this request (an artifact-cache hit burns no
        solver work, so its delta is all zeros).
        """
        start = time.perf_counter()
        with TRACER.span("session.grade") as span, self.lock:
            effort_before = effort_snapshot(self.solver) if effort else None
            return self._serve(
                span, start, submission, self.prepare(submission), witness,
                effort_before=effort_before, deadline=deadline,
            )

    def serve(self, sql, prepared, cached, witness=False):
        """The result for ``sql`` from the report cached for its form.

        The batch grader's half of :meth:`grade`: the batch grades each
        unique form itself, so ``prepared`` is :meth:`prepare`'s output
        for ``sql`` and ``cached`` is the batch's verdict on whether this
        submission is a cache hit (False when it paid for its form's
        pipeline run).  The result's flag, the ``repro_grades_total`` and
        ``repro_grade_seconds`` labels and the ``session.grade`` span all
        report that verdict.  A form the cache no longer holds (a
        caller's session may evict one it held before the batch) is
        graded again, and its result is not cached either.
        """
        start = time.perf_counter()
        with TRACER.span("session.grade") as span, self.lock:
            return self._serve(
                span, start, sql, prepared, witness, cached=cached
            )

    def _serve(self, span, start, submission, prepared, witness, *,
               cached=True, effort_before=None, deadline=None):
        """One submission's result from the cache or, on a miss, from a
        pipeline run, renamed into the submitter's namespace.  A miss is
        never ``cached``; a hit is unless ``cached`` says otherwise."""
        canonical, inverse = prepared
        report = self.cache.get(canonical)
        if report is None:
            cached = False
            report = self.grade_canonical(canonical, deadline=deadline)
            if not report.degraded:
                # A degraded report is an artifact of *this* request's
                # budget; caching it would serve the partial answer to
                # well-budgeted duplicates forever.
                self.cache.put(canonical, report)
        witness_obj = None
        if witness and not report.all_passed and not report.degraded:
            witness_obj = self.witness_canonical(canonical)
        effort_spent = (
            effort_delta(effort_before, effort_snapshot(self.solver))
            if effort_before is not None
            else None
        )
        self.submissions += 1
        elapsed = time.perf_counter() - start
        self.elapsed_total += elapsed
        span.set(cached=cached, all_passed=report.all_passed)
        cached_label = "true" if cached else "false"
        _GRADE_SECONDS.observe(elapsed, cached=cached_label)
        _GRADE_TOTAL.inc(cached=cached_label)
        # The report and witness are in the canonical namespace.  Hints
        # and pinned cells take the plain inverse map; only the final
        # query takes _disambiguate's extended one.  So a hint can name a
        # student alias that the final query gives to a repair-added
        # table instead (FOUND 1 in ROADMAP.md).
        stage_hints = tuple(
            (
                stage.stage,
                stage.passed,
                tuple(h.rename_aliases(inverse) for h in stage.hints),
            )
            for stage in report.stages
        )
        final_query = report.final_query.rename_aliases(
            _disambiguate(inverse, report.final_query)
        )
        if witness_obj is not None:
            witness_obj = witness_obj.rename_aliases(inverse)
        return GradeResult(
            submission_sql=(
                submission if isinstance(submission, str)
                else submission.to_sql()
            ),
            all_passed=report.all_passed,
            stage_hints=stage_hints,
            final_sql=final_query.to_sql(),
            cached=cached,
            pipeline_elapsed=report.elapsed,
            elapsed=elapsed,
            witness=witness_obj,
            effort=effort_spent,
            degraded=report.degraded,
        )

    def witness_canonical(self, canonical):
        """Counterexample for an already-canonical query, via the cache.

        Returns the (canonical-namespace) witness or None; negative
        results are cached too, so a hopeless search runs once per form.
        """
        key = ("witness", canonical)
        entry = self.cache.get(key)
        if entry is None:
            entry = generate_witness(
                self.catalog, self.target, canonical, solver=self.solver
            )
            self.witness_runs += 1
            self.cache.put(key, entry if entry is not None else _NO_WITNESS)
        return None if entry == _NO_WITNESS else entry

    def grade_canonical(self, canonical, deadline=None):
        """Run the full pipeline on an already-canonical query (no cache)."""
        report = QrHint(
            self.catalog,
            self.target,
            canonical,
            max_sites=self.max_sites,
            solver=self.solver,
            deadline=deadline,
        ).run()
        self.pipeline_runs += 1
        self.pipeline_elapsed_total += report.elapsed
        return report

    # -- disk spill -----------------------------------------------------

    def save(self, path):
        """Spill the artifact cache to a JSON file; returns the count.

        The file is ``{"version": 5, "catalog": [table, ...], "target":
        ..., "max_sites": N, "entries": [[key, artifact], ...]}``: the
        catalog's tables (names, columns and types), the resolved target
        and the repair-site cap every artifact was graded against, then
        the cache entries oldest-first, so a later :meth:`load`
        reproduces the LRU order exactly.
        :func:`repro.service.serialize.to_obj` encodes every value; an
        entry it cannot encode (an object of a class outside its
        registry) is skipped rather than failing the spill.
        The write is atomic (temp file + rename), so a crash mid-save
        never truncates an existing spill.
        """
        entries = []
        for entry in self.cache.items():
            try:
                entries.append(to_obj(entry))
            except TypeError:
                continue
        # json.dumps encodes in C; json.dump streams through pure Python.
        text = json.dumps({
            "version": VERSION,
            "catalog": to_obj(tuple(self.catalog)),
            "target": to_obj(self.target),
            "max_sites": self.max_sites,
            "entries": entries,
        })
        tmp_path = f"{path}.tmp.{os.getpid()}"
        try:
            with open(tmp_path, "w") as handle:
                handle.write(text)
            os.replace(tmp_path, path)
        finally:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
        return len(entries)

    def load(self, path):
        """Restore the entries :meth:`save` wrote; returns the count.

        Restored entries go through the cache's ``put``, so its bound and
        eviction policy apply as if they had just been computed.  Their
        canonical keys compare equal to freshly canonicalized
        submissions, which is what makes cross-restart reuse work.  A
        file that is not a version-5 spill, or whose artifacts were
        graded against another schema, target or ``max_sites`` (they
        would be wrong answers here), raises ``ValueError`` and restores
        nothing.
        """
        with open(path) as handle:
            payload = json.load(handle)
        try:
            if payload["version"] != VERSION:
                raise ValueError(f"version {payload['version']!r}")
            catalog = from_obj(payload["catalog"])
            target = from_obj(payload["target"])
            max_sites = payload["max_sites"]
            restored = dict(from_obj(payload["entries"]))
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ValueError(
                f"not a version-{VERSION} artifact spill ({exc})"
            ) from exc
        if catalog != tuple(self.catalog):
            raise ValueError("graded against another schema")
        if (target, max_sites) != (self.target, self.max_sites):
            raise ValueError("graded against another target or max_sites")
        for key, artifact in restored.items():
            self.cache.put(key, artifact)
        return len(restored)

    # ------------------------------------------------------------------

    def solver_stats(self):
        """Solver counter deltas since this session was created."""
        delta = effort_delta(
            self._solver_baseline, self.solver.stats_snapshot()
        )
        lookups = delta.get("cache_hits", 0) + delta.get("sat_calls", 0)
        delta["cache_hit_rate"] = (
            delta.get("cache_hits", 0) / lookups if lookups else 0.0
        )
        return delta

    def stats(self):
        return {
            "assignment_id": self.assignment_id,
            "target_sql": " ".join(self.target_sql.split()),
            "submissions": self.submissions,
            "pipeline_runs": self.pipeline_runs,
            "witness_runs": self.witness_runs,
            "elapsed_total": self.elapsed_total,
            "pipeline_elapsed_total": self.pipeline_elapsed_total,
            "cache": self.cache.stats(),
            "solver": self.solver_stats(),
        }
