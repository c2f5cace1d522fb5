"""Corpus-scale evaluation: push a generated pool through the batch grader.

For every ``(schema, target)`` group the harness runs
:func:`repro.service.batch.grade_batch` (the production batch path:
canonical-form dedup, one warm solver per group) and folds the
per-entry outcomes into corpus-level metrics:

* **grade success rate** -- share of entries graded without a pipeline
  error (parse failures and ``RepairError`` both count as errors);
* **hint coverage** -- share of graded entries flagged wrong (every
  flagged entry carries at least one hint by construction; un-flagged
  mutants are *benign*: the mutation accidentally preserved semantics,
  and ``by_kind`` attributes each benign entry to its mutation kinds so
  every miss is accounted for.  The two benign classes in the bundled
  corpus: qualification-only mutations, where the recorded
  extra/missing/wrong-column edit merely toggled ``col`` <-> ``table.col``
  spelling, and join-equality column swaps, where the swapped column is
  equated with the original by a WHERE join predicate -- see the
  ``TestBenignMutants`` regression tests);
* **ground-truth agreement** -- per flagged entry, the hinted stages are
  compared against the mutated stages (mean recall + exact-match rate);
* **witness coverage** -- optionally, counterexample generation over a
  deterministic subsample of the flagged entries, each witness taken
  from the session that graded the entry;
* **throughput** -- graded entries per second of batch-grading time;
* **repair-cost attribution** -- per mutation kind, the mean and p95
  pipeline time of the entries carrying that kind (``grade_ms_mean`` /
  ``grade_ms_p95`` in ``by_kind``), so expensive-to-grade mutation
  classes are visible in the report and in ``BENCH_corpus.json``;
* **solver-effort attribution** -- per mutation kind, the mean solver
  counter deltas (SAT calls, propagations, conflicts, theory rounds,
  learned clauses, cores, ...) of grading the entries carrying that kind
  (the ``effort`` block inside ``by_kind``): wall time says a kind is
  slow, effort says *why* -- which mutation classes actually burn solver
  work rather than pipeline bookkeeping.

With ``trace_jsonl=PATH`` the batch grader also captures one span tree
per unique graded form and writes them as JSON lines.
"""

from __future__ import annotations

import json
import math
import time
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.corpus.schemas import bundled_sources
from repro.errors import ReproError
from repro.obs.effort import mean_effort
from repro.service.batch import GradeError, grade_batch
from repro.service.session import AssignmentSession


@dataclass
class CorpusEvalResult:
    """Corpus-level metrics plus the raw per-entry outcomes."""

    total: int = 0
    graded: int = 0
    errors: int = 0
    flagged: int = 0  # graded entries with at least one hint
    benign: int = 0  # graded entries the pipeline found equivalent
    stage_recall_sum: float = 0.0
    stage_exact: int = 0
    witness_attempted: int = 0
    witness_found: int = 0
    grade_elapsed: float = 0.0
    witness_elapsed: float = 0.0
    by_schema: dict = field(default_factory=dict)
    by_kind: dict = field(default_factory=dict)
    #: ``(entry, GradeResult | GradeError)`` in corpus order.
    outcomes: list = field(default_factory=list)

    # -- derived metrics ------------------------------------------------

    @property
    def grade_success_rate(self):
        return self.graded / self.total if self.total else 0.0

    @property
    def hint_coverage(self):
        return self.flagged / self.graded if self.graded else 0.0

    @property
    def stage_recall(self):
        return self.stage_recall_sum / self.flagged if self.flagged else 0.0

    @property
    def stage_exact_rate(self):
        return self.stage_exact / self.flagged if self.flagged else 0.0

    @property
    def witness_coverage(self):
        if not self.witness_attempted:
            return 0.0
        return self.witness_found / self.witness_attempted

    @property
    def throughput(self):
        return self.graded / self.grade_elapsed if self.grade_elapsed else 0.0

    def to_dict(self):
        return {
            "total": self.total,
            "graded": self.graded,
            "errors": self.errors,
            "flagged": self.flagged,
            "benign": self.benign,
            "grade_success_rate": round(self.grade_success_rate, 4),
            "hint_coverage": round(self.hint_coverage, 4),
            "stage_recall": round(self.stage_recall, 4),
            "stage_exact_rate": round(self.stage_exact_rate, 4),
            "witness_attempted": self.witness_attempted,
            "witness_found": self.witness_found,
            "witness_coverage": round(self.witness_coverage, 4),
            "grade_elapsed": round(self.grade_elapsed, 3),
            "witness_elapsed": round(self.witness_elapsed, 3),
            "throughput": round(self.throughput, 3),
            "by_schema": self.by_schema,
            "by_kind": self.by_kind,
        }


def _hinted_stages(result):
    return {stage for stage, passed, _ in result.stage_hints if not passed}


def _p95(values):
    """The 95th-percentile value (nearest-rank) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(0.95 * len(ordered)))
    return ordered[rank - 1]


def evaluate_corpus(
    entries,
    *,
    schemas=None,
    max_sites=2,
    witness=False,
    witness_limit=40,
    trace_jsonl=None,
):
    """Grade every corpus entry and aggregate a :class:`CorpusEvalResult`.

    ``entries`` is any iterable of :class:`~repro.corpus.generator
    .CorpusEntry`, graded through :func:`grade_batch` one ``(schema,
    target)`` group at a time.  With ``witness=True`` the first
    ``witness_limit`` flagged entries (in corpus order) also get a
    counterexample-generation attempt.  With ``trace_jsonl`` set, one
    span tree per unique graded form is written to that path as JSON
    lines (``{"schema", "target_sql", "trace"}``).
    """
    entries = list(entries)
    sources = {s.name: s for s in bundled_sources(schemas)}
    result = CorpusEvalResult(total=len(entries))

    groups = OrderedDict()
    for entry in entries:
        groups.setdefault((entry.schema, entry.target_sql), []).append(entry)

    outcomes = []
    trace_records = []
    sessions = {}  # (schema, target_sql) -> the session that graded it
    for (schema, target_sql), group in groups.items():
        catalog = sources[schema].catalog()
        start = time.perf_counter()
        session = sessions[schema, target_sql] = AssignmentSession(
            catalog, target_sql, max_sites=max_sites
        )
        batch = grade_batch(
            catalog,
            target_sql,
            [e.wrong_sql for e in group],
            max_sites=max_sites,
            session=session,
            trace=trace_jsonl is not None,
            effort=True,
        )
        result.grade_elapsed += time.perf_counter() - start
        outcomes.extend(zip(group, batch.results))
        for trace in batch.traces:
            trace_records.append(
                {"schema": schema, "target_sql": target_sql, "trace": trace}
            )

    if trace_jsonl is not None:
        with open(trace_jsonl, "w") as handle:
            for record in trace_records:
                handle.write(json.dumps(record) + "\n")

    kind_elapsed = {}  # mutation kind -> pipeline seconds of its entries
    kind_effort = {}  # mutation kind -> effort deltas of its entries
    for entry, outcome in outcomes:
        schema_stats = result.by_schema.setdefault(
            entry.schema, {"total": 0, "graded": 0, "flagged": 0}
        )
        schema_stats["total"] += 1
        for record in entry.mutations:
            kind_stats = result.by_kind.setdefault(
                record.kind, {"count": 0, "flagged": 0, "benign": 0}
            )
            kind_stats["count"] += 1
        if isinstance(outcome, GradeError):
            result.errors += 1
            continue
        result.graded += 1
        schema_stats["graded"] += 1
        for record in entry.mutations:
            kind_elapsed.setdefault(record.kind, []).append(
                outcome.pipeline_elapsed
            )
            if outcome.effort is not None:
                kind_effort.setdefault(record.kind, []).append(
                    outcome.effort
                )
        if outcome.all_passed:
            result.benign += 1
            for record in entry.mutations:
                result.by_kind[record.kind]["benign"] += 1
            continue
        result.flagged += 1
        schema_stats["flagged"] += 1
        for record in entry.mutations:
            result.by_kind[record.kind]["flagged"] += 1
        truth = set(entry.stages)
        hinted = _hinted_stages(outcome)
        if truth:
            result.stage_recall_sum += len(truth & hinted) / len(truth)
        if truth == hinted:
            result.stage_exact += 1

    # Repair-cost attribution: latency of the pipeline runs carrying each
    # mutation kind (multi-mutation entries count toward every kind).
    for kind, stats in result.by_kind.items():
        elapsed = kind_elapsed.get(kind)
        if elapsed:
            stats["grade_ms_mean"] = round(
                sum(elapsed) / len(elapsed) * 1000.0, 3
            )
            stats["grade_ms_p95"] = round(_p95(elapsed) * 1000.0, 3)
        else:
            stats["grade_ms_mean"] = 0.0
            stats["grade_ms_p95"] = 0.0
        # Solver-effort attribution: the mean counter deltas of grading
        # the forms these entries mapped to (every submission of a form
        # carries the form's grading delta, so the mean is per
        # *submission*, matching grade_ms_mean above).
        stats["effort"] = mean_effort(kind_effort.get(kind, []))

    if witness:
        _measure_witness_coverage(result, outcomes, sessions, witness_limit)

    result.outcomes = outcomes
    return result


def _measure_witness_coverage(result, outcomes, sessions, limit):
    """Counterexample generation over the first ``limit`` flagged entries,
    each by the session that graded it, as a student's request would."""
    start = time.perf_counter()
    for entry, outcome in outcomes:
        if result.witness_attempted >= limit:
            break
        if isinstance(outcome, GradeError) or outcome.all_passed:
            continue
        session = sessions[entry.schema, entry.target_sql]
        try:
            found = session.grade(entry.wrong_sql, witness=True).witness
        except ReproError:
            found = None
        result.witness_attempted += 1
        if found is not None:
            result.witness_found += 1
    result.witness_elapsed = time.perf_counter() - start
