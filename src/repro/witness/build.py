"""End-to-end witness generation: candidates -> verify -> shrink.

:func:`generate_witness` turns a (target, working) query pair into a tiny
concrete database on which the two queries *visibly* disagree -- the
executable counterpart of a hint.  One stream, :func:`_candidates`,
yields candidate instances in order of preference:

1. **solver model** -- when the FROM multisets match, the target is
   unified onto the working aliases and the single-row divergence formula
   (:mod:`repro.witness.divergence`) is handed to
   :meth:`~repro.solver.Solver.find_model`; the theory model is
   concretized into one row per alias.  This is what finds witnesses for
   selective predicates (``area = 'Systems'``) that random data
   essentially never satisfies.
2. **model-seeded augmentation** -- a model on which *both* queries emit,
   plus one near-duplicate row: the multiplicity and grouping
   divergences (``COUNT(*)`` vs ``COUNT(DISTINCT ...)``) that have no
   single-row model.
3. **guided differential search** -- a seeded, constants-aware
   :class:`~repro.engine.datagen.DataGenerator` samples small instances;
   this also covers FROM-multiset mismatches, where no unification exists.

One accept rule keeps the first candidate on which the executor sees the
result bags differ and that greedily shrinks to at most
``max_rows_per_table`` rows per table, so everything the service returns
is small enough to read.  An instance on which either query raises (a
division by zero) is never a witness, nor a step of the shrinking
(:func:`repro.engine.diff.results_differ`).
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction

from repro.core.table_mapping import unify_target
from repro.engine.database import Database
from repro.engine.diff import results_differ
from repro.engine.executor import execute
from repro.errors import SolverLimitError
from repro.logic.formulas import conj
from repro.logic.terms import Const
from repro.obs import JOURNAL, TRACER
from repro.solver import Solver
from repro.witness.divergence import divergence_formula, emits_single_row
from repro.witness.instance import build_instance, guided_generator
from repro.witness.shrink import shrink_instance
from repro.witness.verify import first_divergent_stage

MAX_ROWS_PER_TABLE = 3


@dataclass(frozen=True)
class Witness:
    """A verified counterexample instance (frozen, cache- and pickle-safe).

    ``tables`` holds only the non-empty tables as ``(name, column_names,
    rows)`` with each row a value tuple; ``assignments`` lists the
    model-pinned cells as ``(alias, column, value)`` triples, in the
    alias namespace of the queries the witness was generated for
    (:meth:`rename_aliases` moves them to another).
    """

    tables: tuple  # ((table, (col, ...), ((value, ...), ...)), ...)
    wrong_result: tuple  # result bag of the submitted query
    target_result: tuple  # result bag of the reference query
    stage: str  # earliest divergent artifact: FROM/WHERE/GROUP BY/HAVING/SELECT
    source: str  # "model" (solver-driven) | "search" (guided differential)
    assignments: tuple = ()
    elapsed: float = field(default=0.0, compare=False)

    @property
    def max_rows(self):
        return max((len(rows) for _, _, rows in self.tables), default=0)

    @property
    def total_rows(self):
        return sum(len(rows) for _, _, rows in self.tables)

    def rename_aliases(self, mapping):
        """This witness with its pinned cells' aliases renamed per
        ``mapping`` (old alias -> new alias)."""
        return replace(self, assignments=tuple(
            (mapping.get(alias, alias), column, value)
            for alias, column, value in self.assignments
        ))


def _json_value(value):
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else float(value)
    if isinstance(value, bool):
        return value
    return str(value)


def witness_to_dict(witness):
    """JSON-safe rendering (used by the HTTP API and ``--json``)."""
    return {
        "tables": [
            {
                "table": name,
                "columns": list(columns),
                "rows": [[_json_value(v) for v in row] for row in rows],
            }
            for name, columns, rows in witness.tables
        ],
        "wrong_result": [[_json_value(v) for v in row] for row in witness.wrong_result],
        "target_result": [[_json_value(v) for v in row] for row in witness.target_result],
        "stage": witness.stage,
        "source": witness.source,
        "assignments": [
            f"{alias}.{column} = {Const.of(value)}"
            for alias, column, value in witness.assignments
        ],
        "elapsed": witness.elapsed,
    }


def _format_row(row):
    return "(" + ", ".join(str(_json_value(v)) for v in row) + ")"


def _format_bag(rows):
    return ", ".join(_format_row(row) for row in rows) or "(no rows)"


def format_witness_lines(witness):
    """Human-readable rendering shared by the CLI and the hint text."""
    lines = [
        f"Counterexample instance ({witness.total_rows} row(s); "
        f"divergence first visible in {witness.stage}):"
    ]
    for name, columns, rows in witness.tables:
        lines.append(f"  {name}({', '.join(columns)})")
        for row in rows:
            lines.append(f"    {_format_row(row)}")
    lines.append(f"  your query returns:      {_format_bag(witness.wrong_result)}")
    lines.append(f"  reference query returns: {_format_bag(witness.target_result)}")
    return lines


def witness_divergence_sentence(witness):
    """One-sentence divergence summary used by witness-guided hint text."""
    return (
        f"On this database your query returns "
        f"{_format_bag(witness.wrong_result)}; "
        f"the reference returns {_format_bag(witness.target_result)}."
    )


def _value_alternatives(generator, column, value):
    """A few deterministic replacement values differing from ``value``."""
    if column.type.value == "STRING":
        return [p for p in generator.string_pool if p != value][:2]
    if column.type.value == "BOOL":
        return [not value]
    return [value + 1, value - 1]


def _augmented_candidates(base, generator):
    """Variants of ``base`` with one extra row.

    The extra row is an exact duplicate of an existing row, or a duplicate
    with a single column changed.  This is the deterministic bridge
    between the single-row model path and blind random search: starting
    from a model where *both* queries emit (joins and selective constants
    already satisfied), one extra near-duplicate row is exactly what
    multiplicity-style divergences need -- ``COUNT(*)`` vs ``COUNT
    (DISTINCT ...)``, grouping splits, duplicate-sensitive DISTINCT.
    """
    catalog = base.catalog
    for table_name in sorted(base.tables):
        rows = base.tables[table_name]
        table = catalog.table(table_name)
        for row in rows:
            extras = [dict(row)]
            for column in table.columns:
                name = column.name.lower()
                for alt in _value_alternatives(generator, column, row[name]):
                    mutated = dict(row)
                    mutated[name] = alt
                    extras.append(mutated)
            for extra in extras:
                candidate = {
                    t: list(r) + ([extra] if t == table_name else [])
                    for t, r in base.tables.items()
                }
                yield Database(catalog, candidate)


def _find_model(solver, formula):
    """``solver``'s model of ``formula``; None if unsatisfiable or too big."""
    try:
        return solver.find_model(formula)
    except SolverLimitError:
        return None


def _candidates(catalog, working, unified, exec_target, *, solver, seed,
                max_rows, trials):
    """Yield ``(source, database, assignments)`` in order of preference.

    Lazily, so each stage's solver calls run only once every earlier
    candidate was rejected: the single-row divergence model, then up to
    64 one-extra-row variants of a model on which both queries emit (when
    its cross product stays at most 1024 rows, to keep each execution
    cheap), then -- after journaling ``witness.fallback`` -- ``trials``
    seeded search instances.  The first two need a unified target.
    """
    if unified is not None:
        model = _find_model(solver, divergence_formula(working, unified))
        if model is not None:
            database, assignments = build_instance(
                catalog, (working, unified), model, seed=seed
            )
            yield "model", database, assignments
    generator = guided_generator(
        catalog, (working, exec_target), seed=seed, max_rows=max_rows
    )
    if unified is not None:
        both = _find_model(
            solver, conj(emits_single_row(working), emits_single_row(unified))
        )
        if both is not None:
            base, assignments = build_instance(
                catalog, (working, unified), both, seed=seed
            )
            if math.prod(max(1, len(base.rows(entry.table)))
                         for entry in working.from_entries) <= 1024:
                for candidate in itertools.islice(
                    _augmented_candidates(base, generator), 64
                ):
                    yield "model", candidate, assignments
    JOURNAL.record(
        "witness.fallback", trials=trials, unified=unified is not None
    )
    for candidate in generator.instances(trials, seed=seed):
        yield "search", candidate, ()


def generate_witness(
    catalog,
    target,
    working,
    *,
    solver=None,
    seed=0,
    max_rows_per_table=MAX_ROWS_PER_TABLE,
    trials=600,
):
    """A verified, shrunk :class:`Witness` for the pair, or None.

    Deterministic for a fixed ``(target, working, seed)``: the solver
    model search is order-independent and the search generator is
    seeded.  Returns None when the queries appear equivalent (no
    divergence surfaced) or when no witness fits ``max_rows_per_table``.
    """
    with TRACER.span("witness.generate") as span:
        start = time.perf_counter()
        unified = None
        if target.tables_multiset() == working.tables_multiset():
            try:
                unified, _ = unify_target(target, working, catalog)
            except ValueError:
                pass
        exec_target = unified if unified is not None else target

        def diverges(database):
            return results_differ(working, exec_target, database)

        for source, candidate, assignments in _candidates(
            catalog, working, unified, exec_target, solver=solver or Solver(),
            seed=seed, max_rows=max_rows_per_table, trials=trials,
        ):
            if not diverges(candidate):
                continue
            chosen = shrink_instance(candidate, diverges)
            if all(len(rows) <= max_rows_per_table
                   for rows in chosen.tables.values()):
                break
        else:
            span.set(found=False, source=None)
            return None
        tables = []
        for name, rows in sorted(chosen.tables.items()):
            if rows:
                table = catalog.table(name)
                columns = tuple(column.name for column in table.columns)
                tables.append((table.name, columns, tuple(
                    tuple(row[column.lower()] for column in columns)
                    for row in rows
                )))
        span.set(found=True, source=source)
        return Witness(
            tables=tuple(tables),
            wrong_result=tuple(map(tuple, execute(working, chosen))),
            target_result=tuple(map(tuple, execute(exec_target, chosen))),
            stage=(
                first_divergent_stage(working, unified, chosen)
                if unified is not None
                else "FROM"
            ),
            source=source,
            assignments=assignments,
            elapsed=time.perf_counter() - start,
        )
