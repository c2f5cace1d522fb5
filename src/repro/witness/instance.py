"""Concretize theory models into tiny database instances.

The builder turns a :class:`~repro.solver.TheoryModel` into one row per
FROM alias: constrained columns take their theory value (Fractions from
the arithmetic solver, strings from the string solver), unconstrained
columns are filled by a *seeded* :class:`~repro.engine.datagen.DataGenerator`
so witnesses are reproducible run to run.  The same constants-aware
generator also powers the differential fallback search: its value pools
are widened with every literal appearing in either query, without which
random instances essentially never satisfy selective predicates like
``area = 'Systems'`` and the search cannot observe a divergence.
"""

from __future__ import annotations

from repro.catalog import SqlType
from repro.engine.database import Database
from repro.engine.datagen import _DEFAULT_STRINGS, DataGenerator
from repro.logic.terms import Const, Var


def query_constants(queries):
    """Collect the string and numeric literals mentioned by ``queries``.

    Returns ``(strings, numerics)`` in first-seen order (deterministic).
    """
    strings, numerics = [], []
    seen_strings, seen_numerics = set(), set()

    def walk(term):
        if isinstance(term, Const):
            if term.vtype == SqlType.STRING:
                value = str(term.value)
                if value not in seen_strings:
                    seen_strings.add(value)
                    strings.append(value)
            elif term.vtype.is_numeric and term.value not in seen_numerics:
                seen_numerics.add(term.value)
                numerics.append(term.value)
        for child in term.children():
            walk(child)

    for query in queries:
        for formula in (query.where, query.having):
            for atom in formula.atoms():
                walk(atom.left)
                walk(atom.right)
        for term in list(query.group_by) + list(query.select):
            walk(term)
    return strings, numerics


def guided_generator(catalog, queries, seed=0, max_rows=3):
    """A seeded generator whose pools cover the queries' own literals.

    String pools start from the queries' string constants (so equality and
    LIKE predicates are satisfiable by random draws) and numeric draws span
    a window around the queries' numeric constants.
    """
    strings, numerics = query_constants(queries)
    pool = strings + [s for s in _DEFAULT_STRINGS[:2] if s not in strings]
    bounds = sorted(int(n) for n in numerics)
    numeric_range = (bounds[0] - 2, bounds[-1] + 2) if bounds else (0, 6)
    return DataGenerator(
        catalog,
        seed=seed,
        max_rows=max_rows,
        numeric_range=numeric_range,
        string_pool=pool,
    )


def build_instance(catalog, queries, model, seed=0):
    """Concrete rows realizing ``model``, one per *distinguishable* alias.

    ``queries`` must share one alias namespace.  Aliases of the same table
    whose model-pinned cells agree share one physical row: the single-row
    divergence formula reasons about one cross-product combination, and
    collapsing compatible self-join aliases keeps the materialized
    instance faithful to it (e.g. ``COUNT(DISTINCT x)`` stays 1 instead
    of picking up a second random row).  Returns ``(database,
    assignments)`` where ``assignments`` lists the pinned cells as
    ``(alias, column, value)`` triples.
    """
    aliases = {}
    for query in queries:
        for entry in query.from_entries:
            aliases.setdefault(entry.alias, entry.table)

    generator = guided_generator(catalog, queries, seed=seed)
    tables = {}  # lower table name -> list of {column: pinned value} rows
    assignments = []
    for alias, table_name in aliases.items():
        table = catalog.table(table_name)
        pinned = {}
        for column in table.columns:
            name = column.name.lower()
            value = None
            if model is not None:
                value = model.value(Var(f"{alias}.{name}", column.type))
            if value is not None:
                assignments.append((alias, name, value))
                pinned[name] = value
        rows = tables.setdefault(table.name.lower(), [])
        for row in rows:
            if all(row.get(k, v) == v for k, v in pinned.items()):
                row.update(pinned)  # compatible: share the physical row
                break
        else:
            rows.append(pinned)

    concrete = {}
    for table_name, rows in tables.items():
        table = catalog.table(table_name)
        concrete[table_name] = [
            {
                column.name.lower(): row.get(
                    column.name.lower(), generator.random_value(column)
                )
                for column in table.columns
            }
            for row in rows
        ]
    return Database(catalog, concrete), tuple(assignments)
