"""Typed whole-query mutation operators with by-construction ground truth.

Each operator takes a correct :class:`~repro.query.ResolvedQuery` and
produces a *wrong* variant plus a :class:`MutationRecord` naming the stage,
the mutation kind, and the textual before/after of the ground-truth repair
site -- so the optimality of the pipeline's hints is checkable by
construction, exactly as the paper's Section 9 WHERE-only injection, but
for every stage the repair pipeline handles.

Operators are deterministic functions of the supplied ``random.Random``;
:func:`mutate_query` composes them sequentially (later mutations apply to
the already-mutated query), re-resolving the rendered SQL after every step
so each emitted mutant is guaranteed to be a well-formed query of the
supported fragment.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from repro.core.from_stage import fresh_alias
from repro.errors import ReproError
from repro.logic.formulas import And, Comparison, TRUE, conj
from repro.logic.paths import all_paths, replace_at
from repro.logic.terms import AggCall, Var
from repro.query import FromEntry, ResolvedQuery
from repro.service.cache import canonical_key
from repro.sqlparser.rewrite import parse_query_extended
from repro.workloads.inject import inject_errors

#: Stages a mutation can target, in pipeline order.
STAGES = ("FROM", "WHERE", "GROUP BY", "HAVING", "SELECT")


@dataclass(frozen=True)
class MutationRecord:
    """Ground truth for one injected error.

    ``site`` is the textual content the *wrong* query now carries at the
    repair site; ``original`` is what the correct query had there.  For
    additive errors (extra table/column/grouping) ``original`` is the
    marker ``"(absent)"``; for dropped content ``site`` is the clause that
    must be extended.
    """

    stage: str  # FROM | WHERE | GROUP BY | HAVING | SELECT
    kind: str  # e.g. "operator-flip", "aggregate-swap", "wrong-table"
    site: str
    original: str

    def to_dict(self):
        return {
            "stage": self.stage,
            "kind": self.kind,
            "site": self.site,
            "original": self.original,
        }


def stages_of(mutations):
    """Distinct stages touched by ``mutations``, in pipeline order."""
    touched = {m.stage for m in mutations}
    return tuple(s for s in STAGES if s in touched)


@dataclass(frozen=True)
class MutatedQuery:
    """A wrong query plus its by-construction ground truth."""

    correct: ResolvedQuery
    wrong: ResolvedQuery
    mutations: tuple  # MutationRecord, in application order

    @property
    def stages(self):
        return stages_of(self.mutations)

    @property
    def difficulty(self):
        """Mutation count x stage mix (how spread-out the errors are)."""
        return len(self.mutations) * len(self.stages)


# ----------------------------------------------------------------------
# Scope helpers
# ----------------------------------------------------------------------


def _scope_vars(query, catalog):
    """Every ``alias.column`` variable the FROM clause puts in scope."""
    out = []
    for entry in query.from_entries:
        table = catalog.table(entry.table)
        if table is None:
            continue
        for column in table.columns:
            out.append(Var(f"{entry.alias}.{column.name.lower()}", column.type))
    return out


def _referenced_columns(query, alias):
    """The (column, type) pairs referenced through ``alias``."""
    prefix = alias + "."
    out = set()
    for obj in [query.where, query.having, *query.group_by, *query.select]:
        for var in obj.variables():
            if var.name.startswith(prefix):
                out.add((var.name[len(prefix):], var.vtype))
    return out


def _render_terms(terms):
    return ", ".join(str(t) for t in terms)


# ----------------------------------------------------------------------
# WHERE / HAVING (predicate) operators
# ----------------------------------------------------------------------


def _mutate_where(query, rng, catalog):
    if query.where == TRUE:
        return None
    try:
        injected = inject_errors(
            query.where, 1, seed=rng.randrange(1 << 30),
            allow_operator_swap=True,
        )
    except ValueError:
        return None
    inj = injected.injections[0]
    mutated = replace(query, where=injected.wrong)
    return mutated, MutationRecord(
        "WHERE", inj.kind, str(inj.mutated), str(inj.original)
    )


def _drop_where_conjunct(query, rng, catalog):
    if not isinstance(query.where, And):
        return None
    operands = list(query.where.operands)
    dropped = operands.pop(rng.randrange(len(operands)))
    remaining = conj(*operands)
    mutated = replace(query, where=remaining)
    return mutated, MutationRecord(
        "WHERE", "missing-condition", str(remaining), str(query.where)
    )


def _mutate_having(query, rng, catalog):
    if query.having == TRUE:
        return None
    # Column swaps could reference non-grouped columns (invalid HAVING in
    # the supported fragment); stick to operator/constant mutations.
    try:
        injected = inject_errors(
            query.having, 1, seed=rng.randrange(1 << 30),
            allow_operator_swap=True,
            kinds=("operator-flip", "operator-weaken", "constant"),
        )
    except ValueError:
        return None
    inj = injected.injections[0]
    mutated = replace(query, having=injected.wrong)
    return mutated, MutationRecord(
        "HAVING", inj.kind, str(inj.mutated), str(inj.original)
    )


def _alias_confusion(query, rng, catalog):
    """Self-join confusion: one WHERE atom uses the wrong alias of a table."""
    by_table = {}
    for entry in query.from_entries:
        by_table.setdefault(entry.table.lower(), []).append(entry.alias)
    shared = {t: a for t, a in by_table.items() if len(a) >= 2}
    if not shared or query.where == TRUE:
        return None
    sites = []
    for path, node in all_paths(query.where):
        if not isinstance(node, Comparison):
            continue
        for side_name, side in (("left", node.left), ("right", node.right)):
            if not isinstance(side, Var):
                continue
            alias, _, column = side.name.partition(".")
            table = query.table_of(alias)
            if table is None:
                continue
            aliases = shared.get(table.lower())
            if not aliases:
                continue
            others = [a for a in aliases if a != alias]
            if others:
                sites.append((path, node, side_name, side, others))
    if not sites:
        return None
    path, node, side_name, var, others = rng.choice(sites)
    _, _, column = var.name.partition(".")
    new_var = Var(f"{rng.choice(others)}.{column}", var.vtype)
    if side_name == "left":
        new_node = Comparison(node.op, new_var, node.right)
    else:
        new_node = Comparison(node.op, node.left, new_var)
    if new_node == node:
        return None
    mutated = replace(
        query, where=replace_at(query.where, {path: new_node})
    )
    return mutated, MutationRecord(
        "WHERE", "alias-confusion", str(new_node), str(node)
    )


# ----------------------------------------------------------------------
# SELECT operators
# ----------------------------------------------------------------------


def _select_column_swap(query, rng, catalog):
    indices = [i for i, t in enumerate(query.select) if isinstance(t, Var)]
    if not indices:
        return None
    scope = _scope_vars(query, catalog)
    rng.shuffle(indices)
    for i in indices:
        current = query.select[i]
        candidates = [
            v for v in scope if v.vtype == current.vtype and v != current
        ]
        if not candidates:
            continue
        new_var = rng.choice(candidates)
        select = list(query.select)
        select[i] = new_var
        mutated = replace(
            query, select=tuple(select), select_aliases=()
        )
        return mutated, MutationRecord(
            "SELECT", "wrong-column", str(new_var), str(current)
        )
    return None


#: Aggregate rewrites students actually make: multiplicity confusion
#: (COUNT vs COUNT(DISTINCT)), statistic confusion (SUM vs AVG), and
#: extremum flips (MIN vs MAX).
def _agg_alternatives(agg):
    out = []
    if agg.func == "COUNT":
        if agg.arg is None:
            pass  # COUNT(*) alternatives need an argument; added by caller
        elif agg.distinct:
            out.append(AggCall("COUNT", agg.arg, distinct=False))
            out.append(AggCall("COUNT"))
        else:
            out.append(AggCall("COUNT", agg.arg, distinct=True))
            out.append(AggCall("COUNT"))
    elif agg.func in ("SUM", "AVG"):
        other = "AVG" if agg.func == "SUM" else "SUM"
        out.append(AggCall(other, agg.arg, agg.distinct))
        out.append(AggCall(agg.func, agg.arg, not agg.distinct))
    elif agg.func in ("MIN", "MAX"):
        other = "MAX" if agg.func == "MIN" else "MIN"
        out.append(AggCall(other, agg.arg, agg.distinct))
    return out


def _select_agg_swap(query, rng, catalog):
    indices = [i for i, t in enumerate(query.select) if isinstance(t, AggCall)]
    if not indices:
        return None
    rng.shuffle(indices)
    for i in indices:
        current = query.select[i]
        alternatives = _agg_alternatives(current)
        if current.func == "COUNT" and current.arg is None:
            scope = _scope_vars(query, catalog)
            if scope:
                alternatives.append(
                    AggCall("COUNT", rng.choice(scope), distinct=True)
                )
        if not alternatives:
            continue
        new_agg = rng.choice(alternatives)
        select = list(query.select)
        select[i] = new_agg
        mutated = replace(
            query, select=tuple(select), select_aliases=()
        )
        return mutated, MutationRecord(
            "SELECT", "aggregate-swap", str(new_agg), str(current)
        )
    return None


def _select_drop(query, rng, catalog):
    if len(query.select) < 2:
        return None
    select = list(query.select)
    dropped = select.pop(rng.randrange(len(select)))
    mutated = replace(query, select=tuple(select), select_aliases=())
    return mutated, MutationRecord(
        "SELECT", "missing-column", _render_terms(select), str(dropped)
    )


def _select_extra(query, rng, catalog):
    scope = [v for v in _scope_vars(query, catalog) if v not in query.select]
    if not scope:
        return None
    if query.group_by:
        # Keep the mutant well-formed for execution: only grouped columns
        # may join an aggregate SELECT list.
        grouped = set()
        for term in query.group_by:
            grouped |= term.variables()
        scope = [v for v in scope if v in grouped]
        if not scope:
            return None
    extra = rng.choice(scope)
    position = rng.randrange(len(query.select) + 1)
    select = list(query.select)
    select.insert(position, extra)
    mutated = replace(query, select=tuple(select), select_aliases=())
    return mutated, MutationRecord(
        "SELECT", "extra-column", str(extra), "(absent)"
    )


def _distinct_toggle(query, rng, catalog):
    if query.group_by:
        # DISTINCT over grouped output is almost always a no-op; skip to
        # keep mutants wrong-by-construction.
        return None
    mutated = replace(query, distinct=not query.distinct)
    if query.distinct:
        record = MutationRecord("SELECT", "distinct", "SELECT", "SELECT DISTINCT")
    else:
        record = MutationRecord("SELECT", "distinct", "SELECT DISTINCT", "SELECT")
    return mutated, record


# ----------------------------------------------------------------------
# GROUP BY operators
# ----------------------------------------------------------------------


def _groupby_drop(query, rng, catalog):
    if len(query.group_by) < 2:
        return None
    referenced = set()
    for obj in [query.having, *query.select]:
        referenced |= obj.variables()
    droppable = [
        i for i, term in enumerate(query.group_by)
        if not (term.variables() & referenced)
    ]
    if not droppable:
        return None
    index = rng.choice(droppable)
    group_by = list(query.group_by)
    dropped = group_by.pop(index)
    mutated = replace(query, group_by=tuple(group_by))
    return mutated, MutationRecord(
        "GROUP BY", "missing-grouping", _render_terms(group_by), str(dropped)
    )


def _groupby_extra(query, rng, catalog):
    if not query.group_by:
        return None
    scope = [
        v for v in _scope_vars(query, catalog) if v not in query.group_by
    ]
    if not scope:
        return None
    extra = rng.choice(scope)
    group_by = list(query.group_by)
    group_by.append(extra)
    mutated = replace(query, group_by=tuple(group_by))
    return mutated, MutationRecord(
        "GROUP BY", "extra-grouping", str(extra), "(absent)"
    )


# ----------------------------------------------------------------------
# FROM operators
# ----------------------------------------------------------------------


def _from_extra_table(query, rng, catalog):
    tables = sorted(t.name for t in catalog)
    if not tables:
        return None
    table = rng.choice(tables)
    used = {e.alias for e in query.from_entries}
    alias = fresh_alias(table, used)
    entries = list(query.from_entries)
    entries.append(FromEntry(table, alias))
    mutated = replace(query, from_entries=tuple(entries))
    return mutated, MutationRecord(
        "FROM", "extra-table", f"{table} {alias}", "(absent)"
    )


def _from_duplicate_table(query, rng, catalog):
    if not query.from_entries:
        return None
    entry = rng.choice(list(query.from_entries))
    used = {e.alias for e in query.from_entries}
    alias = fresh_alias(entry.table, used)
    entries = list(query.from_entries)
    entries.append(FromEntry(entry.table, alias))
    mutated = replace(query, from_entries=tuple(entries))
    return mutated, MutationRecord(
        "FROM", "duplicate-table", f"{entry.table} {alias}", "(absent)"
    )


def _from_table_swap(query, rng, catalog):
    """Swap one FROM table for a different table that still resolves.

    Realistic join-table confusion (conference_paper vs journal_paper):
    the replacement must carry every column the query references through
    the alias, with identical types, so the mutant stays well-formed.
    """
    entries = list(query.from_entries)
    order = list(range(len(entries)))
    rng.shuffle(order)
    for index in order:
        entry = entries[index]
        needed = _referenced_columns(query, entry.alias)
        candidates = []
        for table in catalog:
            if table.name.lower() == entry.table.lower():
                continue
            columns = {
                (c.name.lower(), c.type) for c in table.columns
            }
            if needed <= columns:
                candidates.append(table.name)
        if not candidates:
            continue
        new_table = rng.choice(sorted(candidates))
        swapped = list(entries)
        swapped[index] = FromEntry(new_table, entry.alias)
        mutated = replace(query, from_entries=tuple(swapped))
        return mutated, MutationRecord(
            "FROM", "wrong-table",
            f"{new_table} {entry.alias}", f"{entry.table} {entry.alias}",
        )
    return None


# ----------------------------------------------------------------------
# Composition
# ----------------------------------------------------------------------


#: The operator registry: (stage, operator) in a stable order.  The stage
#: label is the *primary* repair stage of the error (alias confusion lives
#: in FROM conceptually but is repaired by the WHERE stage, so it is
#: registered under WHERE).
OPERATORS = (
    ("WHERE", _mutate_where),
    ("WHERE", _drop_where_conjunct),
    ("WHERE", _alias_confusion),
    ("HAVING", _mutate_having),
    ("SELECT", _select_column_swap),
    ("SELECT", _select_agg_swap),
    ("SELECT", _select_drop),
    ("SELECT", _select_extra),
    ("SELECT", _distinct_toggle),
    ("GROUP BY", _groupby_drop),
    ("GROUP BY", _groupby_extra),
    ("FROM", _from_extra_table),
    ("FROM", _from_duplicate_table),
    ("FROM", _from_table_swap),
)


def mutate_query(query, catalog, num_errors=1, seed=0, rng=None, stages=None,
                 max_attempts=40):
    """Inject ``num_errors`` whole-query errors; returns a
    :class:`MutatedQuery` or None.

    Mutations are applied sequentially (each operator sees the previous
    mutant); every intermediate result is rendered back to SQL and
    re-resolved against ``catalog``, so operators whose output would fall
    outside the supported fragment are discarded and retried.  ``stages``
    optionally restricts the operator pool to the given stage labels.
    Deterministic for a given ``seed`` (or caller-supplied ``rng``).
    """
    rng = rng if rng is not None else random.Random(seed)
    pool = [
        (stage, fn) for stage, fn in OPERATORS
        if stages is None or stage in stages
    ]
    if not pool:
        return None
    current = query
    records = []
    for _ in range(max_attempts):
        if len(records) >= num_errors:
            break
        _, fn = rng.choice(pool)
        result = fn(current, rng, catalog)
        if result is None:
            continue
        mutated, record = result
        try:
            parse_query_extended(mutated.to_sql(), catalog)
        except (ReproError, ValueError):
            continue
        current = mutated
        records.append(record)
    if len(records) < num_errors:
        return None
    if canonical_key(current) == canonical_key(query):
        return None  # the mutations cancelled out syntactically
    return MutatedQuery(correct=query, wrong=current, mutations=tuple(records))
