"""Bag-semantics execution of resolved queries.

Implements the logical execution flow of the paper (Section 3):
``F -> FW -> FWG -> FWGH -> SELECT``.  Intermediate results are exposed so
tests can check stage-level equivalences (``F(Q) == F(Q*)``,
``FW(Q) == FW(Q*)``, grouping partitions, ...), not just final outputs.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from repro.logic.evaluate import eval_formula, eval_term
from repro.logic.formulas import TRUE


def cross_product(query, database):
    """``F(Q)``: the bag of joined environments over the FROM tables.

    Each environment maps ``alias.column`` to a value.  Environments are
    *streamed* (this is a generator): the cross product over k tables is
    |T1| x ... x |Tk| environments, and materializing it dominates memory
    on the TPC-H stress runs.  Only the per-table row lists are held.
    """
    per_alias = []
    for entry in query.from_entries:
        rows = database.rows(entry.table)
        alias_rows = [
            {f"{entry.alias}.{col}": value for col, value in row.items()}
            for row in rows
        ]
        per_alias.append(alias_rows)
    for combo in itertools.product(*per_alias):
        env = {}
        for part in combo:
            env.update(part)
        yield env


def filtered_rows(query, database):
    """``FW(Q)``: cross product filtered by the WHERE condition (streamed)."""
    return (
        env
        for env in cross_product(query, database)
        if eval_formula(query.where, env)
    )


def grouped_rows(query, database):
    """``FWG(Q)``: partition of FW(Q) by the GROUP BY expressions.

    Returns a list of (key, [envs]) pairs.  Queries with aggregation but no
    GROUP BY form a single group (key ``()``); non-aggregating queries put
    every row in its own group.
    """
    rows = filtered_rows(query, database)
    if not query.group_by:
        if _has_agg(query):
            rows = list(rows)
            return [((), rows)] if rows else []
        return [((i,), [env]) for i, env in enumerate(rows)]
    groups = {}
    for env in rows:
        key = tuple(eval_term(term, env) for term in query.group_by)
        groups.setdefault(key, []).append(env)
    return sorted(groups.items(), key=lambda kv: _sort_key(kv[0]))


def _has_agg(query):
    if query.having.has_aggregate():
        return True
    return any(term.has_aggregate() for term in query.select)


def _sort_key(values):
    return tuple(
        (0, float(v)) if isinstance(v, Fraction) else (1, str(v)) for v in values
    )


def _aggregate_value(agg, envs):
    if agg.func == "COUNT" and agg.arg is None:
        return Fraction(len(envs))
    values = [eval_term(agg.arg, env) for env in envs]
    if agg.distinct:
        seen = []
        for v in values:
            if v not in seen:
                seen.append(v)
        values = seen
    if agg.func == "COUNT":
        return Fraction(len(values))
    if not values:
        raise ValueError("aggregate over empty group")  # cannot happen: groups nonempty
    if agg.func == "SUM":
        return sum(values, Fraction(0))
    if agg.func == "AVG":
        return Fraction(sum(values, Fraction(0))) / len(values)
    if agg.func == "MIN":
        return min(values)
    if agg.func == "MAX":
        return max(values)
    raise ValueError(f"unknown aggregate {agg.func}")


def _group_env(query, envs):
    """Environment for HAVING/SELECT evaluation over one group."""
    env = dict(envs[0])  # group-by columns are constant within the group
    aggs = set(query.having.aggregates())
    for term in query.select:
        aggs |= term.aggregates()
    for agg in aggs:
        env[str(agg)] = _aggregate_value(agg, envs)
    return env


def having_groups(query, database):
    """``FWGH(Q)``: groups surviving the HAVING filter."""
    out = []
    for key, envs in grouped_rows(query, database):
        if query.is_spja and (query.group_by or _has_agg(query)):
            env = _group_env(query, envs)
            if query.having != TRUE and not eval_formula(query.having, env):
                continue
            out.append((key, envs, env))
        else:
            out.append((key, envs, envs[0]))
    return out


def execute(query, database):
    """Run the query; returns the result as a list (bag) of value tuples."""
    results = []
    if query.is_spja and (query.group_by or _has_agg(query)):
        for _, _, env in having_groups(query, database):
            results.append(tuple(eval_term(term, env) for term in query.select))
    else:
        for env in filtered_rows(query, database):
            results.append(tuple(eval_term(term, env) for term in query.select))
    if query.distinct:
        deduped = []
        for row in results:
            if row not in deduped:
                deduped.append(row)
        results = deduped
    return results


def bag_equal(rows_a, rows_b):
    """Multiset equality of result bags (ignoring row order)."""
    if len(rows_a) != len(rows_b):
        return False
    return sorted(map(_row_key, rows_a)) == sorted(map(_row_key, rows_b))


def _row_key(row):
    return tuple(
        (0, float(v)) if isinstance(v, Fraction) else (1, str(v)) for v in row
    )
