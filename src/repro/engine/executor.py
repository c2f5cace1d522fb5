"""Bag-semantics execution of resolved queries.

Implements the logical execution flow of the paper (Section 3):
``F -> FW -> FWG -> FWGH -> SELECT``.  Intermediate results are exposed so
tests can check stage-level equivalences (``F(Q) == F(Q*)``,
``FW(Q) == FW(Q*)``, grouping partitions, ...), not just final outputs.
"""

from __future__ import annotations

from fractions import Fraction

from repro.logic.evaluate import eval_formula, eval_term
from repro.logic.formulas import TRUE, And, Comparison
from repro.logic.terms import AggCall, Arith, Var


def cross_product(query, database):
    """``F(Q)``: the bag of joined environments over the FROM tables.

    Each environment maps ``alias.column`` to a value.  Environments are
    *streamed* (this is a generator) in ``itertools.product`` order, the
    first FROM entry outermost: the cross product over k tables is
    |T1| x ... x |Tk| environments, and materializing it dominates memory
    on the TPC-H stress runs.  Only the per-table row lists are held.
    """
    return _walk(query, database, ())


def filtered_rows(query, database):
    """``FW(Q)``: cross product filtered by the WHERE condition (streamed).

    The walk of :func:`cross_product` checks each top-level WHERE conjunct
    at the first FROM position that binds all its variables, and skips
    the whole subtree below a partial environment that fails one (System
    R predicate placement).  Only the leading run of conjuncts that cannot
    raise is placed early; see :func:`_placements` for why the result,
    its order and its exceptions are exactly those of evaluating WHERE on
    every complete environment.
    """
    where = query.where
    conjuncts = where.operands if isinstance(where, And) else (where,)
    return _walk(query, database, conjuncts)


def _walk(query, database, conjuncts):
    """Nested-loop walk over the FROM entries with ``conjuncts`` placed.

    Level 0 is the empty combination, where variable-free conjuncts are
    checked once; level i binds the i-th FROM entry.  Relies on every row
    of a table having the table's columns, as :meth:`Database.set_table`
    ensures.
    """
    levels = [[{}]]
    bound_at = {}  # alias.column -> last level binding it
    for position, entry in enumerate(query.from_entries, 1):
        prefix = f"{entry.alias}."
        rows = [
            {prefix + column: value for column, value in row.items()}
            for row in database.rows(entry.table)
        ]
        if not rows:
            return  # an empty table empties the product
        bound_at.update(dict.fromkeys(rows[0], position))
        levels.append(rows)
    checks = _placements(conjuncts, bound_at, len(levels))
    yield from _descend(levels, checks, {}, 0)


def _descend(levels, checks, env, depth):
    """Bind each row of level ``depth`` in ``env`` and recurse past checks.

    ``env`` is updated in place and copied for each complete environment
    that passes.  A check at level d reads only columns bound at levels
    <= d, so the stale columns of deeper levels are never read.
    """
    deeper = depth + 1 < len(levels)
    level_checks = checks[depth]
    for row in levels[depth]:
        env.update(row)
        for conjunct in level_checks:
            if not eval_formula(conjunct, env):
                break
        else:
            if deeper:
                yield from _descend(levels, checks, env, depth + 1)
            else:
                yield dict(env)


def _placements(conjuncts, bound_at, depth):
    """The conjuncts to check at each of ``depth`` walk levels.

    Conjuncts of the leading run that cannot raise are placed at the first
    level binding all their variables; from the first one that can raise
    on, every conjunct stays at the innermost level, in order.  That is
    exact: evaluating WHERE on a complete environment runs its conjuncts
    left to right and stops at the first false one.  A placed conjunct
    that fails comes before any conjunct that can raise, so the full
    evaluation would also have stopped without raising; on every
    surviving environment the innermost level then runs the rest in the
    original order, and raises exactly where the full evaluation would.
    """
    checks = [[] for _ in range(depth)]
    for index, conjunct in enumerate(conjuncts):
        level = _level(conjunct, bound_at)
        if level is None:
            checks[-1].extend(conjuncts[index:])
            break
        checks[level].append(conjunct)
    return checks


def _level(formula, bound_at):
    """The first walk level binding every column ``formula`` reads.

    None if evaluating ``formula`` can raise: it divides (perhaps by
    zero), holds an aggregate, or reads a column that no FROM alias binds.
    The resolver type-checks comparisons and arithmetic, so nothing else
    in a resolved WHERE raises.  One pass over the tree, since a walk is
    planned on every execution.
    """
    level = 0
    stack = [formula]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            position = bound_at.get(node.name)
            if position is None:
                return None
            level = max(level, position)
        elif isinstance(node, Comparison):
            stack += (node.left, node.right)
        elif isinstance(node, AggCall) or (
            isinstance(node, Arith) and node.op == "/"
        ):
            return None
        else:
            stack += node.children()
    return level


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
    return sorted(groups.items(), key=lambda kv: _row_key(kv[0]))


def _has_agg(query):
    if query.having.has_aggregate():
        return True
    return any(term.has_aggregate() for term in query.select)


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
