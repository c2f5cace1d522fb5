"""Single-block rewrites: WITH and aggregation-free FROM subqueries.

Paper footnote 2: queries with common table expressions and
aggregation-free subqueries in FROM can be rewritten into single-block SQL
and handled as such.  This module implements that flattening at the AST
level, before resolution:

* every ``WITH name AS (SELECT ...)`` body is inlined at each use site;
* every aggregation-free ``FROM (SELECT ...) alias`` is merged into the
  outer block -- its FROM entries are spliced in (with alias renaming to
  avoid capture), its WHERE is conjoined, and references to the subquery's
  output columns are replaced by the defining expressions.

:func:`repro.sqlparser.parse` flattens every statement it parses.

Subqueries with grouping, aggregation, or DISTINCT raise
:class:`UnsupportedSQLError`, matching the paper's scope.
"""

from __future__ import annotations

import itertools

from repro.errors import UnsupportedSQLError
from repro.sqlparser import ast


def flatten(statement, ctes):
    """``statement`` as one plain :class:`~repro.sqlparser.ast.SelectStatement`.

    ``ctes`` maps each lower-cased WITH name to its body; every body is
    checked, used or not.
    """
    for name, cte in ctes.items():
        if _has_aggregation(cte):
            raise UnsupportedSQLError(
                f"CTE {name!r} uses aggregation and cannot be flattened"
            )
    return _flatten(statement, ctes, itertools.count(1))


def _has_aggregation(statement):
    """GROUP BY, HAVING, DISTINCT, or an aggregate call in SELECT or WHERE."""
    calls = []

    def visit(node):
        if isinstance(node, ast.FuncCall):
            calls.append(node)
            return node
        return None

    for expr in (*(item.expr for item in statement.select_items),
                 statement.where):
        if expr is not None:
            _transform(expr, visit)
    return bool(
        statement.group_by or statement.having is not None
        or statement.distinct or calls
    )


def _flatten(statement, ctes, counter):
    """An equivalent plain :class:`SelectStatement`; ``counter`` numbers
    the fresh ``<alias>_qN`` aliases of spliced-in tables."""
    out = ast.SelectStatement(distinct=statement.distinct)
    extra_where = []
    substitutions = {}  # (qualifier, column) -> replacement expr
    for source in statement.from_tables:
        if isinstance(source, ast.SubquerySource):
            inner = source.statement
        elif isinstance(source, ast.TableRef) and source.table.lower() in ctes:
            inner = ctes[source.table.lower()]
            source = ast.SubquerySource(inner, source.effective_alias)
        else:
            out.from_tables.append(source)
            continue
        if _has_aggregation(inner):
            raise UnsupportedSQLError(
                "subqueries with aggregation/DISTINCT in FROM cannot be "
                "flattened into a single block"
            )
        inner = _flatten(inner, ctes, counter)
        rename = {}
        for table_ref in inner.from_tables:
            fresh = f"{source.alias}_q{next(counter)}"
            rename[table_ref.effective_alias.lower()] = fresh
            out.from_tables.append(ast.TableRef(table_ref.table, fresh))
        if inner.where is not None:
            extra_where.append(_rename_expr(inner.where, rename))
        for item in inner.select_items:
            column_name = item.alias or _implied_name(item.expr)
            if column_name is None:
                raise UnsupportedSQLError(
                    "subquery output expressions need aliases"
                )
            substitutions[(source.alias.lower(), column_name.lower())] = (
                _rename_expr(item.expr, rename)
            )
    out.select_items = [
        ast.SelectItem(_substitute_refs(i.expr, substitutions), i.alias)
        for i in statement.select_items
    ]
    where_parts = []
    if statement.where is not None:
        where_parts.append(_substitute_refs(statement.where, substitutions))
    where_parts.extend(extra_where)
    if where_parts:
        combined = where_parts[0]
        for part in where_parts[1:]:
            combined = ast.BinaryExpr("AND", combined, part)
        out.where = combined
    out.group_by = [
        _substitute_refs(e, substitutions) for e in statement.group_by
    ]
    if statement.having is not None:
        out.having = _substitute_refs(statement.having, substitutions)
    return out


def _implied_name(expr):
    if isinstance(expr, ast.ColumnRef):
        return expr.column
    return None


def _rename_expr(expr, rename):
    """Rename table qualifiers per ``rename`` (lower-cased keys).

    Unqualified references are pinned to the (single) renamed source when
    the subquery has exactly one FROM table, so they stay unambiguous after
    splicing into the outer block.
    """
    sole_target = next(iter(rename.values())) if len(rename) == 1 else None

    def visit(node):
        if not isinstance(node, ast.ColumnRef):
            return None
        if node.qualifier is None:
            if sole_target is not None:
                return ast.ColumnRef(sole_target, node.column)
            return None
        return ast.ColumnRef(
            rename.get(node.qualifier.lower(), node.qualifier), node.column
        )

    return _transform(expr, visit)


def _substitute_refs(expr, substitutions):
    """Replace subquery output references by their defining expressions."""

    def visit(node):
        if isinstance(node, ast.ColumnRef) and node.qualifier is not None:
            key = (node.qualifier.lower(), node.column.lower())
            if key in substitutions:
                return substitutions[key]
        return None

    return _transform(expr, visit)


def _transform(expr, visit):
    replacement = visit(expr)
    if replacement is not None:
        return replacement
    if isinstance(expr, ast.BinaryExpr):
        return ast.BinaryExpr(
            expr.op, _transform(expr.left, visit), _transform(expr.right, visit)
        )
    if isinstance(expr, ast.UnaryExpr):
        return ast.UnaryExpr(expr.op, _transform(expr.operand, visit))
    if isinstance(expr, ast.FuncCall):
        arg = None if expr.arg is None else _transform(expr.arg, visit)
        return ast.FuncCall(expr.name, arg, expr.distinct)
    return expr


def __getattr__(name):
    # ``parse_query_extended`` is a second name for ``parse_query``, for
    # callers that import it from here (perfbench's among them).  It is
    # looked up on first use because the parser imports this module.
    if name == "parse_query_extended":
        from repro.sqlparser.resolver import parse_query

        return parse_query
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
