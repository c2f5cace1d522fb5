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

Subqueries with grouping, aggregation, or DISTINCT raise
:class:`UnsupportedSQLError`, matching the paper's scope.
"""

from __future__ import annotations

from repro.errors import ParseError, UnsupportedSQLError
from repro.sqlparser import ast
from repro.sqlparser.parser import Parser


class ExtendedParser(Parser):
    """Parser accepting WITH clauses and parenthesized FROM subqueries."""

    def parse_statement(self):
        ctes = {}
        if self.accept_keyword_word("WITH"):
            while True:
                name_token = self.advance()
                if name_token.kind != "ident":
                    raise ParseError("expected CTE name", name_token.position)
                self.expect_keyword("AS")
                self.expect_op("(")
                ctes[name_token.value.lower()] = self.parse_select_only()
                self.expect_op(")")
                if not self.accept_op(","):
                    break
        return self.parse_select(), ctes

    def accept_keyword_word(self, word):
        """Accept an identifier-or-keyword matching ``word`` (WITH is not a
        reserved keyword in the base lexer)."""
        token = self.current
        if token.kind == "ident" and token.value.upper() == word:
            self.advance()
            return True
        return False

    def _table_source(self):
        if self.current.is_op("("):
            self.advance()
            subquery = self.parse_select_only()
            self.expect_op(")")
            self.accept_keyword("AS")
            alias_token = self.advance()
            if alias_token.kind != "ident":
                raise ParseError(
                    "subquery in FROM requires an alias", alias_token.position
                )
            return SubquerySource(subquery, alias_token.value)
        return self._table_ref()


class SubquerySource:
    """A parenthesized SELECT used as a FROM source."""

    def __init__(self, statement, alias):
        self.statement = statement
        self.alias = alias


def _has_aggregation(statement):
    if statement.group_by or statement.having is not None or statement.distinct:
        return True

    def walk(expr):
        if isinstance(expr, ast.FuncCall):
            return True
        for attr in ("left", "right", "operand", "arg", "expr"):
            child = getattr(expr, attr, None)
            if isinstance(child, ast.SqlExpr) and walk(child):
                return True
        return False

    for item in statement.select_items:
        if walk(item.expr):
            return True
    if statement.where is not None and walk(statement.where):
        return True
    return False


class _Flattener:
    def __init__(self):
        self._counter = 0

    def fresh_alias(self, base):
        self._counter += 1
        return f"{base}_q{self._counter}"

    def flatten(self, statement, ctes):
        """Return an equivalent plain :class:`SelectStatement`."""
        out = ast.SelectStatement(
            distinct=statement.distinct,
            group_by=list(statement.group_by),
            having=statement.having,
        )
        extra_where = []
        substitutions = {}  # (qualifier, column) -> replacement expr
        for source in statement.from_tables:
            if isinstance(source, SubquerySource):
                inner = source.statement
            elif isinstance(source, ast.TableRef) and source.table.lower() in ctes:
                inner = ctes[source.table.lower()]
                source = SubquerySource(inner, source.effective_alias)
            else:
                out.from_tables.append(source)
                continue
            if _has_aggregation(inner):
                raise UnsupportedSQLError(
                    "subqueries with aggregation/DISTINCT in FROM cannot be "
                    "flattened into a single block"
                )
            inner = self.flatten(inner, ctes)  # recursively flatten
            rename = {}
            for table_ref in inner.from_tables:
                fresh = self.fresh_alias(source.alias)
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


def parse_extended(text):
    """Parse SQL with WITH/FROM-subquery support; returns a flat statement."""
    parser = ExtendedParser(text)
    statement, ctes = parser.parse_statement()
    flattened_ctes = {}
    flattener = _Flattener()
    for name, cte in ctes.items():
        if _has_aggregation(cte):
            raise UnsupportedSQLError(
                f"CTE {name!r} uses aggregation and cannot be flattened"
            )
        flattened_ctes[name] = cte
    return flattener.flatten(statement, flattened_ctes)


def parse_query_extended(text, catalog):
    """Parse (with rewrites) and resolve against a catalog."""
    from repro.sqlparser.resolver import resolve

    return resolve(parse_extended(text), catalog)
