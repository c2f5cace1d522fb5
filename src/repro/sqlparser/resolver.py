"""Name resolution: unresolved SQL AST -> :class:`ResolvedQuery`.

Resolution qualifies every column reference against the FROM aliases,
assigns SQL types from the catalog, converts expressions into logic terms
and conditions into formulas, and enforces the validity rules of the
supported fragment (aggregates only in HAVING/SELECT, HAVING references
only grouped columns or aggregates, ...).
"""

from __future__ import annotations

from fractions import Fraction

from repro.catalog import SqlType
from repro.errors import ResolutionError, TypeError_, UnsupportedSQLError
from repro.logic.formulas import Comparison, TRUE, conj, disj, neg
from repro.logic.terms import AggCall, Arith, Const, Neg, Var
from repro.query import FromEntry, ResolvedQuery
from repro.sqlparser import ast
from repro.sqlparser.parser import COMPARISON_OPS, parse


class Resolver:
    def __init__(self, catalog, statement):
        self.catalog = catalog
        self.statement = statement
        self.entries = []
        self.alias_tables = {}

    def resolve(self):
        self._resolve_from()
        where = self._resolve_condition(self.statement.where, allow_agg=False)
        group_by = tuple(
            self._resolve_term(e, allow_agg=False) for e in self.statement.group_by
        )
        having = self._resolve_condition(self.statement.having, allow_agg=True)
        select_terms = []
        select_aliases = []
        for item in self.statement.select_items:
            term = self._resolve_term(item.expr, allow_agg=True)
            select_terms.append(term)
            select_aliases.append(item.alias)
        query = ResolvedQuery(
            from_entries=tuple(self.entries),
            where=where,
            group_by=group_by,
            having=having,
            select=tuple(select_terms),
            select_aliases=tuple(select_aliases),
            distinct=self.statement.distinct,
        )
        self._check_grouping_validity(query)
        return query

    # -- FROM -------------------------------------------------------------

    def _resolve_from(self):
        for ref in self.statement.from_tables:
            table = self.catalog.table(ref.table)
            if table is None:
                raise ResolutionError(f"unknown table {ref.table!r}")
            alias = (ref.alias or ref.table).lower()
            if alias in self.alias_tables:
                raise ResolutionError(f"duplicate alias {alias!r} in FROM")
            self.alias_tables[alias] = table
            self.entries.append(FromEntry(table.name, alias))

    # -- columns ------------------------------------------------------------

    def _resolve_column(self, ref):
        if ref.qualifier is not None:
            alias = ref.qualifier.lower()
            table = self.alias_tables.get(alias)
            if table is None:
                raise ResolutionError(f"unknown table alias {ref.qualifier!r}")
            column = table.column(ref.column)
            if column is None:
                raise ResolutionError(
                    f"no column {ref.column!r} in {table.name} (alias {alias})"
                )
            return Var(f"{alias}.{column.name.lower()}", column.type)
        matches = []
        for alias, table in self.alias_tables.items():
            column = table.column(ref.column)
            if column is not None:
                matches.append((alias, column))
        if not matches:
            raise ResolutionError(f"unknown column {ref.column!r}")
        if len(matches) > 1:
            aliases = ", ".join(alias for alias, _ in matches)
            raise ResolutionError(
                f"ambiguous column {ref.column!r} (candidates: {aliases})"
            )
        alias, column = matches[0]
        return Var(f"{alias}.{column.name.lower()}", column.type)

    # -- terms --------------------------------------------------------------

    def _resolve_term(self, expr, allow_agg, inside_agg=False):
        if isinstance(expr, ast.ColumnRef):
            return self._resolve_column(expr)
        if isinstance(expr, ast.NumberLit):
            if "." in expr.text:
                return Const(
                    Fraction(expr.text).limit_denominator(10**9), SqlType.FLOAT
                )
            return Const(Fraction(int(expr.text)), SqlType.INT)
        if isinstance(expr, ast.StringLit):
            return Const(expr.value, SqlType.STRING)
        if isinstance(expr, ast.UnaryExpr) and expr.op == "-":
            operand = self._resolve_term(expr.operand, allow_agg, inside_agg)
            if not operand.type.is_numeric:
                raise TypeError_(f"arithmetic over a non-numeric operand: {expr}")
            return Neg(operand)
        if isinstance(expr, ast.BinaryExpr) and expr.op in ("+", "-", "*", "/"):
            left = self._resolve_term(expr.left, allow_agg, inside_agg)
            right = self._resolve_term(expr.right, allow_agg, inside_agg)
            if not (left.type.is_numeric and right.type.is_numeric):
                raise TypeError_(f"arithmetic over non-numeric operands: {expr}")
            return Arith(expr.op, left, right)
        if isinstance(expr, ast.FuncCall):
            if not allow_agg:
                raise UnsupportedSQLError(
                    f"aggregate {expr.name} not allowed in this clause"
                )
            if inside_agg:
                raise UnsupportedSQLError("nested aggregates are not supported")
            arg = None
            if expr.arg is not None:
                arg = self._resolve_term(expr.arg, allow_agg=False, inside_agg=True)
                if expr.name in ("SUM", "AVG") and not arg.type.is_numeric:
                    raise TypeError_(f"{expr.name} over non-numeric argument")
            return AggCall(expr.name, arg, expr.distinct)
        raise UnsupportedSQLError(f"unsupported expression {expr}")

    # -- conditions ---------------------------------------------------------

    def _resolve_condition(self, expr, allow_agg):
        if expr is None:
            return TRUE
        return self._condition(expr, allow_agg)

    def _condition(self, expr, allow_agg):
        if isinstance(expr, ast.BoolLit):
            return TRUE if expr.value else ~TRUE
        if isinstance(expr, ast.BinaryExpr) and expr.op in ("AND", "OR"):
            left = self._condition(expr.left, allow_agg)
            right = self._condition(expr.right, allow_agg)
            return conj(left, right) if expr.op == "AND" else disj(left, right)
        if isinstance(expr, ast.UnaryExpr) and expr.op == "NOT":
            return neg(self._condition(expr.operand, allow_agg))
        if isinstance(expr, ast.BinaryExpr) and (
            expr.op in COMPARISON_OPS or expr.op in ("LIKE", "NOT LIKE")
        ):
            left = self._resolve_term(expr.left, allow_agg)
            right = self._resolve_term(expr.right, allow_agg)
            self._check_comparison_types(expr.op, left, right)
            return Comparison(expr.op, left, right)
        raise UnsupportedSQLError(f"unsupported condition {expr}")

    def _check_comparison_types(self, op, left, right):
        if op in ("LIKE", "NOT LIKE"):
            if left.type != SqlType.STRING or right.type != SqlType.STRING:
                raise TypeError_(f"LIKE requires string operands: {left} {op} {right}")
            return
        if left.type.is_numeric and right.type.is_numeric:
            return
        if left.type == right.type:
            return
        raise TypeError_(f"type mismatch: {left} ({left.type}) {op} {right} ({right.type})")

    # -- grouping validity ----------------------------------------------------

    def _check_grouping_validity(self, query):
        if not query.is_spja or (not query.group_by and not query.having.has_aggregate()
                                 and not any(t.has_aggregate() for t in query.select)):
            return
        if not query.group_by and query.having == TRUE:
            # Pure aggregation without GROUP BY: SELECT must be all-aggregate.
            return
        grouped_vars = set()
        for term in query.group_by:
            grouped_vars |= term.variables()
        for atom in query.having.atoms():
            for side in (atom.left, atom.right):
                self._check_grouped_term(side, query.group_by, grouped_vars, "HAVING")

    def _check_grouped_term(self, term, group_by, grouped_vars, clause):
        if term in group_by:
            return
        if isinstance(term, AggCall):
            return
        if isinstance(term, Var):
            if term not in grouped_vars:
                raise UnsupportedSQLError(
                    f"{clause} references non-grouped column {term}"
                )
            return
        for child in term.children():
            self._check_grouped_term(child, group_by, grouped_vars, clause)


def resolve(statement, catalog):
    """Resolve a parsed statement against a catalog."""
    return Resolver(catalog, statement).resolve()


def parse_query(text, catalog):
    """Parse and resolve SQL text in one step."""
    return resolve(parse(text), catalog)
