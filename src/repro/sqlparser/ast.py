"""Unresolved SQL abstract syntax tree.

The parser produces these nodes; the resolver turns them into the typed
logic representation (:mod:`repro.query`) used by the rest of the system.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class SqlExpr:
    """Base class for unresolved SQL expressions."""

    __slots__ = ()


@dataclass(frozen=True)
class ColumnRef(SqlExpr):
    """``column`` or ``qualifier.column``."""

    qualifier: str | None
    column: str

    def __str__(self):
        if self.qualifier:
            return f"{self.qualifier}.{self.column}"
        return self.column


@dataclass(frozen=True)
class NumberLit(SqlExpr):
    text: str

    def __str__(self):
        return self.text


@dataclass(frozen=True)
class StringLit(SqlExpr):
    value: str

    def __str__(self):
        escaped = self.value.replace("'", "''")
        return f"'{escaped}'"


@dataclass(frozen=True)
class BoolLit(SqlExpr):
    value: bool

    def __str__(self):
        return "TRUE" if self.value else "FALSE"


@dataclass(frozen=True)
class BinaryExpr(SqlExpr):
    """Arithmetic, comparison, or logical binary operation."""

    op: str
    left: SqlExpr
    right: SqlExpr

    def __str__(self):
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class UnaryExpr(SqlExpr):
    """``-expr`` or ``NOT expr``."""

    op: str
    operand: SqlExpr

    def __str__(self):
        return f"({self.op} {self.operand})"


@dataclass(frozen=True)
class FuncCall(SqlExpr):
    """Aggregate call: ``COUNT(*)``, ``SUM(DISTINCT x)``, ...."""

    name: str
    arg: SqlExpr | None  # None means '*'
    distinct: bool = False

    def __str__(self):
        inner = "*" if self.arg is None else str(self.arg)
        if self.distinct:
            inner = f"DISTINCT {inner}"
        return f"{self.name}({inner})"


@dataclass(frozen=True)
class SelectItem:
    expr: SqlExpr
    alias: str | None = None

    def __str__(self):
        if self.alias:
            return f"{self.expr} AS {self.alias}"
        return str(self.expr)


@dataclass(frozen=True)
class TableRef:
    table: str
    alias: str | None = None

    @property
    def effective_alias(self):
        return self.alias or self.table

    def __str__(self):
        if self.alias:
            return f"{self.table} {self.alias}"
        return self.table


@dataclass(frozen=True)
class SubquerySource:
    """A parenthesized SELECT used as a FROM source: ``(SELECT ...) alias``."""

    statement: SelectStatement
    alias: str

    def __str__(self):
        return f"({self.statement}) {self.alias}"


@dataclass
class SelectStatement:
    """A SELECT block.  Its FROM may hold :class:`SubquerySource` s until
    :func:`~repro.sqlparser.parse` flattens it into a single block."""

    select_items: list[SelectItem] = field(default_factory=list)
    distinct: bool = False
    from_tables: list[TableRef | SubquerySource] = field(default_factory=list)
    where: SqlExpr | None = None
    group_by: list[SqlExpr] = field(default_factory=list)
    having: SqlExpr | None = None

    def __str__(self):
        parts = ["SELECT"]
        if self.distinct:
            parts.append("DISTINCT")
        parts.append(", ".join(str(item) for item in self.select_items))
        parts.append("FROM " + ", ".join(str(t) for t in self.from_tables))
        if self.where is not None:
            parts.append(f"WHERE {self.where}")
        if self.group_by:
            parts.append("GROUP BY " + ", ".join(str(e) for e in self.group_by))
        if self.having is not None:
            parts.append(f"HAVING {self.having}")
        return " ".join(parts)
