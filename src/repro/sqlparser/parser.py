"""Recursive-descent parser for single-block SPJ/SPJA SQL.

Grammar (informal), matching the fragment of the paper (Section 3) plus
the WITH clauses and FROM subqueries of its footnote 2, which
:func:`parse` flattens into one block (:mod:`repro.sqlparser.rewrite`):

    statement   := [WITH cte (, cte)*] select
    cte         := name AS '(' select ')'
    select      := SELECT [DISTINCT] select_item (, select_item)*
                   FROM source (, source)*
                   [WHERE condition]
                   [GROUP BY expr (, expr)*]
                   [HAVING condition]
    source      := name [[AS] alias] | '(' select ')' [AS] alias
    condition   := and_expr (OR and_expr)*
    and_expr    := not_expr (AND not_expr)*
    not_expr    := NOT not_expr | predicate
    predicate   := expr (cmp_op expr | [NOT] LIKE expr) | TRUE | FALSE
                 | '(' condition ')'
    expr        := term ((+|-) term)*
    term        := factor ((*|/) factor)*
    factor      := '-' factor | primary
    primary     := number | string | column_ref | agg_call | '(' expr ')'

WITH is not a reserved word: it is an identifier spelled ``WITH`` in
any case.
"""

from __future__ import annotations

from repro.errors import ParseError, UnsupportedSQLError
from repro.sqlparser.ast import (
    BinaryExpr,
    BoolLit,
    ColumnRef,
    FuncCall,
    NumberLit,
    SelectItem,
    SelectStatement,
    StringLit,
    SubquerySource,
    TableRef,
    UnaryExpr,
)
from repro.sqlparser.lexer import tokenize
from repro.sqlparser.rewrite import flatten

AGG_NAMES = {"SUM", "AVG", "COUNT", "MIN", "MAX"}
COMPARISON_OPS = {"=", "<>", "<", "<=", ">", ">="}


class Parser:
    def __init__(self, text):
        self.tokens = tokenize(text)
        self.pos = 0

    # -- token plumbing -------------------------------------------------

    @property
    def current(self):
        return self.tokens[self.pos]

    def advance(self):
        token = self.current
        self.pos += 1
        return token

    def expect_keyword(self, name):
        if not self.current.is_keyword(name):
            raise ParseError(f"expected {name}", self.current.position)
        return self.advance()

    def expect_op(self, op):
        if not self.current.is_op(op):
            raise ParseError(f"expected {op!r}", self.current.position)
        return self.advance()

    def accept_keyword(self, *names):
        if self.current.is_keyword(*names):
            return self.advance()
        return None

    def accept_op(self, *ops):
        if self.current.is_op(*ops):
            return self.advance()
        return None

    # -- statement ------------------------------------------------------

    def parse_statement(self):
        """The whole input: ``(select, {cte name: select})``."""
        ctes = {}
        token = self.current
        if token.kind == "ident" and token.value.upper() == "WITH":
            self.advance()
            while True:
                name_token = self.advance()
                if name_token.kind != "ident":
                    raise ParseError("expected CTE name", name_token.position)
                self.expect_keyword("AS")
                self.expect_op("(")
                ctes[name_token.value.lower()] = self._select()
                self.expect_op(")")
                if not self.accept_op(","):
                    break
        stmt = self._select()
        if self.accept_keyword("ORDER"):
            raise UnsupportedSQLError("ORDER BY is outside the supported fragment")
        if self.current.kind != "eof":
            raise ParseError(
                f"unexpected trailing input {self.current.value!r}",
                self.current.position,
            )
        return stmt, ctes

    def _select(self):
        """One SELECT block, leaving whatever follows it unread."""
        self.expect_keyword("SELECT")
        stmt = SelectStatement()
        stmt.distinct = bool(self.accept_keyword("DISTINCT"))
        stmt.select_items.append(self._select_item())
        while self.accept_op(","):
            stmt.select_items.append(self._select_item())
        self.expect_keyword("FROM")
        stmt.from_tables.append(self._source())
        while self.accept_op(","):
            stmt.from_tables.append(self._source())
        if self.accept_keyword("WHERE"):
            stmt.where = self._condition()
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            stmt.group_by.append(self._expr())
            while self.accept_op(","):
                stmt.group_by.append(self._expr())
        if self.accept_keyword("HAVING"):
            stmt.having = self._condition()
        return stmt

    def _select_item(self):
        if self.current.is_op("*"):
            raise UnsupportedSQLError("SELECT * is not supported; list columns")
        return SelectItem(self._expr(), self._alias())

    def _source(self):
        if self.accept_op("("):
            subquery = self._select()
            self.expect_op(")")
            self.accept_keyword("AS")
            alias_token = self.advance()
            if alias_token.kind != "ident":
                raise ParseError(
                    "subquery in FROM requires an alias", alias_token.position
                )
            return SubquerySource(subquery, alias_token.value)
        token = self.advance()
        if token.kind != "ident":
            raise ParseError("expected table name", token.position)
        return TableRef(token.value, self._alias())

    def _alias(self):
        """``AS alias``, a bare ``alias`` or nothing (None)."""
        if self.accept_keyword("AS"):
            token = self.advance()
            if token.kind != "ident":
                raise ParseError("expected alias after AS", token.position)
            return token.value
        if self.current.kind == "ident":
            return self.advance().value
        return None

    # -- conditions -----------------------------------------------------

    def _condition(self):
        left = self._and_expr()
        while self.accept_keyword("OR"):
            right = self._and_expr()
            left = BinaryExpr("OR", left, right)
        return left

    def _and_expr(self):
        left = self._not_expr()
        while self.accept_keyword("AND"):
            right = self._not_expr()
            left = BinaryExpr("AND", left, right)
        return left

    def _not_expr(self):
        if self.accept_keyword("NOT"):
            return UnaryExpr("NOT", self._not_expr())
        return self._predicate()

    def _predicate(self):
        if self.accept_keyword("TRUE"):
            return BoolLit(True)
        if self.accept_keyword("FALSE"):
            return BoolLit(False)
        # Parenthesized sub-condition vs parenthesized arithmetic: parse a
        # condition and let comparison chaining below resolve ambiguity.
        if self.current.is_op("("):
            checkpoint = self.pos
            self.advance()
            try:
                inner = self._condition()
                self.expect_op(")")
            except ParseError:
                self.pos = checkpoint
            else:
                if self._at_comparison():
                    # It was actually a parenthesized arithmetic expression.
                    self.pos = checkpoint
                else:
                    return inner
        left = self._expr()
        return self._comparison_tail(left)

    def _at_comparison(self):
        if self.current.is_op(*COMPARISON_OPS):
            return True
        if self.current.is_keyword("LIKE"):
            return True
        if self.current.is_keyword("NOT") and self.tokens[self.pos + 1].is_keyword(
            "LIKE"
        ):
            return True
        # Arithmetic continuation means the parenthesized unit was a term.
        return self.current.is_op("+", "-", "*", "/")

    def _comparison_tail(self, left):
        if self.accept_keyword("LIKE"):
            return BinaryExpr("LIKE", left, self._expr())
        if self.current.is_keyword("NOT"):
            save = self.pos
            self.advance()
            if self.accept_keyword("LIKE"):
                return BinaryExpr("NOT LIKE", left, self._expr())
            self.pos = save
        token = self.accept_op(*COMPARISON_OPS)
        if token is not None:
            return BinaryExpr(token.value, left, self._expr())
        raise ParseError("expected comparison operator", self.current.position)

    # -- arithmetic -----------------------------------------------------

    def _expr(self):
        left = self._term()
        while True:
            token = self.accept_op("+", "-")
            if token is None:
                return left
            left = BinaryExpr(token.value, left, self._term())

    def _term(self):
        left = self._factor()
        while True:
            token = self.accept_op("*", "/")
            if token is None:
                return left
            left = BinaryExpr(token.value, left, self._factor())

    def _factor(self):
        if self.accept_op("-"):
            return UnaryExpr("-", self._factor())
        if self.accept_op("+"):
            return self._factor()
        return self._primary()

    def _primary(self):
        token = self.current
        if token.kind == "number":
            self.advance()
            return NumberLit(token.value)
        if token.kind == "string":
            self.advance()
            return StringLit(token.value)
        if token.is_op("("):
            self.advance()
            expr = self._expr()
            self.expect_op(")")
            return expr
        if token.kind == "ident":
            return self._identifier_expr()
        raise ParseError(f"unexpected token {token.value!r}", token.position)

    def _identifier_expr(self):
        name_token = self.advance()
        name = name_token.value
        if name.upper() in AGG_NAMES and self.current.is_op("("):
            self.advance()
            distinct = bool(self.accept_keyword("DISTINCT"))
            if self.accept_op("*"):
                arg = None
            else:
                arg = self._expr()
            self.expect_op(")")
            return FuncCall(name.upper(), arg, distinct)
        if self.current.is_op("("):
            raise UnsupportedSQLError(f"unsupported function {name!r}")
        if self.accept_op("."):
            column_token = self.advance()
            if column_token.kind not in ("ident", "keyword"):
                raise ParseError("expected column name", column_token.position)
            return ColumnRef(name, column_token.value)
        return ColumnRef(None, name)


def parse(text):
    """Parse SQL text into one flat :class:`SelectStatement`, with every
    WITH body and FROM subquery merged into the outer block."""
    return flatten(*Parser(text).parse_statement())
