"""Recursive-descent parser for single-block SPJ/SPJA SQL.

Grammar (informal), matching the fragment of the paper (Section 3):

    select_stmt := SELECT [DISTINCT] select_item (, select_item)*
                   FROM table_ref (, table_ref)*
                   [WHERE condition]
                   [GROUP BY expr (, expr)*]
                   [HAVING condition]
    condition   := or_expr
    or_expr     := and_expr (OR and_expr)*
    and_expr    := not_expr (AND not_expr)*
    not_expr    := NOT not_expr | predicate
    predicate   := expr (cmp_op expr | [NOT] LIKE expr) | TRUE | FALSE
                 | '(' condition ')'
    expr        := term ((+|-) term)*
    term        := factor ((*|/) factor)*
    factor      := '-' factor | primary
    primary     := number | string | column_ref | agg_call | '(' expr ')'
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
    TableRef,
    UnaryExpr,
)
from repro.sqlparser.lexer import tokenize

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

    def parse_select(self):
        """One SELECT statement, with nothing after it."""
        stmt = self.parse_select_only()
        if self.accept_keyword("ORDER"):
            raise UnsupportedSQLError("ORDER BY is outside the supported fragment")
        if self.current.kind != "eof":
            raise ParseError(
                f"unexpected trailing input {self.current.value!r}",
                self.current.position,
            )
        return stmt

    def parse_select_only(self):
        """One SELECT block, leaving whatever follows it unread."""
        self.expect_keyword("SELECT")
        stmt = SelectStatement()
        stmt.distinct = bool(self.accept_keyword("DISTINCT"))
        stmt.select_items.append(self._select_item())
        while self.accept_op(","):
            stmt.select_items.append(self._select_item())
        self.expect_keyword("FROM")
        stmt.from_tables.append(self._table_source())
        while self.accept_op(","):
            stmt.from_tables.append(self._table_source())
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
        expr = self._expr()
        alias = None
        if self.accept_keyword("AS"):
            token = self.advance()
            if token.kind != "ident":
                raise ParseError("expected alias after AS", token.position)
            alias = token.value
        elif self.current.kind == "ident":
            alias = self.advance().value
        return SelectItem(expr, alias)

    def _table_source(self):
        """One FROM entry; :class:`~repro.sqlparser.rewrite.ExtendedParser`
        also accepts a parenthesized subquery."""
        return self._table_ref()

    def _table_ref(self):
        token = self.advance()
        if token.kind != "ident":
            raise ParseError("expected table name", token.position)
        alias = None
        if self.accept_keyword("AS"):
            alias_token = self.advance()
            if alias_token.kind != "ident":
                raise ParseError("expected alias after AS", alias_token.position)
            alias = alias_token.value
        elif self.current.kind == "ident":
            alias = self.advance().value
        return TableRef(token.value, alias)

    # -- conditions -----------------------------------------------------

    def _condition(self):
        return self._or_expr()

    def _or_expr(self):
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
        for op in ("<=", ">=", "<>", "=", "<", ">"):
            if self.accept_op(op):
                return BinaryExpr(op, left, self._expr())
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
    """Parse SQL text into a :class:`SelectStatement`."""
    return Parser(text).parse_select()
