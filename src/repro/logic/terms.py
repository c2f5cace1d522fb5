"""Value-level terms of the logic used throughout Qr-Hint.

Terms model SQL scalar expressions: column references (:class:`Var`),
literals (:class:`Const`), arithmetic (:class:`Arith`, :class:`Neg`) and
aggregate calls (:class:`AggCall`).  All terms are immutable and hashable so
they can be used as dictionary keys, cached, and structurally compared.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from repro.catalog import SqlType

ARITH_OPS = ("+", "-", "*", "/")
AGG_FUNCS = ("SUM", "AVG", "COUNT", "MIN", "MAX")


class Term:
    """Base class for all value-level terms."""

    __slots__ = ()

    @property
    def type(self):
        raise NotImplementedError

    def children(self):
        """Direct sub-terms, as a tuple."""
        return ()

    def size(self):
        """Number of nodes in the term's syntax tree."""
        return 1 + sum(c.size() for c in self.children())

    def variables(self):
        """Set of :class:`Var` instances occurring in the term."""
        out = set()
        _collect_vars(self, out)
        return out

    def aggregates(self):
        """Set of :class:`AggCall` instances occurring in the term."""
        out = set()
        _collect_aggs(self, out)
        return out

    def has_aggregate(self):
        return bool(self.aggregates())


def _collect_vars(term, out):
    if isinstance(term, Var):
        out.add(term)
    for child in term.children():
        _collect_vars(child, out)


def _collect_aggs(term, out):
    if isinstance(term, AggCall):
        out.add(term)
        return  # variables inside an aggregate belong to the aggregate
    for child in term.children():
        _collect_aggs(child, out)


@dataclass(frozen=True)
class Var(Term):
    """A free variable (typically a resolved column reference ``alias.col``)."""

    name: str
    vtype: SqlType

    @property
    def type(self):
        return self.vtype

    def __str__(self):
        return self.name

    def __repr__(self):
        return f"Var({self.name}:{self.vtype.value})"


@dataclass(frozen=True)
class Const(Term):
    """A literal constant.  Numeric values are stored as :class:`Fraction`."""

    value: object
    vtype: SqlType

    @staticmethod
    def of(value):
        """Build a constant from a Python value, inferring the SQL type."""
        if isinstance(value, bool):
            return Const(value, SqlType.BOOL)
        if isinstance(value, int):
            return Const(Fraction(value), SqlType.INT)
        if isinstance(value, float):
            return Const(Fraction(value).limit_denominator(10**9), SqlType.FLOAT)
        if isinstance(value, Fraction):
            vtype = SqlType.INT if value.denominator == 1 else SqlType.FLOAT
            return Const(value, vtype)
        if isinstance(value, str):
            return Const(value, SqlType.STRING)
        raise TypeError(f"cannot build Const from {value!r}")

    @property
    def type(self):
        return self.vtype

    def __str__(self):
        if self.vtype == SqlType.STRING:
            escaped = str(self.value).replace("'", "''")
            return f"'{escaped}'"
        if isinstance(self.value, Fraction) and self.value.denominator == 1:
            return str(self.value.numerator)
        return str(self.value)

    def __repr__(self):
        return f"Const({self})"


@dataclass(frozen=True)
class Arith(Term):
    """A binary arithmetic expression ``left op right``."""

    op: str
    left: Term
    right: Term

    def __post_init__(self):
        if self.op not in ARITH_OPS:
            raise ValueError(f"unknown arithmetic operator {self.op!r}")

    @property
    def type(self):
        if self.op == "/":
            return SqlType.FLOAT
        return self.left.type.join(self.right.type)

    def children(self):
        return (self.left, self.right)

    def __str__(self):
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class Neg(Term):
    """Unary arithmetic negation ``-child``."""

    child: Term

    @property
    def type(self):
        return self.child.type

    def children(self):
        return (self.child,)

    def __str__(self):
        return f"(-{self.child})"


@dataclass(frozen=True)
class AggCall(Term):
    """An aggregate function call, e.g. ``SUM(price * 2)``.

    ``arg`` is ``None`` for ``COUNT(*)``.  ``distinct`` marks
    ``AGG(DISTINCT ...)``.
    """

    func: str
    arg: Term | None = None
    distinct: bool = False

    def __post_init__(self):
        if self.func not in AGG_FUNCS:
            raise ValueError(f"unknown aggregate {self.func!r}")
        if self.func == "COUNT" and self.arg is None and self.distinct:
            raise ValueError("COUNT(DISTINCT *) is not valid SQL")

    @property
    def type(self):
        if self.func == "COUNT":
            return SqlType.INT
        if self.func == "AVG":
            return SqlType.FLOAT
        return self.arg.type

    def children(self):
        return (self.arg,) if self.arg is not None else ()

    def size(self):
        # An aggregate call counts as a single syntactic node plus its
        # argument, matching the node-count cost model of the paper.
        return 1 + (self.arg.size() if self.arg is not None else 0)

    def __str__(self):
        inner = "*" if self.arg is None else str(self.arg)
        if self.distinct:
            inner = f"DISTINCT {inner}"
        return f"{self.func}({inner})"


def map_term(term, fn):
    """Rebuild ``term`` bottom-up, replacing each node ``n`` by ``fn(n)``.

    Sub-terms, aggregate arguments included, are mapped before the node
    that holds them, so ``fn`` sees each node with its children already
    rewritten; what ``fn`` returns is not traversed again.
    """
    if isinstance(term, Arith):
        term = Arith(term.op, map_term(term.left, fn), map_term(term.right, fn))
    elif isinstance(term, Neg):
        term = Neg(map_term(term.child, fn))
    elif isinstance(term, AggCall) and term.arg is not None:
        term = AggCall(term.func, map_term(term.arg, fn), term.distinct)
    return fn(term)


def add(left, right):
    return Arith("+", left, right)


def sub(left, right):
    return Arith("-", left, right)


def mul(left, right):
    return Arith("*", left, right)


def div(left, right):
    return Arith("/", left, right)


def const(value):
    return Const.of(value)


def intvar(name):
    return Var(name, SqlType.INT)


def floatvar(name):
    return Var(name, SqlType.FLOAT)


def strvar(name):
    return Var(name, SqlType.STRING)
