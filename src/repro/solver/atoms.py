"""Atom canonicalization: SQL comparisons -> theory payloads + polarity.

Every atomic predicate is normalized into one of three theory classes:

* numeric  -- linearizable comparisons, normalized to ``expr <= 0`` /
  ``expr = 0`` with a positive, unit leading coefficient, so that
  syntactically different but trivially equivalent atoms (``a+1 = b+1`` vs
  ``a = b``, ``x < y`` vs ``y > x``) share one propositional variable, and
  an atom and its complement map to the same variable with opposite
  polarity;
* string   -- equality/LIKE over string terms;
* opaque   -- anything else (non-linear arithmetic, exotic operands); such
  atoms are treated as free propositional variables, which is sound for
  UNSAT-side conclusions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from repro.catalog import SqlType
from repro.logic.linear import try_linearize
from repro.logic.terms import Const


@dataclass(frozen=True)
class Atom:
    """A canonical theory atom."""

    kind: str  # "num_le" | "num_eq" | "str_eq" | "str_like" | "opaque"
    payload: object

    def __str__(self):
        return f"{self.kind}:{self.payload}"


@dataclass(frozen=True)
class CanonicalLiteral:
    """A canonical atom plus the polarity of the original comparison."""

    atom: Atom
    positive: bool


def _normalize_le(expr):
    """Scale ``expr <= 0`` by a positive factor for a unit leading coeff."""
    if not expr.coeffs:
        return expr
    lead = abs(expr.coeffs[0][1])
    return expr.scale(Fraction(1) / lead)


def _normalize_eq(expr):
    """Scale ``expr = 0`` so the leading coefficient is exactly +1."""
    if not expr.coeffs:
        return expr
    lead = expr.coeffs[0][1]
    return expr.scale(Fraction(1) / lead)


def canonicalize(comparison):
    """Canonicalize a :class:`Comparison` into a literal, or a constant.

    Returns either a :class:`CanonicalLiteral` or a bool (when the atom is
    variable-free and decides immediately).
    """
    op = comparison.op
    left, right = comparison.left, comparison.right

    if op in ("LIKE", "NOT LIKE"):
        positive = op == "LIKE"
        if isinstance(right, Const) and right.type == SqlType.STRING:
            if isinstance(left, Const):
                from repro.logic.evaluate import sql_like

                return sql_like(left.value, right.value) == positive
            atom = Atom("str_like", (left, str(right.value)))
            return CanonicalLiteral(atom, positive)
        atom = Atom("opaque", ("LIKE", str(left), str(right)))
        return CanonicalLiteral(atom, positive)

    string_sides = left.type == SqlType.STRING and right.type == SqlType.STRING
    if op in ("=", "<>") and string_sides:
        positive = op == "="
        key = tuple(sorted((left, right), key=str))
        if isinstance(left, Const) and isinstance(right, Const):
            return (left.value == right.value) == positive
        return CanonicalLiteral(Atom("str_eq", key), positive)

    lin_left = try_linearize(left) if left.type.is_numeric else None
    lin_right = try_linearize(right) if right.type.is_numeric else None
    if lin_left is not None and lin_right is not None:
        expr = lin_left.sub(lin_right)  # comparison is: expr op 0
        if expr.is_constant:
            value = expr.constant
            return {
                "=": value == 0,
                "<>": value != 0,
                "<": value < 0,
                "<=": value <= 0,
                ">": value > 0,
                ">=": value >= 0,
            }[op]
        if op in ("=", "<>"):
            atom = Atom("num_eq", _normalize_eq(expr))
            return CanonicalLiteral(atom, op == "=")
        if op == "<=":
            return CanonicalLiteral(Atom("num_le", _normalize_le(expr)), True)
        if op == ">":
            return CanonicalLiteral(Atom("num_le", _normalize_le(expr)), False)
        if op == ">=":
            negated = _normalize_le(expr.negate())
            return CanonicalLiteral(Atom("num_le", negated), True)
        if op == "<":
            negated = _normalize_le(expr.negate())
            return CanonicalLiteral(Atom("num_le", negated), False)

    # Fallback: opaque propositional atom.  Normalize op polarity so that an
    # atom and its negation share a variable.
    if op in ("<>", ">", ">="):
        flipped = comparison.negated()
        return CanonicalLiteral(
            Atom("opaque", (flipped.op, str(flipped.left), str(flipped.right))),
            False,
        )
    return CanonicalLiteral(Atom("opaque", (op, str(left), str(right))), True)
