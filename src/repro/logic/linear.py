"""Linearization of numeric terms.

A :class:`LinExpr` is a normalized linear combination ``sum(coeff_i * v_i) +
constant`` over variables (or other opaque numeric terms treated as atoms,
e.g. aggregate calls).  Linearization is the bridge between SQL arithmetic
syntax and the Fourier-Motzkin arithmetic theory solver, and it also yields
cheap structural canonical forms for atoms (``a + 1 = b + 1`` and ``a = b``
linearize identically).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from repro.catalog import SqlType
from repro.logic.terms import AggCall, Arith, Const, Neg, Term, Var


class NonLinearError(Exception):
    """Raised when a term has no linear form (e.g. ``x * y``)."""


@dataclass(frozen=True)
class LinExpr:
    """An immutable linear expression over opaque numeric base terms."""

    coeffs: tuple[tuple[Term, Fraction], ...]  # sorted by repr, no zeros
    constant: Fraction = Fraction(0)

    @staticmethod
    def build(coeffs, constant):
        items = [(t, c) for t, c in coeffs.items() if c != 0]
        items.sort(key=lambda item: str(item[0]))
        return LinExpr(tuple(items), Fraction(constant))

    @staticmethod
    def of_const(value):
        return LinExpr((), Fraction(value))

    @staticmethod
    def of_term(term):
        return LinExpr(((term, Fraction(1)),), Fraction(0))

    def coeff_dict(self):
        return dict(self.coeffs)

    @property
    def is_constant(self):
        return not self.coeffs

    def terms(self):
        return [t for t, _ in self.coeffs]

    def scale(self, factor):
        factor = Fraction(factor)
        if factor == 0:
            return LinExpr((), Fraction(0))
        return LinExpr(
            tuple((t, c * factor) for t, c in self.coeffs), self.constant * factor
        )

    def add(self, other):
        coeffs = self.coeff_dict()
        for t, c in other.coeffs:
            coeffs[t] = coeffs.get(t, Fraction(0)) + c
        return LinExpr.build(coeffs, self.constant + other.constant)

    def sub(self, other):
        return self.add(other.scale(-1))

    def negate(self):
        return self.scale(-1)

    def is_integral(self):
        """True if all coefficients and the constant are integers."""
        return self.constant.denominator == 1 and all(
            c.denominator == 1 for _, c in self.coeffs
        )

    def all_int_typed(self):
        """True if every base term is INT-typed (enables integer tightening)."""
        return all(t.type == SqlType.INT for t, _ in self.coeffs)

    def __str__(self):
        if not self.coeffs:
            return str(self.constant)
        parts = []
        for t, c in self.coeffs:
            if c == 1:
                parts.append(str(t))
            else:
                parts.append(f"{c}*{t}")
        out = " + ".join(parts)
        if self.constant != 0:
            out += f" + {self.constant}"
        return out


def linearize(term):
    """Convert a numeric term into a :class:`LinExpr`.

    Aggregate calls and other non-arithmetic leaves are kept as opaque base
    terms.  Raises :class:`NonLinearError` for products/quotients of two
    non-constant expressions.
    """
    if isinstance(term, Const):
        if not isinstance(term.value, Fraction):
            raise NonLinearError(f"non-numeric constant {term!r}")
        return LinExpr.of_const(term.value)
    if isinstance(term, (Var, AggCall)):
        return LinExpr.of_term(term)
    if isinstance(term, Neg):
        return linearize(term.child).negate()
    if isinstance(term, Arith):
        left = linearize(term.left)
        right = linearize(term.right)
        if term.op == "+":
            return left.add(right)
        if term.op == "-":
            return left.sub(right)
        if term.op == "*":
            if left.is_constant:
                return right.scale(left.constant)
            if right.is_constant:
                return left.scale(right.constant)
            raise NonLinearError(f"non-linear product: {term}")
        if term.op == "/":
            if right.is_constant and right.constant != 0:
                return left.scale(Fraction(1) / right.constant)
            raise NonLinearError(f"non-linear quotient: {term}")
    raise NonLinearError(f"cannot linearize {term!r}")


def try_linearize(term):
    """Like :func:`linearize` but returns None instead of raising."""
    try:
        return linearize(term)
    except NonLinearError:
        return None


def linexpr_to_term(expr):
    """Convert a :class:`LinExpr` back into a readable :class:`Term`."""
    result = None
    for base, coeff in expr.coeffs:
        if coeff == 1:
            piece = base
        elif coeff == -1:
            piece = Neg(base)
        else:
            piece = Arith("*", Const.of(coeff), base)
        result = piece if result is None else Arith("+", result, piece)
    if expr.constant != 0 or result is None:
        const = Const.of(expr.constant)
        result = const if result is None else Arith("+", result, const)
    return result
