"""Substitution and renaming over terms and formulas."""

from __future__ import annotations

from repro.logic.formulas import (
    And,
    BoolConst,
    Comparison,
    Not,
    Or,
    conj,
    disj,
    neg,
)
from repro.logic.terms import AggCall, Arith, Neg, Term, Var


def substitute_term(term, mapping):
    """Replace variables in ``term`` per ``mapping`` ({Var: Term}).

    Substitution descends into aggregate arguments as well, which is what
    table-alias unification (Section 4) requires.
    """
    if isinstance(term, Var):
        return mapping.get(term, term)
    if isinstance(term, Arith):
        return Arith(
            term.op,
            substitute_term(term.left, mapping),
            substitute_term(term.right, mapping),
        )
    if isinstance(term, Neg):
        return Neg(substitute_term(term.child, mapping))
    if isinstance(term, AggCall):
        if term.arg is None:
            return term
        return AggCall(term.func, substitute_term(term.arg, mapping), term.distinct)
    return term


def substitute(formula, mapping):
    """Replace variables in ``formula`` per ``mapping`` ({Var: Term})."""
    if isinstance(formula, BoolConst):
        return formula
    if isinstance(formula, Comparison):
        return Comparison(
            formula.op,
            substitute_term(formula.left, mapping),
            substitute_term(formula.right, mapping),
        )
    if isinstance(formula, Not):
        return neg(substitute(formula.child, mapping))
    if isinstance(formula, And):
        return conj(*(substitute(c, mapping) for c in formula.operands))
    if isinstance(formula, Or):
        return disj(*(substitute(c, mapping) for c in formula.operands))
    raise TypeError(f"not a formula: {formula!r}")


def rename_variables(obj, rename):
    """Rename variables via a name->name mapping, preserving types."""
    if isinstance(obj, Term):
        mapping = {
            v: Var(rename[v.name], v.vtype)
            for v in obj.variables()
            if v.name in rename
        }
        return substitute_term(obj, mapping)
    mapping = {
        v: Var(rename[v.name], v.vtype) for v in obj.variables() if v.name in rename
    }
    return substitute(obj, mapping)


def instantiate(obj, suffix):
    """Rename every variable ``v`` to ``v{suffix}`` (tuple instantiation).

    Used by the GROUP BY stage (Algorithm 4) where a formula must be
    evaluated over two distinct tuples ``t1`` and ``t2``.
    """
    rename = {v.name: f"{v.name}{suffix}" for v in obj.variables()}
    return rename_variables(obj, rename)
