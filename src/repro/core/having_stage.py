"""HAVING stage (Section 7): aggregate-aware condition repair.

HAVING conditions are *scalarized*: aggregate calls are normalized (Appendix
E linearity rules) and replaced by scalar variables; the WHERE condition and
witness-row facts become the background context.  Equivalence and repair
then reuse the WHERE-stage machinery verbatim -- exactly the paper's design
("we invoke the exact same procedures as for WHERE to find a repair").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.where_repair import repair_where
from repro.logic.formulas import TRUE, conj, map_atoms
from repro.solver.aggregates import HavingContext, scalarize_formula


@dataclass
class HavingAnalysis:
    """Scalarized HAVING formulas plus their shared context."""

    working_scalar: object
    target_scalar: object
    context: tuple
    aggregates: frozenset = frozenset()  # canonical AggCall terms

    def descalarize(self, formula):
        """Map scalar aggregate variables back to aggregate calls, keeping
        the tree shape: the result renders exactly as ``formula`` does."""
        from repro.logic.substitute import substitute_term
        from repro.solver.aggregates import agg_scalar_var

        mapping = {agg_scalar_var(agg): agg for agg in self.aggregates}
        return map_atoms(formula, lambda atom: atom.map_sides(
            lambda side: substitute_term(side, mapping)
        ))


def split_having(where, group_terms, having):
    """Move aggregate-free top-level HAVING conjuncts into WHERE.

    This is the WHERE-stage "look-ahead" of Section 3.1: a condition over
    grouped columns is constant within each group, so filtering groups by it
    (HAVING) equals filtering rows by it (WHERE).  Returns
    ``(new_where, new_having)``.
    """
    if having == TRUE:
        return where, having
    from repro.logic.formulas import And

    conjuncts = having.operands if isinstance(having, And) else (having,)
    movable, kept = [], []
    for conjunct in conjuncts:
        if conjunct.has_aggregate():
            kept.append(conjunct)
        else:
            movable.append(conjunct)
    return conj(where, *movable), conj(*kept)


def analyze_having(where, working_group, target_group, working_having,
                   target_having):
    """Scalarize both HAVING conditions and build the shared context."""
    working_scalar, aggs_w = scalarize_formula(working_having)
    target_scalar, aggs_t = scalarize_formula(target_having)
    group_terms = list(working_group) + [
        t for t in target_group if t not in working_group
    ]
    aggregates = frozenset(aggs_w | aggs_t)
    context = HavingContext(where, group_terms).build(aggregates)
    return HavingAnalysis(working_scalar, target_scalar, context, aggregates)


def having_equivalent(analysis, solver):
    """Viability check V4 under the HAVING base context."""
    return solver.is_equiv(
        analysis.working_scalar, analysis.target_scalar, analysis.context
    )


def repair_having(analysis, max_sites=2, optimized=True, *, solver):
    """Repair the (scalarized) working HAVING toward the target's."""
    return repair_where(
        analysis.working_scalar,
        analysis.target_scalar,
        max_sites=max_sites,
        optimized=optimized,
        solver=solver,
        context=analysis.context,
    )
