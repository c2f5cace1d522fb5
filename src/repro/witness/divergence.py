"""Single-row divergence formulas for witness extraction.

The solver-driven witness path looks for a *single-row* counterexample:
one tuple per FROM alias such that, on the resulting tiny instance, the
working and target queries visibly disagree.  Over a single row every
aggregate collapses to a scalar (``COUNT(*) = 1``, ``SUM(e) = MIN(e) =
MAX(e) = AVG(e) = e``), grouping is irrelevant (there is exactly one
group either way), and ``DISTINCT`` is a no-op -- so the full SPJA
divergence condition becomes a quantifier-free formula over the row
variables that the SMT layer can produce a model for directly:

    emits(Q)  :=  WHERE(Q) AND HAVING(Q)[single-row]
    diverge   :=  (emits(Q) XOR emits(Q*))
                  OR (emits(Q) AND emits(Q*) AND SELECT rows differ)

Divergences that *need* several rows (``COUNT(*)`` vs ``COUNT(DISTINCT
...)``, grouping splits, duplicate multiplicities) have no single-row
model; those fall through to the guided differential search in
:mod:`repro.witness.build`.
"""

from __future__ import annotations

from repro.logic.formulas import Comparison, conj, disj, map_atoms, neg
from repro.logic.terms import AggCall, Const, map_term


def _single_row_node(node):
    if isinstance(node, AggCall):
        return Const.of(1) if node.func == "COUNT" else node.arg
    return node


def single_row_term(term):
    """Specialize a term to the one-row-per-group case.

    ``COUNT`` of anything is 1; ``SUM``/``AVG``/``MIN``/``MAX`` equal
    their argument evaluated at the single row.
    """
    return map_term(term, _single_row_node)


def emits_single_row(query):
    """The condition under which a lone cross-product row reaches SELECT."""
    having = map_atoms(
        query.having, lambda atom: atom.map_sides(single_row_term)
    )
    return conj(query.where, having)


def divergence_formula(working, target):
    """A formula whose models are single-row counterexamples.

    Both queries must share one alias namespace (the caller unifies the
    target onto the working aliases first).  A model assigns values to the
    ``alias.column`` variables of one row per alias; on that row exactly
    one query emits, or both emit visibly different SELECT tuples.
    """
    emits_working = emits_single_row(working)
    emits_target = emits_single_row(target)
    branches = [
        conj(emits_working, neg(emits_target)),
        conj(emits_target, neg(emits_working)),
    ]
    if len(working.select) != len(target.select):
        # Different output arity: any commonly emitted row already differs.
        branches.append(conj(emits_working, emits_target))
        return disj(*branches)
    differences = []
    comparable = True
    for working_term, target_term in zip(working.select, target.select):
        w_term = single_row_term(working_term)
        t_term = single_row_term(target_term)
        if w_term == t_term:
            continue
        if w_term.type.is_numeric != t_term.type.is_numeric:
            comparable = False  # mixed types: common emission always differs
            break
        differences.append(Comparison("<>", w_term, t_term))
    if not comparable:
        branches.append(conj(emits_working, emits_target))
    elif differences:
        branches.append(conj(emits_working, emits_target, disj(*differences)))
    return disj(*branches)
