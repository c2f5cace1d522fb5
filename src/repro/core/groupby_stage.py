"""GROUP BY stage: ``FixGrouping`` (Algorithm 4, Section 6).

Grouping equivalence is checked holistically: two GROUP BY lists are
equivalent iff, for any two tuples satisfying WHERE, agreeing on one list
implies agreeing on the other.  ``FixGrouping`` computes a strongly-minimal
set of expressions to remove from the working query's list and a
weakly-minimal set to add from the target's list (Lemma 6.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.logic.formulas import Comparison, conj
from repro.logic.substitute import instantiate


@dataclass
class GroupingDelta:
    """The GROUP BY-stage diff."""

    remove: list = field(default_factory=list)  # indices into working list
    add: list = field(default_factory=list)  # indices into target list

    @property
    def viable(self):
        return not self.remove and not self.add


def _pair_equal(term, suffix_a="#1", suffix_b="#2"):
    return Comparison("=", instantiate(term, suffix_a), instantiate(term, suffix_b))


def _pair_unequal(term, suffix_a="#1", suffix_b="#2"):
    return Comparison("<>", instantiate(term, suffix_a), instantiate(term, suffix_b))


def fix_grouping(where, working_terms, target_terms, solver):
    """``FixGrouping(P, o, o*)``: compute (remove, add) index sets.

    ``where`` is the (unified) WHERE condition; ``working_terms`` and
    ``target_terms`` are the GROUP BY expression lists of Q and Q*.
    """
    premise = conj(instantiate(where, "#1"), instantiate(where, "#2"))
    target_agreement = conj(*(_pair_equal(t) for t in target_terms))

    delta = GroupingDelta()
    for index, term in enumerate(working_terms):
        query = conj(premise, target_agreement, _pair_unequal(term))
        if solver.is_satisfiable(query):
            delta.remove.append(index)

    kept_agreement = conj(
        *(
            _pair_equal(term)
            for i, term in enumerate(working_terms)
            if i not in delta.remove
        )
    )
    for index, term in enumerate(target_terms):
        query = conj(premise, kept_agreement, _pair_unequal(term))
        if solver.is_satisfiable(query):
            delta.add.append(index)
            kept_agreement = conj(kept_agreement, _pair_equal(term))
    return delta


def apply_grouping_fix(working_terms, target_terms, delta):
    """Apply (remove, add): drop flagged expressions, append target's."""
    kept = [t for i, t in enumerate(working_terms) if i not in delta.remove]
    kept.extend(target_terms[i] for i in delta.add)
    return tuple(kept)
