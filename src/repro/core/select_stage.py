"""SELECT stage: ``FixSelect`` (Algorithm 9, Section 8).

Checks positional equivalence of the SELECT lists under the stage context
(WHERE for SPJ queries; the HAVING base context for SPJA queries) and
computes per-position removal/addition sets, which are strongly minimal for
SPJ queries (Lemma F.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.solver.aggregates import scalarize_term


@dataclass
class SelectDelta:
    """The SELECT-stage diff: positions to replace/trim/extend."""

    remove: list = field(default_factory=list)  # 0-based positions in working
    add: list = field(default_factory=list)  # 0-based positions in target

    @property
    def viable(self):
        return not self.remove and not self.add


def fix_select(working_terms, target_terms, context, solver):
    """``FixSelect(P, o, o*)``: per-index inequivalent positions."""
    delta = SelectDelta()
    overlap = min(len(working_terms), len(target_terms))
    for index in range(overlap):
        working_scalar, _ = scalarize_term(working_terms[index])
        target_scalar, _ = scalarize_term(target_terms[index])
        if not solver.terms_equal(working_scalar, target_scalar, context):
            delta.remove.append(index)
            delta.add.append(index)
    delta.remove.extend(range(overlap, len(working_terms)))
    delta.add.extend(range(overlap, len(target_terms)))
    return delta


def apply_select_fix(working_terms, target_terms, delta):
    """Apply the fix: substitute/extend positions from the target list."""
    out = list(working_terms)
    for index in sorted(set(delta.remove) & set(delta.add)):
        out[index] = target_terms[index]
    for index in sorted(set(delta.remove) - set(delta.add), reverse=True):
        del out[index]
    for index in sorted(set(delta.add) - set(delta.remove)):
        out.append(target_terms[index])
    return tuple(out)
