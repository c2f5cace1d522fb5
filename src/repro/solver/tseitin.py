"""Tseitin transformation: Boolean structure -> equisatisfiable CNF.

The input is a formula whose atoms have already been abstracted to integer
propositional literals (see :mod:`repro.solver.atoms`); this module only
deals with the AND/OR/NOT skeleton.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CnfBuilder:
    """Accumulates CNF clauses and allocates auxiliary variables.

    With a ``sink`` callable the builder streams each clause straight into
    the consumer (typically ``SatSolver.add_clause``) instead of buffering
    it, so the encoder and the solver share no intermediate clause list.
    """

    num_vars: int = 0
    clauses: list = field(default_factory=list)
    sink: object = None

    def new_var(self):
        self.num_vars += 1
        return self.num_vars

    def add(self, clause):
        if self.sink is not None:
            self.sink(clause)
        else:
            self.clauses.append(list(clause))


# Skeleton node kinds, produced by the atom abstraction layer:
#   ("lit", int)            -- an atom literal (or constant via dedicated var)
#   ("and", [children])     -- conjunction
#   ("or", [children])      -- disjunction
#   ("not", child)          -- negation


def encode(skeleton, builder):
    """Encode ``skeleton`` and return a literal equivalent to it.

    Uses full (bidirectional) Tseitin encoding: a ``not`` node returns the
    negated child literal, which is sound only when every junction variable
    is equivalent to its children, not merely implied by them.
    """
    kind = skeleton[0]
    if kind == "lit":
        return skeleton[1]
    if kind == "not":
        return -encode(skeleton[1], builder)
    child_lits = [encode(child, builder) for child in skeleton[1]]
    if not child_lits:
        raise ValueError("empty junction in skeleton")
    if len(child_lits) == 1:
        return child_lits[0]
    out = builder.new_var()
    if kind == "and":
        for lit in child_lits:
            builder.add([-out, lit])
        builder.add([out] + [-lit for lit in child_lits])
        return out
    if kind == "or":
        for lit in child_lits:
            builder.add([out, -lit])
        builder.add([-out] + child_lits)
        return out
    raise ValueError(f"unknown skeleton kind {kind!r}")


def assert_skeleton(skeleton, builder):
    """Encode ``skeleton`` and assert it true (add its root as unit clause)."""
    root = encode(skeleton, builder)
    builder.add([root])
    return root
