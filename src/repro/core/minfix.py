"""``MinFix`` and helpers (Algorithms 5 and 6).

Given a target bound ``[l*, u*]`` for a repair site, find a smallest formula
inside the bound:

1. ``MapAtomPreds`` collects the semantically unique atomic predicates of
   the bound formulas (merging atoms that are equivalent, or equivalent up
   to negation, under the ambient context) and maps them to Boolean
   variables;
2. ``BuildTruthTable`` marks theory-infeasible rows and bound-gap rows as
   don't-cares, with every row set held as one bitset;
3. ``MinBoolExp`` (prime generation + Petrick cover) minimizes the partial
   function, and the chosen implicants are rendered back over the atoms.

A *row* is one truth assignment of the ``n`` mapped atoms, an int in
``[0, 2**n)`` whose bit ``i`` is the value of atom ``i``.  A *bitset* over
rows is an int whose bit ``r`` stands for row ``r``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.boolmin import TruthTable, min_bool_exp, minimize_table
from repro.boolmin.minimize import implicants_to_formula
from repro.errors import SolverLimitError
from repro.logic.formulas import (
    And,
    BoolConst,
    Comparison,
    FALSE,
    Not,
    Or,
    TRUE,
    conj,
    neg,
)

MAX_UNIQUE_ATOMS = 14


@dataclass
class AtomMapping:
    """Result of ``MapAtomPreds``: unique atoms + formula->Boolean mapping."""

    atoms: list  # representative Comparison per Boolean variable
    polarity: dict  # original atom -> (var_index, positive)

    @property
    def num_vars(self):
        return len(self.atoms)

    @cached_property
    def full(self):
        """The bitset of all ``2**num_vars`` rows."""
        return (1 << (1 << self.num_vars)) - 1

    @cached_property
    def columns(self):
        """``columns[i]``: the bitset of the rows where atom ``i`` holds."""
        rows = 1 << self.num_vars
        columns = []
        for i in range(self.num_vars):
            # Rows alternate in runs of 2**i; double the first period.
            half = 1 << i
            pattern, width = ((1 << half) - 1) << half, 2 * half
            while width < rows:
                pattern |= pattern << width
                width *= 2
            columns.append(pattern)
        return columns

    def rows(self, formula):
        """The bitset of the rows where ``formula`` holds."""
        if isinstance(formula, BoolConst):
            return self.full if formula.value else 0
        if isinstance(formula, Comparison):
            entry = self.polarity.get(formula)
            if entry is None:
                # Minimized formulas render negative literals as negated
                # atoms; map them back through the complement.
                complement = self.polarity.get(formula.negated())
                if complement is None:
                    raise KeyError(f"atom not in mapping: {formula}")
                index, positive = complement[0], not complement[1]
            else:
                index, positive = entry
            column = self.columns[index]
            return column if positive else self.full ^ column
        if isinstance(formula, Not):
            return self.full ^ self.rows(formula.child)
        if isinstance(formula, And):
            rows = self.full
            for operand in formula.operands:
                rows &= self.rows(operand)
            return rows
        if isinstance(formula, Or):
            rows = 0
            for operand in formula.operands:
                rows |= self.rows(operand)
            return rows
        raise TypeError(f"unexpected formula {formula!r}")


def map_atom_preds(formulas, solver, context=()):
    """``MapAtomPreds`` (Algorithm 5) over a collection of formulas.

    Each atom maps to the first representative it is equivalent to, or
    equivalent to the negation of, under ``context``; otherwise it becomes
    a new representative.  The two ``is_equiv`` checks run only against
    representatives in the atom's own component (the atoms and context
    conjuncts linked by shared base terms, as in
    :func:`build_truth_table`); an atom with the same canonical form as a
    representative (:mod:`repro.solver.atoms`) is caught by the first of
    them, whose ``iff`` abstracts to ``v <-> v`` and needs no theory call.
    Across components the checks have a closed form, because a conjunction
    over disjoint base terms is satisfiable iff each part is: if the
    context is unsatisfiable every atom matches, and otherwise two atoms
    match only when both are constant under it -- equivalent if the
    constants agree, equivalent to the negation if not.  An atom's
    constancy takes two ``is_satisfiable`` calls, which the solver
    memoizes.  The mapping is exactly the one the plain pairwise scan
    returns.
    """
    unique = list(dict.fromkeys(
        atom for formula in formulas for atom in formula.atoms()
    ))
    component = {}
    for number, (indices, _) in enumerate(_components(unique, context)):
        for i in indices:
            component[unique[i]] = number

    def can_hold_and_fail(atom):
        return (
            solver.is_satisfiable(atom, context),
            solver.is_satisfiable(neg(atom), context),
        )

    atoms = []
    polarity = {}
    for atom in unique:
        mapped = None
        for i, representative in enumerate(atoms):
            if component[representative] == component[atom]:
                if solver.is_equiv(atom, representative, context):
                    mapped = (i, True)
                    break
                if solver.is_equiv(atom, neg(representative), context):
                    mapped = (i, False)
                    break
                continue
            holds, fails = can_hold_and_fail(atom)
            if holds and fails:
                continue  # varies, so it equals no atom of another component
            if not (holds or fails):  # the context is unsatisfiable
                mapped = (i, True)
                break
            rep_holds, rep_fails = can_hold_and_fail(representative)
            if rep_holds != rep_fails:  # both constant
                mapped = (i, holds == rep_holds)
                break
        if mapped is None:
            atoms.append(atom)
            mapped = (len(atoms) - 1, True)
        polarity[atom] = mapped
    return AtomMapping(atoms, polarity)


def build_truth_table(mapping, lower, upper, solver, context=()):
    """``BuildTruthTable`` (Algorithm 6 subroutine).

    A row is a don't-care if its literal conjunction is theory-infeasible
    under ``context`` or if the bound leaves slack there (l=0, u=1);
    otherwise its output is the shared value of ``lower`` and ``upper``.

    The theories reason only about base terms (``Var`` and ``AggCall``), so
    a conjunction is feasible iff the part of it in each component -- the
    atoms and context conjuncts linked by shared base terms -- is.  Each
    component's ``2**k`` assignments are decided once with
    ``solver.is_satisfiable``, and an infeasible one turns its whole
    sub-cube of rows into don't-cares (counter: ``core_pruned_subtrees``).
    One component of ``MAX_UNIQUE_ATOMS`` atoms is the worst case.
    """
    full, columns = mapping.full, mapping.columns
    infeasible = 0
    for indices, conjuncts in _components(mapping.atoms, context):
        for bits in range(1 << len(indices)):
            literals = []
            cube = full
            for j, index in enumerate(indices):
                atom = mapping.atoms[index]
                if bits >> j & 1:
                    literals.append(atom)
                    cube &= columns[index]
                else:
                    literals.append(neg(atom))
                    cube &= full ^ columns[index]
            if not solver.is_satisfiable(conj(*literals), conjuncts):
                infeasible |= cube
                solver.stats["core_pruned_subtrees"] += 1
    low, high = mapping.rows(lower), mapping.rows(upper)
    return TruthTable.from_bitsets(mapping.num_vars, low, infeasible | low ^ high)


def _components(atoms, context):
    """``(atom indices, conjuncts)`` per group sharing base terms.

    Members are the atoms, in index order, then the context's conjuncts
    (top-level ANDs flattened, TRUE dropped).  A conjunct linked to no atom
    forms a component of its own, with no atoms.
    """
    whole = conj(*context)
    conjuncts = whole.operands if isinstance(whole, And) else (
        () if whole == TRUE else (whole,)
    )
    components = []  # (base terms, member indices)
    for index, member in enumerate([*atoms, *conjuncts]):
        terms = member.variables() | member.aggregates()
        members = [index]
        unlinked = []
        for other_terms, other_members in components:
            if other_terms & terms:
                terms |= other_terms
                members += other_members
            else:
                unlinked.append((other_terms, other_members))
        components = [*unlinked, (terms, sorted(members))]
    n = len(atoms)
    return [
        ([i for i in members if i < n],
         tuple(conjuncts[i - n] for i in members if i >= n))
        for _, members in components
    ]


def min_fix(lower, upper, solver, context=()):
    """``MinFix`` (Algorithm 6): a smallest formula within ``[l*, u*]``."""
    # Degenerate bounds first: they admit a constant.
    if solver.is_valid(lower, context):
        return TRUE
    if solver.is_unsatisfiable(upper, context):
        return FALSE
    mapping = map_atom_preds([lower, upper], solver, context)
    if mapping.num_vars > MAX_UNIQUE_ATOMS:
        raise SolverLimitError(
            f"MinFix over {mapping.num_vars} unique atoms exceeds the "
            f"{MAX_UNIQUE_ATOMS}-atom truth-table budget"
        )
    table = build_truth_table(mapping, lower, upper, solver, context)
    return min_bool_exp(table, mapping.atoms)


def min_fix_pos(lower, upper, solver, context=()):
    """``MinFix`` variant returning a product-of-sums (CNF-style) formula.

    Used by ``DistributeFixes`` when the repaired children share an AND
    parent (Section 5.2): minimize the complement as SOP and negate.
    """
    if solver.is_valid(lower, context):
        return TRUE
    if solver.is_unsatisfiable(upper, context):
        return FALSE
    mapping = map_atom_preds([lower, upper], solver, context)
    if mapping.num_vars > MAX_UNIQUE_ATOMS:
        raise SolverLimitError("MinFix (POS) atom budget exceeded")
    table = build_truth_table(mapping, lower, upper, solver, context)
    on, dont_care = table.bitsets()
    flipped = TruthTable.from_bitsets(table.num_vars, mapping.full ^ on, dont_care)
    implicants = minimize_table(flipped)
    if not implicants:
        return TRUE
    sop_of_negation = implicants_to_formula(implicants, mapping.atoms)
    return _negate_sop(sop_of_negation)


def _negate_sop(formula):
    """De Morgan a sum-of-products into a product-of-sums."""
    from repro.logic.formulas import disj

    if formula in (TRUE, FALSE):
        return neg(formula)
    clauses = formula.operands if isinstance(formula, Or) else (formula,)
    out = []
    for clause in clauses:
        literals = clause.operands if isinstance(clause, And) else (clause,)
        out.append(disj(*(neg(lit) for lit in literals)))
    return conj(*out)
