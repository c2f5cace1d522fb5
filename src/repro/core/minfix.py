"""``MinFix`` and helpers (Algorithms 5 and 6).

Given a target bound ``[l*, u*]`` for a repair site, find a smallest formula
inside the bound:

1. ``MapAtomPreds`` collects the semantically unique atomic predicates of
   the bound formulas (merging atoms that are equivalent, or equivalent up
   to negation, under the ambient context) and maps them to Boolean
   variables;
2. ``BuildTruthTable`` enumerates truth assignments, marking theory-
   infeasible rows and bound-gap rows as don't-cares;
3. ``MinBoolExp`` (prime generation + Petrick cover) minimizes the partial
   function, and the chosen implicants are rendered back over the atoms.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.boolmin import DONT_CARE, TruthTable, min_bool_exp, minimize_table
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

    def evaluate(self, formula, assignment):
        """Evaluate ``formula`` propositionally under the assignment."""
        if isinstance(formula, BoolConst):
            return formula.value
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
            bit = bool(assignment & (1 << index))
            return bit if positive else not bit
        if isinstance(formula, Not):
            return not self.evaluate(formula.child, assignment)
        if isinstance(formula, And):
            return all(self.evaluate(c, assignment) for c in formula.operands)
        if isinstance(formula, Or):
            return any(self.evaluate(c, assignment) for c in formula.operands)
        raise TypeError(f"unexpected formula {formula!r}")


def map_atom_preds(formulas, solver, context=()):
    """``MapAtomPreds`` (Algorithm 5) over a collection of formulas.

    Before paying for SMT equivalence checks, each atom is canonicalized
    (:mod:`repro.solver.atoms`); syntactically distinct atoms with the same
    canonical form merge into one variable without a solver call.  Only
    canonical-form misses fall back to the pairwise ``is_equiv`` scan,
    which can still discover context-dependent equivalences.
    """
    from repro.solver.atoms import CanonicalLiteral, canonicalize

    atoms = []
    polarity = {}
    # canonical Atom -> (var_index, polarity of the canonical literal that
    # is equivalent to atoms[var_index])
    canon_index = {}
    for formula in formulas:
        for atom in formula.atoms():
            if atom in polarity:
                continue
            literal = canonicalize(atom)
            if not isinstance(literal, CanonicalLiteral):
                literal = None
            mapped = None
            if literal is not None:
                hit = canon_index.get(literal.atom)
                if hit is not None:
                    index, rep_positive = hit
                    mapped = (index, literal.positive == rep_positive)
            if mapped is None:
                for i, representative in enumerate(atoms):
                    if solver.is_equiv(atom, representative, context):
                        mapped = (i, True)
                        break
                    if solver.is_equiv(atom, neg(representative), context):
                        mapped = (i, False)
                        break
            if mapped is None:
                atoms.append(atom)
                mapped = (len(atoms) - 1, True)
            if literal is not None:
                index, positive = mapped
                canon_index.setdefault(
                    literal.atom,
                    (index, literal.positive if positive else not literal.positive),
                )
            polarity[atom] = mapped
    return AtomMapping(atoms, polarity)


def build_truth_table(mapping, lower, upper, solver, context=()):
    """``BuildTruthTable`` (Algorithm 6 subroutine).

    Output per assignment: don't-care if the literal conjunction is theory-
    infeasible or if the bound leaves slack (l=0, u=1); otherwise the shared
    truth value of ``lower`` and ``upper``.

    Enumeration is a DFS over atom polarities with partial-assignment
    feasibility pruning: once a literal prefix is theory-inconsistent,
    every completion is a don't-care and the subtree is skipped.  When the
    context consists of atomic conjuncts only, feasibility goes straight to
    the theory layer (no SAT search); otherwise the SMT facade is used.

    Pruning is core-guided: every infeasible answer comes with an unsat
    core (failed SAT assumptions from the incremental
    ``FeasibilitySession``, or a shrunk theory core on the theory-direct
    path), recorded as a ``(mask, bits)`` pair over atom indices.  A DFS
    node whose assigned prefix already matches a known core is refuted
    without any solver work at all -- the subtree is don't-cared outright
    (counter: ``core_pruned_subtrees``) even though this particular prefix
    was never queried.
    """
    table = TruthTable(mapping.num_vars)
    checker = _FeasibilityChecker(mapping, solver, context)
    cores = checker.cores
    stats = getattr(solver, "stats", None)
    # The theory-direct fast path never enters the solver's DPLL(T) loop
    # (and so never hits its deadline checkpoint); poll the attached
    # deadline here every 64 DFS nodes instead.
    deadline = getattr(solver, "deadline", None)
    poll_stride = 64
    polls = 0

    def record(assignment):
        low = mapping.evaluate(lower, assignment)
        high = mapping.evaluate(upper, assignment)
        if low == high:
            table.set(assignment, 1 if low else 0)
        else:
            table.set(assignment, DONT_CARE)

    def dfs(index, assignment):
        nonlocal polls
        if deadline is not None:
            polls += 1
            if polls >= poll_stride:
                polls = 0
                deadline.check("minfix")
        bound = 1 << index
        for cmask, cbits in cores:
            # A core confined to the assigned bits (< bound) that the
            # prefix matches refutes the whole subtree -- no query needed.
            if cmask < bound and assignment & cmask == cbits:
                table.fill_stride(assignment, bound, DONT_CARE)
                if stats is not None:
                    stats["core_pruned_subtrees"] = (
                        stats.get("core_pruned_subtrees", 0) + 1
                    )
                return
        if not checker.feasible_prefix(assignment, index):
            # Every completion of the infeasible prefix shares the low bits:
            # the subtree is exactly range(assignment, 2**n, 2**index).
            table.fill_stride(assignment, bound, DONT_CARE)
            return
        if index == mapping.num_vars:
            record(assignment)
            return
        dfs(index + 1, assignment)
        dfs(index + 1, assignment | (1 << index))

    dfs(0, 0)
    return table


class _FeasibilityChecker:
    """Feasibility of literal prefixes, with a theory-direct fast path.

    When every atom and context conjunct canonicalizes, prefix queries go
    straight to the theory layer (no SAT search at all).  Otherwise a
    single incremental :class:`~repro.solver.smt.FeasibilitySession` is
    shared by the whole truth-table DFS: the context is encoded once, the
    SAT trail persists between prefixes (consecutive DFS nodes share long
    assumption prefixes), and theory lemmas learned under one prefix prune
    every later one -- instead of a fresh feasibility solve per node.
    """

    def __init__(self, mapping, solver, context):
        self.mapping = mapping
        self.solver = solver
        self.context = tuple(context)
        self._literals = self._try_canonicalize()
        self._context_prefix = None
        self._atom_pairs = None
        self._session = None
        #: Discovered infeasibility cores as ``(mask, bits)`` pairs over
        #: atom indices: any assignment with ``assignment & mask == bits``
        #: is theory-infeasible.  The truth-table DFS scans this list to
        #: refute whole subtrees without a query.
        self.cores = []
        self._core_keys = set()
        if self._literals is not None:
            atom_literals, context_literals = self._literals
            # Canonical-order the context once; per-prefix queries then just
            # append atom literals in index order (the theory cache keys on
            # a frozenset, so any fixed order is canonical).
            self._context_prefix = tuple(sorted(context_literals, key=str))
            self._atom_pairs = [
                ((lit.atom, lit.positive), (lit.atom, not lit.positive))
                for lit in atom_literals
            ]
            self._context_set = frozenset(self._context_prefix)
            # (atom, polarity) theory literal -> (atom index, wanted bit);
            # first writer wins on aliased atoms (either explanation is
            # sound).
            self._lit_to_bit = {}
            for i, (when_set, when_clear) in enumerate(self._atom_pairs):
                self._lit_to_bit.setdefault(when_set, (i, True))
                self._lit_to_bit.setdefault(when_clear, (i, False))

    def _try_canonicalize(self):
        from repro.logic.formulas import And as _And, BoolConst as _BoolConst
        from repro.solver.atoms import CanonicalLiteral, canonicalize

        atom_literals = []
        for atom in self.mapping.atoms:
            lit = canonicalize(atom)
            if not isinstance(lit, CanonicalLiteral):
                return None
            atom_literals.append(lit)
        context_literals = []
        pending = list(self.context)
        while pending:
            formula = pending.pop()
            if isinstance(formula, _BoolConst):
                if not formula.value:
                    return None  # context unsatisfiable; slow path decides
                continue
            if isinstance(formula, _And):
                pending.extend(formula.operands)
                continue
            if formula.is_atomic():
                lit = canonicalize(formula)
                if isinstance(lit, bool):
                    if not lit:
                        return None  # context unsatisfiable; slow path decides
                    continue
                context_literals.append((lit.atom, lit.positive))
                continue
            return None  # non-literal context: use the SMT facade
        return atom_literals, tuple(context_literals or ())

    def feasible_prefix(self, assignment, length):
        if self._literals is None:
            return self._feasible_slow(assignment, length)
        pairs = self._atom_pairs
        literals = list(self._context_prefix)
        for i in range(length):
            when_set, when_clear = pairs[i]
            literals.append(when_set if assignment & (1 << i) else when_clear)
        if not literals:
            return True
        if self.solver._theory_ok(tuple(literals)):
            return True
        # Shrink the inconsistent set (memoized in the owning solver) and
        # record it as a (mask, bits) core over atom indices.  Context
        # literals hold for every prefix, so they contribute no bits.
        mask = bits = 0
        for literal in self.solver._shrink_core(tuple(literals)):
            if literal in self._context_set:
                continue
            hit = self._lit_to_bit.get(literal)
            if hit is None:
                return False  # unmapped literal: skip recording
            index, want = hit
            mask |= 1 << index
            if want:
                bits |= 1 << index
        self._add_core(mask, bits)
        return False

    def _feasible_slow(self, assignment, length):
        if self._session is None:
            self._session = self.solver.feasibility_session(
                self.mapping.atoms, self.context
            )
        if self._session.feasible_prefix(assignment, length):
            return True
        pairs = self._session.last_core
        if pairs is not None:
            mask = bits = 0
            for index, want in pairs:
                mask |= 1 << index
                if want:
                    bits |= 1 << index
            self._add_core(mask, bits)
        return False

    def _add_core(self, mask, bits):
        key = (mask, bits)
        if key not in self._core_keys:
            self._core_keys.add(key)
            self.cores.append(key)


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
    flipped = TruthTable(table.num_vars)
    for assignment in range(2**table.num_vars):
        value = table.output(assignment)
        if value == DONT_CARE:
            flipped.set(assignment, DONT_CARE)
        else:
            flipped.set(assignment, 1 - value)
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
