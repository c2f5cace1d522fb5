"""Lazy DPLL(T) SMT facade: the paper's three Z3 primitives.

Implements ``IsSatisfiable`` / ``IsUnSatisfiable`` / ``IsEquiv`` (Section 3)
over quantifier-free SQL predicates, optionally under a *context* -- a set
of formulas conjoined as background assertions, exactly as the paper's
subscripted primitives ``IsSatisfiable_C`` etc.

Architecture: the propositional abstraction of the input is Tseitin-encoded
and handed to the DPLL core; each propositional model is checked against
the combined theory (linear arithmetic + strings) one variable-disjoint
part at a time; on a conflict the first inconsistent part is fed back as a
blocking clause.
This is complete for the linear-rational fragment and sound-for-UNSAT
everywhere, which is the guarantee Qr-Hint's correctness requires.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SolverLimitError
from repro.logic.formulas import (
    And,
    BoolConst,
    Comparison,
    Not,
    Or,
    conj,
    iff,
    implies,
    neg,
)
from repro.logic.terms import Term
from repro.obs import TRACER
from repro.service.faults import FAULTS
from repro.solver.atoms import CanonicalLiteral, canonicalize
from repro.solver.sat import SatSolver
from repro.solver.theory import (
    check_literals,
    find_model as theory_find_model,
    independent_parts,
)
from repro.solver.tseitin import CnfBuilder, assert_skeleton

SAT = "sat"
UNSAT = "unsat"

_MISS = object()  # cache-miss sentinel (None is not a legal verdict)

# Long-lived sessions hold one Solver for their whole lifetime; each memo
# flushes wholesale at this size so sustained grading traffic cannot grow
# it without bound (a flush only costs re-derivation, not soundness).
_CACHE_LIMIT = 200_000
#: Theory-rejected models :meth:`Solver.find_model` blocks before giving up.
_MAX_MODEL_ATTEMPTS = 32

#: Facade counter <- SAT-core counter, folded in per DPLL(T) loop.
_SAT_COUNTERS = (
    ("learned_clauses", "learned_clauses"),
    ("propagations", "propagations"),
    ("conflicts", "conflicts"),
)


def _remember(cache, key, value):
    """Store ``value`` under ``key``; ``cache`` flushes at ``_CACHE_LIMIT``."""
    if len(cache) >= _CACHE_LIMIT:
        cache.clear()  # bound long-lived service growth
    cache[key] = value
    return value


def _block_literals(sat, atom_vars, literals):
    """Add the clause forbidding ``literals`` to the SAT core."""
    sat.add_clause([
        -(atom_vars[atom]) if positive else atom_vars[atom]
        for atom, positive in literals
    ])


@dataclass
class TheoryModel:
    """A satisfying assignment surfaced through :meth:`Solver.find_model`.

    The stable model-snapshot shape is three layers deep, mirroring how the
    DPLL(T) loop builds it: the SAT core's decision trail yields ``atoms``
    (canonical theory atom -> asserted polarity), and the theory solvers
    concretize those literals into ``values`` (base term -> Fraction/str).
    ``complete`` is False when opaque atoms (non-linear arithmetic, exotic
    operands) were abstracted away -- the valuation then satisfies every
    non-opaque literal but carries no guarantee for the opaque ones, so
    consumers must verify end to end (the witness verifier does).
    """

    atoms: dict  # Atom -> bool polarity in the accepted propositional model
    values: dict = field(default_factory=dict)  # Term -> Fraction | str
    complete: bool = True

    def value(self, term, default=None):
        return self.values.get(term, default)

    def env(self):
        """The valuation keyed by term string form.

        Matches :func:`repro.logic.evaluate.eval_term`'s environment
        convention (``Var`` -> its name, ``AggCall`` -> its rendered call),
        so ``eval_formula(formula, model.env())`` re-checks the model when
        every variable of ``formula`` is constrained.
        """
        return {str(term): value for term, value in self.values.items()}


class Solver:
    """Reusable SMT solver with memoized primitive calls."""

    def __init__(self, max_conflicts=50_000):
        self.max_conflicts = max_conflicts
        #: Optional cooperative :class:`repro.service.deadline.Deadline`.
        #: Set by the request layer before a grade, cleared after; polled
        #: once per DPLL(T) round by :meth:`_checkpoint`.
        self.deadline = None
        self._sat_cache = {}
        self._theory_cache = {}
        self._canonical_cache = {}
        self.stats = {
            "sat_calls": 0,
            "theory_calls": 0,
            "cache_hits": 0,
            "theory_cache_hits": 0,
            "learned_clauses": 0,
            "propagations": 0,
            "conflicts": 0,
            "core_pruned_subtrees": 0,
        }

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def stats_snapshot(self):
        """A point-in-time copy of the counters plus the cache hit-rate.

        Long-lived sessions and the batch grader diff two snapshots to
        report per-request and per-form deltas instead of process-lifetime
        totals.
        """
        snapshot = dict(self.stats)
        lookups = snapshot["cache_hits"] + snapshot["sat_calls"]
        snapshot["cache_hit_rate"] = (
            snapshot["cache_hits"] / lookups if lookups else 0.0
        )
        return snapshot

    def _checkpoint(self):
        """Cooperative poll run once per DPLL(T) round.

        Raises :class:`~repro.service.deadline.DeadlineExceeded` when the
        attached deadline (if any) has expired, and services the
        ``solver.slow`` fault point when fault injection is active.  Both
        guards are plain attribute checks, so the no-deadline no-fault
        production path pays two loads per round.
        """
        deadline = self.deadline
        if deadline is not None:
            deadline.check("solver")
        if FAULTS.enabled:
            FAULTS.sleep("solver.slow")

    # ------------------------------------------------------------------
    # Public primitives
    # ------------------------------------------------------------------

    def is_satisfiable(self, formula, context=()):
        """True iff ``context AND formula`` is satisfiable (definitive)."""
        return self._check(formula, context) == SAT

    def is_unsatisfiable(self, formula, context=()):
        """True iff ``context AND formula`` is unsatisfiable (definitive)."""
        return self._check(formula, context) == UNSAT

    def is_valid(self, formula, context=()):
        """True iff ``formula`` holds in every model of ``context``."""
        return self.is_unsatisfiable(neg(formula), context)

    def entails(self, antecedent, consequent, context=()):
        """True iff ``antecedent => consequent`` under ``context``."""
        return self.is_valid(implies(antecedent, consequent), context)

    def is_equiv(self, left, right, context=()):
        """Paper primitive ``IsEquiv``: formula or value-expression equality."""
        if isinstance(left, Term) and isinstance(right, Term):
            return self.terms_equal(left, right, context)
        return self.is_valid(iff(left, right), context)

    def terms_equal(self, left, right, context=()):
        """True iff value expressions are equal in every model of context."""
        if left == right:
            return True
        if left.type.is_numeric != right.type.is_numeric:
            return False
        return self.is_unsatisfiable(Comparison("<>", left, right), context)

    def in_bound(self, lower, formula, upper, context=()):
        """True iff ``lower => formula`` and ``formula => upper``."""
        return self.entails(lower, formula, context) and self.entails(
            formula, upper, context
        )

    def find_model(self, formula, context=()):
        """A :class:`TheoryModel` of ``context AND formula``, or None.

        Runs the same lazy DPLL(T) loop as the decision primitives but, on
        a theory-consistent propositional model, asks the theory solvers to
        concretize the literal conjunction into term values.  Models whose
        concretization fails (e.g. rational-only solutions the integer
        tightening cannot rule out, or exotic string pattern combinations)
        are blocked and the search continues, up to ``_MAX_MODEL_ATTEMPTS``
        such rejections; None therefore means "no model surfaced", which is
        weaker than UNSAT whenever opaque atoms or extraction limits are in
        play.  Results are deterministic per formula (a fresh SAT core is
        built per call; only the memoized theory-literal cache is shared).
        """
        if not TRACER.enabled:  # keep the production path span-free
            return self._find_model_impl(formula, context)
        with TRACER.span("solver.find_model") as span:
            model = self._find_model_impl(formula, context)
            span.set(found=model is not None)
            return model

    def _find_model_impl(self, formula, context):
        self.stats["sat_calls"] += 1
        encoded = self._encode(conj(*context, formula))
        if encoded is False:
            return None
        if encoded is True:
            return TheoryModel(atoms={}, values={}, complete=True)
        sat, atom_vars = encoded
        attempts = 0
        for literals in self._dpllt(sat, atom_vars):
            extracted = theory_find_model(literals)
            if extracted is not None:
                values, complete = extracted
                return TheoryModel(
                    atoms=dict(literals),
                    values=dict(values),
                    complete=complete,
                )
            attempts += 1
            if attempts >= _MAX_MODEL_ATTEMPTS:
                return None
            _block_literals(sat, atom_vars, literals)
        return None

    # ------------------------------------------------------------------
    # Core loop
    # ------------------------------------------------------------------

    def _check(self, formula, context):
        cache = self._sat_cache
        key = (formula, tuple(context))
        result = cache.get(key, _MISS)
        if result is not _MISS:
            self.stats["cache_hits"] += 1
            return result
        return _remember(cache, key, self._solve(conj(*context, formula)))

    def _solve(self, formula):
        if not TRACER.enabled:  # keep the production path span-free
            return self._solve_impl(formula)
        with TRACER.span("solver.solve") as span:
            result = self._solve_impl(formula)
            span.set(result=result)
            return result

    def _solve_impl(self, formula):
        self.stats["sat_calls"] += 1
        encoded = self._encode(formula)
        if isinstance(encoded, bool):
            return SAT if encoded else UNSAT
        for _ in self._dpllt(*encoded):
            return SAT
        return UNSAT

    def _encode(self, formula):
        """Tseitin-encode ``formula`` into a fresh SAT core.

        Returns ``(sat, atom_vars)`` (``atom_vars`` maps each theory atom
        to its propositional variable), or a bool for a constant formula.
        """
        atom_vars = {}
        sat = SatSolver()
        # Stream Tseitin clauses straight into the SAT core: no buffered
        # clause list, and the core's watch lists are built exactly once.
        builder = CnfBuilder(sink=sat.add_clause)
        skeleton = self._abstract(formula, atom_vars, builder)
        if isinstance(skeleton, bool):
            return skeleton
        assert_skeleton(skeleton, builder)
        sat.ensure_vars(builder.num_vars)
        return sat, atom_vars

    def _dpllt(self, sat, atom_vars):
        """The lazy DPLL(T) loop behind every primitive.

        Yields the literal tuple of each theory-consistent propositional
        model of ``sat``, atoms in ascending SAT variable order (this
        order decides the parts, the blocking clauses and the witnesses).
        A theory conflict is blocked in the one persistent SAT core, which
        keeps its watch lists, learned clauses and saved phases across
        rounds.  Returns once ``sat`` is UNSAT; raises
        :class:`SolverLimitError` after ``max_conflicts`` rounds.  The
        SAT core's counters move into ``stats`` as a delta when the loop
        ends: it returns, it raises, or the caller stops iterating.
        """
        ordered = sorted(atom_vars.items(), key=lambda item: item[1])
        baseline = dict(sat.stats)
        try:
            for _ in range(self.max_conflicts):
                self._checkpoint()
                model = sat.solve()
                if model is None:
                    return
                literals = tuple((atom, model[var]) for atom, var in ordered)
                if self._theory_round(sat, atom_vars, literals):
                    yield literals
            raise SolverLimitError("exceeded conflict budget")
        finally:
            after = sat.stats
            for ours, theirs in _SAT_COUNTERS:
                self.stats[ours] += after[theirs] - baseline[theirs]

    def _theory_round(self, sat, atom_vars, literals):
        """One theory-lemma round of the DPLL(T) loop.

        Checks the propositional model's literal conjunction against the
        theory; on conflict the first inconsistent part is blocked in the
        SAT core.  Returns True iff the model was theory-consistent.  The
        traced variant records one ``solver.theory_round`` span per round;
        the production path (no active trace) stays span-free.
        """
        if not TRACER.enabled:
            part = self._inconsistent_part(literals)
            if part is not None:
                _block_literals(sat, atom_vars, part)
            return part is None
        with TRACER.span("solver.theory_round") as span:
            span.set(literals=len(literals))
            part = self._inconsistent_part(literals)
            span.set(consistent=part is None)
            if part is not None:
                span.set(core=len(part))
                _block_literals(sat, atom_vars, part)
            return part is None

    def _inconsistent_part(self, literals):
        """The first theory-inconsistent part of ``literals``, or None.

        The parts share no unknown (:func:`independent_parts`), so the
        conjunction is consistent iff every part is, and an inconsistent
        part is a sound blocking lemma as it stands.  Part verdicts are
        memoized in ``_theory_cache``: a part shared by many literal sets
        (the context's, a truth-table component's) is decided once per
        solver.  ``theory_calls`` counts part decisions and
        ``theory_cache_hits`` parts served from the cache.
        """
        cache, stats = self._theory_cache, self.stats
        for part in independent_parts(literals):
            key = frozenset(part)
            verdict = cache.get(key, _MISS)
            if verdict is _MISS:
                stats["theory_calls"] += 1
                verdict = _remember(cache, key, check_literals(part))
            else:
                stats["theory_cache_hits"] += 1
            if not verdict:
                return part
        return None

    def _abstract(self, formula, atom_vars, builder):
        """Build a Tseitin skeleton, abstracting atoms to variables.

        Returns the skeleton, or a bool if the formula is constant.  Each
        comparison is canonicalized once per solver (``_canonical_cache``):
        the uncached checks of one grade share most of their comparisons.
        """
        if isinstance(formula, BoolConst):
            return formula.value
        if isinstance(formula, Comparison):
            canonical = self._canonical_cache.get(formula)
            if canonical is None:
                canonical = _remember(
                    self._canonical_cache, formula, canonicalize(formula)
                )
            if isinstance(canonical, bool):
                return canonical
            assert isinstance(canonical, CanonicalLiteral)
            var = atom_vars.get(canonical.atom)
            if var is None:
                var = builder.new_var()
                atom_vars[canonical.atom] = var
            return ("lit", var if canonical.positive else -var)
        if isinstance(formula, Not):
            child = self._abstract(formula.child, atom_vars, builder)
            if isinstance(child, bool):
                return not child
            return ("not", child)
        if isinstance(formula, (And, Or)):
            is_and = isinstance(formula, And)
            children = []
            for operand in formula.operands:
                child = self._abstract(operand, atom_vars, builder)
                if isinstance(child, bool):
                    if child != is_and:
                        return child  # short-circuit
                    continue
                children.append(child)
            if not children:
                return is_and
            if len(children) == 1:
                return children[0]
            return ("and" if is_and else "or", children)
        raise TypeError(f"not a formula: {formula!r}")
