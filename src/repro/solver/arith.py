"""Linear arithmetic theory solver (Fourier-Motzkin elimination).

Decides satisfiability of conjunctions of linear constraints
``expr (= | <= | <) 0`` plus disequalities ``expr <> 0`` over rational
variables, with *integer tightening* (``e < 0`` with integral ``e`` over
INT-typed terms becomes ``e <= -1``) recovering the integer-domain
inferences the paper relies on (e.g. ``A > 100  =>  MAX(A) >= 101``).

Beyond the yes/no decision, :func:`find_model` extracts a concrete
satisfying assignment (base term -> :class:`~fractions.Fraction`) by
recording the elimination order and back-substituting: each eliminated
variable's surviving constraints are evaluated under the partial
assignment to a numeric interval, and a value inside the interval is
picked (an integer whenever the term is INT-typed and the interval
contains one).  The witness subsystem turns these assignments into
concrete database tuples.

Over the rationals the procedure is a complete decision procedure for this
fragment; disequalities are handled exactly via the convexity argument: a
consistent system of inequalities together with disequalities ``e_i <> 0``
is satisfiable iff no single ``e_i = 0`` is entailed (an affine subspace
over an infinite field is never a finite union of proper subspaces).
Over the integers the procedure is sound for UNSAT (never reports UNSAT
for a satisfiable system) which is the direction Qr-Hint's correctness
depends on.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from repro.logic.linear import LinExpr

EQ = "="
LE = "<="
LT = "<"


class Constraint:
    """A linear constraint ``expr rel 0``."""

    __slots__ = ("expr", "rel")

    def __init__(self, expr, rel):
        self.expr = expr
        self.rel = rel

    def __repr__(self):
        return f"{self.expr} {self.rel} 0"

    def tightened(self):
        """Integer tightening: strict integral constraints become <=."""
        if self.rel != LT:
            return self
        expr = self.expr
        if not expr.coeffs or not expr.all_int_typed():
            return self
        denom = lcm(
            expr.constant.denominator, *(c.denominator for _, c in expr.coeffs)
        )
        scaled = expr.scale(denom)
        if not scaled.is_integral():
            return self
        # scaled < 0 over integers  <=>  scaled <= -1  <=>  scaled + 1 <= 0
        return Constraint(scaled.add(LinExpr.of_const(1)), LE)


def _substitute(expr, var, replacement):
    """Replace ``var`` in ``expr`` by the LinExpr ``replacement``."""
    coeffs = expr.coeff_dict()
    coeff = coeffs.pop(var, Fraction(0))
    base = LinExpr.build(coeffs, expr.constant)
    if coeff == 0:
        return base
    return base.add(replacement.scale(coeff))


def _check_constant(constraint):
    """Evaluate a variable-free constraint; True if it holds."""
    value = constraint.expr.constant
    if constraint.rel == EQ:
        return value == 0
    if constraint.rel == LE:
        return value <= 0
    return value < 0


def is_satisfiable(constraints, disequalities=()):
    """Decide a conjunction of constraints and disequalities.

    ``constraints`` is an iterable of :class:`Constraint`;
    ``disequalities`` an iterable of :class:`LinExpr` (meaning ``expr <> 0``).
    Returns True (satisfiable) or False.
    """
    constraints = [c.tightened() for c in constraints]
    if not _feasible(constraints):
        return False
    for diseq in disequalities:
        if diseq.is_constant:
            if diseq.constant == 0:
                return False
            continue
        # The system forces diseq = 0 iff both strict sides are infeasible.
        low = _feasible(constraints + [Constraint(diseq, LT)])
        if low:
            continue
        high = _feasible(constraints + [Constraint(diseq.negate(), LT)])
        if not high:
            return False
    return True


def _feasible(constraints):
    """Fourier-Motzkin feasibility of a system of (in)equalities."""
    return _eliminate(constraints) is not None


def _eliminate(constraints):
    """Gaussian + Fourier-Motzkin elimination; None if infeasible.

    On success returns ``(substitutions, eliminated)``: the Gaussian
    ``(var, replacement)`` pairs and the FM ``(var, constraints that
    mention it)`` pairs, each in elimination order, from which
    :func:`_feasible_model` back-substitutes a model.
    """
    equalities = [c for c in constraints if c.rel == EQ]
    inequalities = [c for c in constraints if c.rel != EQ]

    # Gaussian elimination on equalities.
    substitutions = []
    while equalities:
        eq = equalities.pop()
        if eq.expr.is_constant:
            if eq.expr.constant != 0:
                return None
            continue
        var, coeff = eq.expr.coeffs[0]
        # var = -(rest) / coeff
        rest = LinExpr.build(
            {t: c for t, c in eq.expr.coeffs if t != var}, eq.expr.constant
        )
        replacement = rest.scale(Fraction(-1) / coeff)
        substitutions.append((var, replacement))
        equalities = [
            Constraint(_substitute(e.expr, var, replacement), EQ) for e in equalities
        ]
        inequalities = [
            Constraint(_substitute(i.expr, var, replacement), i.rel)
            for i in inequalities
        ]

    # Re-tighten after substitution (it may have changed integrality).
    pending = [c.tightened() for c in inequalities]
    eliminated = []
    while True:
        for c in pending:
            if c.expr.is_constant and not _check_constant(c):
                return None
        pending = _dedupe([c for c in pending if not c.expr.is_constant])
        if not pending:
            return substitutions, eliminated
        var = _pick_variable(pending)
        with_var, lowers, uppers, others = [], [], [], []
        for c in pending:
            coeff = dict(c.expr.coeffs).get(var, Fraction(0))
            if coeff == 0:
                others.append(c)
                continue
            with_var.append(c)
            if coeff > 0:
                uppers.append((c, coeff))  # coeff*var + rest rel 0 -> upper bound
            else:
                lowers.append((c, coeff))
        eliminated.append((var, with_var))
        combined = []
        for up_c, up_coeff in uppers:
            for low_c, low_coeff in lowers:
                # up: var <= -rest_up/up_coeff ; low: var >= -rest_low/low_coeff
                expr = up_c.expr.scale(-low_coeff).add(low_c.expr.scale(up_coeff))
                rel = LT if (up_c.rel == LT or low_c.rel == LT) else LE
                combined.append(Constraint(expr, rel).tightened())
        pending = others + combined


def _pick_variable(constraints):
    """Choose the variable whose elimination creates the fewest constraints."""
    occur = {}
    for c in constraints:
        for t, coeff in c.expr.coeffs:
            pos, negc = occur.get(t, (0, 0))
            if coeff > 0:
                occur[t] = (pos + 1, negc)
            else:
                occur[t] = (pos, negc + 1)
    return min(occur, key=lambda t: occur[t][0] * occur[t][1])


def _dedupe(constraints):
    seen = set()
    out = []
    for c in constraints:
        key = (c.rel, c.expr.coeffs, c.expr.constant)
        if key not in seen:
            seen.add(key)
            out.append(c)
    return out


# ----------------------------------------------------------------------
# Model extraction
# ----------------------------------------------------------------------


def evaluate(expr, assignment):
    """Evaluate a :class:`LinExpr` under ``assignment`` (term -> Fraction).

    Terms missing from the assignment count as 0 (they only occur with a
    zero net contribution to any constraint that was actually checked).
    """
    total = expr.constant
    for term, coeff in expr.coeffs:
        total += coeff * assignment.get(term, Fraction(0))
    return total


def _holds(constraint, assignment):
    value = evaluate(constraint.expr, assignment)
    if constraint.rel == EQ:
        return value == 0
    if constraint.rel == LE:
        return value <= 0
    return value < 0


def _floor(value):
    return value.numerator // value.denominator


def _pick_value(lower, lower_strict, upper, upper_strict):
    """A value inside the (possibly half-open/unbounded) interval, or None.

    Prefers the integer closest to zero when the interval contains one
    (INT-typed columns then get realistic values for free); otherwise
    takes the midpoint.
    """
    if lower is not None and upper is not None:
        if lower > upper:
            return None
        if lower == upper:
            if lower_strict or upper_strict:
                return None
            return lower
    if lower is None and upper is None:
        return Fraction(0)
    if upper is None:
        low_int = _floor(lower) + 1 if lower_strict or lower.denominator != 1 \
            else lower.numerator
        return Fraction(max(low_int, 0))
    if lower is None:
        high_int = _floor(upper) if not (upper_strict and upper.denominator == 1) \
            else upper.numerator - 1
        return Fraction(min(high_int, 0))
    # Both bounds finite and lower < upper: try an integer first.
    low_int = _floor(lower)
    if lower_strict or Fraction(low_int) < lower:
        low_int += 1
    high_int = _floor(upper)
    if upper_strict and Fraction(high_int) == upper:
        high_int -= 1
    if low_int <= high_int:
        return Fraction(max(low_int, min(high_int, 0)))
    # No integer in range (fine even for INT-typed terms: sound over the
    # rationals, and the witness layer verifies end to end).
    return (lower + upper) / 2


def _resolve_disequalities(constraints, disequalities, budget=None):
    """Replace each ``expr <> 0`` by a feasible strict side, backtracking.

    Returns the extended constraint list, or None when no consistent
    side-picking is found within the search budget.  The default budget
    scales with the number of disequalities (a straight-line success
    costs one unit each), so large satisfiable systems are never starved;
    it only cuts off pathological exponential backtracking.
    """
    pending = []
    for diseq in disequalities:
        if diseq.is_constant:
            if diseq.constant == 0:
                return None
            continue
        pending.append(diseq)
    if budget is None:
        budget = max(128, 8 * len(pending))
    chosen = list(constraints)
    budget_box = [budget]

    def descend(index):
        if index == len(pending):
            return True
        for side in (Constraint(pending[index], LT),
                     Constraint(pending[index].negate(), LT)):
            if budget_box[0] <= 0:
                return False
            budget_box[0] -= 1
            chosen.append(side)
            if _feasible(list(chosen)) and descend(index + 1):
                return True
            chosen.pop()
        return False

    if not descend(0):
        return None
    return chosen


def find_model(constraints, disequalities=()):
    """A satisfying assignment {base term: Fraction}, or None.

    Complete over the rationals for constraints + disequalities (the same
    fragment :func:`is_satisfiable` decides); INT-typed terms get integer
    values whenever their back-substituted interval contains one, so the
    result may be non-integral for integer-infeasible-but-rational-feasible
    systems -- callers that need exactness re-check the model.
    """
    constraints = [c.tightened() for c in constraints]
    if not _feasible(constraints):
        return None
    resolved = _resolve_disequalities(constraints, disequalities)
    if resolved is None:
        return None
    assignment = _feasible_model(resolved)
    if assignment is None:
        return None
    # Terms whose constraints were all consumed by another variable's
    # elimination were free by then: they implicitly took the value 0
    # (evaluate()'s default) during back-substitution, so record that 0
    # explicitly -- every input term must appear in the model.
    for constraint in constraints:
        for term in constraint.expr.terms():
            assignment.setdefault(term, Fraction(0))
    for diseq in disequalities:
        for term in diseq.terms():
            assignment.setdefault(term, Fraction(0))
    # Safety net: the model must satisfy everything it was derived from.
    for constraint in constraints:
        if not _holds(constraint, assignment):
            return None
    for diseq in disequalities:
        if evaluate(diseq, assignment) == 0:
            return None
    return assignment


def _feasible_model(constraints):
    """Like :func:`_feasible`, but reconstruct a model on success."""
    result = _eliminate(constraints)
    if result is None:
        return None
    substitutions, eliminated = result

    # Back-substitution: variables eliminated last get values first, so
    # every recorded constraint evaluates to a one-variable interval.
    assignment = {}
    for var, with_var in reversed(eliminated):
        lower = upper = None
        lower_strict = upper_strict = False
        for c in with_var:
            coeff = dict(c.expr.coeffs)[var]
            rest = evaluate(
                c.expr.add(LinExpr.of_term(var).scale(-coeff)), assignment
            )
            bound = -rest / coeff
            strict = c.rel == LT
            if coeff > 0:  # coeff*var + rest rel 0  ->  var <= bound
                if upper is None or bound < upper or (bound == upper and strict):
                    upper, upper_strict = bound, strict
            else:
                if lower is None or bound > lower or (bound == lower and strict):
                    lower, lower_strict = bound, strict
        value = _pick_value(lower, lower_strict, upper, upper_strict)
        if value is None:
            return None
        assignment[var] = value
    for var, replacement in reversed(substitutions):
        assignment[var] = evaluate(replacement, assignment)
    return assignment
