"""Theory consistency checking for conjunctions of canonical literals.

The lazy SMT loop hands this module a full truth assignment over the
canonical atoms; we dispatch the numeric literals to the Fourier-Motzkin
solver and the string literals to the union-find/LIKE solver.  Opaque atoms
are unconstrained and always consistent.  :func:`independent_parts` splits
a literal set into parts that share no unknown, which the SMT facade
decides and memoizes one by one.

:func:`find_model` runs the same dispatch but asks each theory for a
concrete assignment; the merged term valuation (plus a completeness flag
that records whether opaque atoms were ignored) backs the counterexample
witness subsystem.
"""

from __future__ import annotations

from repro.logic.terms import AggCall, Var
from repro.solver import arith, strings
from repro.solver.arith import Constraint, EQ, LE, LT


def _partition(literals):
    """Split literals into per-theory constraint lists.

    Returns ``(numeric_constraints, numeric_disequalities, string_equalities,
    string_disequalities, string_likes, opaque_count)``, or None when the
    same atom is asserted with both polarities.
    """
    polarity_seen = {}
    for atom, positive in literals:
        if polarity_seen.setdefault(atom, positive) != positive:
            return None  # the same atom asserted both ways

    numeric_constraints = []
    numeric_disequalities = []
    string_equalities = []
    string_disequalities = []
    string_likes = []
    opaque_count = 0

    for atom, positive in literals:
        kind = atom.kind
        if kind == "num_le":
            expr = atom.payload
            if positive:
                numeric_constraints.append(Constraint(expr, LE))
            else:
                numeric_constraints.append(Constraint(expr.negate(), LT))
        elif kind == "num_eq":
            expr = atom.payload
            if positive:
                numeric_constraints.append(Constraint(expr, EQ))
            else:
                numeric_disequalities.append(expr)
        elif kind == "str_eq":
            pair = atom.payload
            if positive:
                string_equalities.append(pair)
            else:
                string_disequalities.append(pair)
        elif kind == "str_like":
            term, pattern = atom.payload
            string_likes.append((term, pattern, positive))
        elif kind == "opaque":
            opaque_count += 1
        else:
            raise ValueError(f"unknown atom kind {kind!r}")
    return (
        numeric_constraints,
        numeric_disequalities,
        string_equalities,
        string_disequalities,
        string_likes,
        opaque_count,
    )


def _link_keys(atom):
    """The unknowns through which ``atom`` constrains other atoms.

    Numeric atoms link through their coefficient terms and string atoms
    through the base terms of their sides.  Constants link nothing: two
    terms pinned to the same constant constrain each other only through a
    literal that mentions both.  An opaque atom is a free propositional
    variable to the theories, so it is its own key: it links to nothing
    but the other polarity of itself.
    """
    kind = atom.kind
    if kind == "num_le" or kind == "num_eq":
        return [term for term, _ in atom.payload.coeffs]
    if kind == "str_eq" or kind == "str_like":
        keys = []
        for side in atom.payload if kind == "str_eq" else atom.payload[:1]:
            if isinstance(side, (Var, AggCall)):
                keys.append(side)
            else:
                keys += side.variables() | side.aggregates()
        if keys:
            return keys
    return [atom]


def independent_parts(literals):
    """Split literals into parts that share no unknown, in the given order.

    A conjunction of variable-disjoint parts is satisfiable iff each part
    is, so :func:`check_literals` may decide the parts one by one.  Each
    part keeps the literals' relative order (Fourier-Motzkin's elimination
    order and integer tightening follow the constraint order), and the
    parts come in the order of their first literal.
    """
    if len(literals) < 2:
        return [literals]
    # Union-find over literal indices.  The literal being linked stays a
    # root: every part it meets is hung below it.
    parent = list(range(len(literals)))
    owner = {}  # link key -> first literal index that had it
    for index, (atom, _) in enumerate(literals):
        for key in _link_keys(atom):
            root = owner.setdefault(key, index)
            while parent[root] != root:
                root = parent[root]
            parent[root] = index
    parts = {}
    for index, literal in enumerate(literals):
        root = index
        while parent[root] != root:
            root = parent[root]
        parts.setdefault(root, []).append(literal)
    return list(parts.values())


def check_literals(literals):
    """Return True iff the conjunction of (Atom, positive) pairs is SAT."""
    parts = _partition(literals)
    if parts is None:
        return False
    (numeric_constraints, numeric_disequalities, string_equalities,
     string_disequalities, string_likes, _) = parts

    if numeric_constraints or numeric_disequalities:
        if not arith.is_satisfiable(numeric_constraints, numeric_disequalities):
            return False
    if string_equalities or string_disequalities or string_likes:
        if not strings.check_strings(
            string_equalities, string_disequalities, string_likes
        ):
            return False
    return True


def find_model(literals):
    """A concrete valuation realizing the literal conjunction, or None.

    Returns ``(values, complete)`` where ``values`` maps base terms (Vars,
    AggCalls, string terms) to Fractions/strings and ``complete`` is False
    when opaque atoms were present (they are ignored, so the valuation does
    not guarantee them -- callers must verify end to end).
    """
    parts = _partition(literals)
    if parts is None:
        return None
    (numeric_constraints, numeric_disequalities, string_equalities,
     string_disequalities, string_likes, opaque_count) = parts

    values = {}
    if numeric_constraints or numeric_disequalities:
        numeric = arith.find_model(numeric_constraints, numeric_disequalities)
        if numeric is None:
            return None
        values.update(numeric)
    if string_equalities or string_disequalities or string_likes:
        stringy = strings.find_model(
            string_equalities, string_disequalities, string_likes
        )
        if stringy is None:
            return None
        values.update(stringy)
    return values, opaque_count == 0
