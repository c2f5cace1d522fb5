"""Boolean formulas (SQL predicates) as immutable syntax trees.

A formula is one of: the constants :data:`TRUE` / :data:`FALSE`, an atomic
comparison (:class:`Comparison`), or a logical combination (:class:`And`,
:class:`Or`, :class:`Not`).  Following the paper (Section 5), internal nodes
carry ``AND``/``OR``/``NOT`` and leaves are atomic predicates; repairs are
defined over subtrees of this representation, and all sizes/costs count
syntax-tree nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.logic.terms import Term

COMPARISON_OPS = ("=", "<>", "<", "<=", ">", ">=", "LIKE", "NOT LIKE")

NEGATED_OP = {
    "=": "<>",
    "<>": "=",
    "<": ">=",
    "<=": ">",
    ">": "<=",
    ">=": "<",
    "LIKE": "NOT LIKE",
    "NOT LIKE": "LIKE",
}

FLIPPED_OP = {
    "=": "=",
    "<>": "<>",
    "<": ">",
    "<=": ">=",
    ">": "<",
    ">=": "<=",
}


class Formula:
    """Base class for all formulas."""

    __slots__ = ()

    def children(self):
        return ()

    def size(self):
        """Number of nodes in the syntax tree (atoms count as one node)."""
        raise NotImplementedError

    def is_atomic(self):
        return False

    def variables(self):
        out = set()
        _collect_vars(self, out)
        return out

    def atoms(self):
        """All atomic :class:`Comparison` leaves, in left-to-right order."""
        out = []
        _collect_atoms(self, out)
        return out

    def aggregates(self):
        out = set()
        for atom in self.atoms():
            out |= atom.left.aggregates()
            out |= atom.right.aggregates()
        return out

    def has_aggregate(self):
        return bool(self.aggregates())

    def __and__(self, other):
        return conj(self, other)

    def __or__(self, other):
        return disj(self, other)

    def __invert__(self):
        return neg(self)


def _collect_vars(formula, out):
    if isinstance(formula, Comparison):
        out |= formula.left.variables()
        out |= formula.right.variables()
    for child in formula.children():
        _collect_vars(child, out)


def _collect_atoms(formula, out):
    if isinstance(formula, Comparison):
        out.append(formula)
    for child in formula.children():
        _collect_atoms(child, out)


@dataclass(frozen=True)
class BoolConst(Formula):
    """The constant TRUE or FALSE."""

    value: bool

    def size(self):
        return 1

    def __str__(self):
        return "TRUE" if self.value else "FALSE"

    def __repr__(self):
        return str(self)


TRUE = BoolConst(True)
FALSE = BoolConst(False)


@dataclass(frozen=True)
class Comparison(Formula):
    """An atomic predicate ``left op right``."""

    op: str
    left: Term
    right: Term

    def __post_init__(self):
        if self.op not in COMPARISON_OPS:
            raise ValueError(f"unknown comparison operator {self.op!r}")

    def is_atomic(self):
        return True

    def size(self):
        # The paper's cost model (Definition 3, Example 6) counts each atomic
        # predicate as a single syntax-tree node.
        return 1

    def negated(self):
        """The complementary atom, e.g. ``a < b`` -> ``a >= b``."""
        return Comparison(NEGATED_OP[self.op], self.left, self.right)

    def flipped(self):
        """The same atom with sides swapped, e.g. ``a < b`` -> ``b > a``."""
        if self.op not in FLIPPED_OP:
            return self
        return Comparison(FLIPPED_OP[self.op], self.right, self.left)

    def map_sides(self, fn):
        """The same comparison over ``fn(left)`` and ``fn(right)``."""
        return Comparison(self.op, fn(self.left), fn(self.right))

    def __str__(self):
        return f"{self.left} {self.op} {self.right}"

    def __repr__(self):
        return str(self)


@dataclass(frozen=True)
class Not(Formula):
    """Logical negation with exactly one child."""

    child: Formula

    def children(self):
        return (self.child,)

    def size(self):
        return 1 + self.child.size()

    def __str__(self):
        return f"NOT ({self.child})"

    def __repr__(self):
        return str(self)


class _NaryOp(Formula):
    """Common behaviour of AND/OR nodes (>= 2 children)."""

    __slots__ = ()

    def children(self):
        return self.operands

    def size(self):
        return 1 + sum(c.size() for c in self.operands)

    def __str__(self):
        sep = f" {self.NAME} "
        return "(" + sep.join(str(c) for c in self.operands) + ")"

    def __repr__(self):
        return str(self)


@dataclass(frozen=True)
class And(_NaryOp):
    """Logical conjunction over two or more children."""

    operands: tuple[Formula, ...]

    NAME = "AND"

    def __post_init__(self):
        if len(self.operands) < 2:
            raise ValueError("And requires at least two operands")


@dataclass(frozen=True)
class Or(_NaryOp):
    """Logical disjunction over two or more children."""

    operands: tuple[Formula, ...]

    NAME = "OR"

    def __post_init__(self):
        if len(self.operands) < 2:
            raise ValueError("Or requires at least two operands")


def conj(*formulas):
    """Smart AND: flattens nested ANDs and simplifies TRUE/FALSE."""
    flat = []
    for f in formulas:
        if f is TRUE or f == TRUE:
            continue
        if f is FALSE or f == FALSE:
            return FALSE
        if isinstance(f, And):
            flat.extend(f.operands)
        else:
            flat.append(f)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def disj(*formulas):
    """Smart OR: flattens nested ORs and simplifies TRUE/FALSE."""
    flat = []
    for f in formulas:
        if f is FALSE or f == FALSE:
            continue
        if f is TRUE or f == TRUE:
            return TRUE
        if isinstance(f, Or):
            flat.extend(f.operands)
        else:
            flat.append(f)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def neg(formula):
    """Smart NOT: simplifies constants, double negation, and atoms."""
    if formula == TRUE:
        return FALSE
    if formula == FALSE:
        return TRUE
    if isinstance(formula, Not):
        return formula.child
    if isinstance(formula, Comparison):
        return formula.negated()
    return Not(formula)


def map_atoms(formula, fn):
    """Replace each :class:`Comparison` by ``fn(atom)``, keeping the shape.

    AND/OR/NOT nodes are rebuilt node for node, without flattening, so a
    repair-site path into ``formula`` addresses the same node in the result.
    """
    if isinstance(formula, Comparison):
        return fn(formula)
    if isinstance(formula, Not):
        return Not(map_atoms(formula.child, fn))
    if isinstance(formula, _NaryOp):
        return type(formula)(tuple(map_atoms(c, fn) for c in formula.operands))
    return formula


def simplify(formula):
    """Rebuild ``formula`` bottom-up through ``conj``, ``disj`` and ``neg``."""
    if isinstance(formula, Not):
        return neg(simplify(formula.child))
    if isinstance(formula, And):
        return conj(*(simplify(c) for c in formula.operands))
    if isinstance(formula, Or):
        return disj(*(simplify(c) for c in formula.operands))
    return formula


def implies(antecedent, consequent):
    return disj(neg(antecedent), consequent)


def iff(left, right):
    return conj(implies(left, right), implies(right, left))


def xor(left, right):
    return disj(conj(left, neg(right)), conj(neg(left), right))
