"""Synthetic error injection into WHERE predicates (Section 9, TPCH setup).

The paper injects errors by "changing atomic predicates or logical
operators"; ground-truth repair sites/fixes are known by construction, so
the optimality of Qr-Hint's repairs can be measured exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from repro.catalog import SqlType
from repro.core.cost import Repair, repair_cost
from repro.logic.formulas import And, Comparison, Or
from repro.logic.paths import all_paths, replace_at
from repro.logic.terms import Const, Var

_FLIP = {"=": "<>", "<>": "=", "<": ">", ">": "<", "<=": ">", ">=": "<"}
_WEAKEN = {"<": "<=", ">": ">=", "<=": "<", ">=": ">"}


@dataclass(frozen=True)
class Injection:
    """One injected error: where it happened and what it replaced."""

    path: tuple
    original: object  # the correct subformula at the path
    mutated: object  # what the wrong query contains instead
    kind: str  # "operator-flip" | "operator-weaken" | "constant" | "column"


@dataclass
class InjectedPredicate:
    """A wrong predicate plus its ground truth."""

    correct: object
    wrong: object
    injections: list

    def ground_truth_repair(self):
        """The by-construction repair: put the original subtrees back."""
        return Repair.of(
            {inj.path: inj.original for inj in self.injections}
        )

    def ground_truth_cost(self, weight=Fraction(1, 6)):
        return repair_cost(
            self.ground_truth_repair(), self.wrong, self.correct, weight
        )


def _string_typos(value, rng):
    """Deterministic (per rng) typo variants of a string constant."""
    variants = []
    if value:
        variants.append(value[0].swapcase() + value[1:])
        variants.append(value + "s")
    if len(value) > 1:
        variants.append(value[:-1])
        variants.append(value.lower())
    variants = [v for v in variants if v != value]
    return rng.choice(variants) if variants else None


def _mutate_atom(atom, rng, all_vars, kinds=None):
    """Mutate one atomic predicate; returns (mutated, kind) or None.

    ``kinds`` optionally restricts the mutation families considered
    (labels as recorded on :class:`Injection`: ``operator-flip``,
    ``operator-weaken``, ``constant``, ``column``).
    """
    choices = []
    if atom.op in _FLIP:
        choices.append(("flip", "operator-flip"))
    if atom.op in _WEAKEN:
        choices.append(("weaken", "operator-weaken"))
    if isinstance(atom.right, Const) and atom.right.type.is_numeric:
        choices.append(("constant", "constant"))
    if (
        isinstance(atom.right, Const)
        and atom.right.type == SqlType.STRING
        and _string_typos(atom.right.value, random.Random(0)) is not None
    ):
        choices.append(("string", "constant"))
    swap_candidates = [
        v
        for v in all_vars
        if v.vtype == atom.left.type and v != atom.left
    ]
    if isinstance(atom.left, Var) and swap_candidates:
        choices.append(("column", "column"))
    if kinds is not None:
        choices = [c for c in choices if c[1] in kinds]
    if not choices:
        return None
    choice, kind = rng.choice(choices)
    if choice == "flip":
        return Comparison(_FLIP[atom.op], atom.left, atom.right), kind
    if choice == "weaken":
        return Comparison(_WEAKEN[atom.op], atom.left, atom.right), kind
    if choice == "constant":
        delta = rng.choice([-10, -1, 1, 5, 100])
        new_value = atom.right.value + delta
        return (
            Comparison(atom.op, atom.left, Const(new_value, atom.right.type)),
            kind,
        )
    if choice == "string":
        typo = _string_typos(atom.right.value, rng)
        return (
            Comparison(atom.op, atom.left, Const(typo, SqlType.STRING)),
            kind,
        )
    new_var = rng.choice(swap_candidates)
    return Comparison(atom.op, new_var, atom.right), kind


def _mutate_operator(node, rng):
    """Swap an AND node for OR or vice versa (children preserved)."""
    if isinstance(node, And):
        return Or(node.operands)
    if isinstance(node, Or):
        return And(node.operands)
    return None


def inject_errors(predicate, num_errors, seed=0, allow_operator_swap=False,
                  kinds=None):
    """Inject ``num_errors`` independent errors into ``predicate``.

    Mutation sites are disjoint atoms (plus, optionally, internal AND/OR
    nodes).  Deterministic for a given seed.  ``kinds`` restricts the atom
    mutation families (see :func:`_mutate_atom`); ``and-or-swap`` sites are
    governed by ``allow_operator_swap`` independently.  Returns
    :class:`InjectedPredicate` (`wrong` carries the mutations; `correct` is
    the input).
    """
    rng = random.Random(seed)
    all_vars = sorted(predicate.variables(), key=str)
    atom_sites = [
        (path, node)
        for path, node in all_paths(predicate)
        if isinstance(node, Comparison)
    ]
    op_sites = []
    if allow_operator_swap:
        op_sites = [
            (path, node)
            for path, node in all_paths(predicate)
            if isinstance(node, (And, Or)) and path != ()
        ]
    rng.shuffle(atom_sites)
    rng.shuffle(op_sites)

    injections = []
    pool = atom_sites + op_sites
    for path, node in pool:
        if len(injections) >= num_errors:
            break
        if any(_overlaps(path, inj.path) for inj in injections):
            continue
        if isinstance(node, Comparison):
            mutated = _mutate_atom(node, rng, all_vars, kinds=kinds)
            if mutated is None:
                continue
            new_node, kind = mutated
        else:
            new_node = _mutate_operator(node, rng)
            if new_node is None:
                continue
            kind = "and-or-swap"
        injections.append(Injection(path, node, new_node, kind))

    if len(injections) < num_errors:
        raise ValueError(
            f"could only inject {len(injections)} of {num_errors} errors"
        )
    wrong = replace_at(predicate, {inj.path: inj.mutated for inj in injections})
    return InjectedPredicate(predicate, wrong, injections)


def _overlaps(path_a, path_b):
    shorter, longer = sorted((path_a, path_b), key=len)
    return longer[: len(shorter)] == shorter
