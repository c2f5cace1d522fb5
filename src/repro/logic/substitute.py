"""Variable substitution over terms and formulas, on the shared maps.

:func:`substitute` returns a flattened formula (it rebuilds through
``simplify``); :func:`alias_renamer` is the shape-preserving alias
renamer behind :meth:`repro.query.ResolvedQuery.rename_aliases` and
:meth:`repro.core.hints.Hint.rename_aliases`.
"""

from __future__ import annotations

from repro.logic.formulas import Formula, map_atoms, simplify
from repro.logic.terms import Term, Var, map_term


def substitute_term(term, mapping):
    """Replace variables in ``term`` per ``mapping`` ({Var: Term}).

    Substitution descends into aggregate arguments as well, which is what
    table-alias unification (Section 4) requires.
    """

    def replace_var(node):
        return mapping.get(node, node) if isinstance(node, Var) else node

    return map_term(term, replace_var)


def substitute(formula, mapping):
    """Replace variables in ``formula`` per ``mapping`` ({Var: Term})."""

    def replace_atom(atom):
        return atom.map_sides(lambda side: substitute_term(side, mapping))

    return simplify(map_atoms(formula, replace_atom))


def alias_renamer(mapping):
    """A function renaming the alias of every ``alias.column`` variable.

    ``mapping`` maps old alias -> new alias; renaming is simultaneous
    (``{"a": "b", "b": "a"}`` swaps).  The function takes a term or a
    formula, descends into aggregate arguments, and keeps a formula's
    AND/OR/NOT tree shape node for node (:func:`map_atoms`); any other
    value (None, a table name) comes back unchanged.
    """

    def rename_var(node):
        if isinstance(node, Var):
            alias, _, column = node.name.partition(".")
            if alias in mapping:
                return Var(f"{mapping[alias]}.{column}", node.vtype)
        return node

    def rename_term(term):
        return map_term(term, rename_var)

    def rename(node):
        if isinstance(node, Term):
            return rename_term(node)
        if isinstance(node, Formula):
            return map_atoms(node, lambda atom: atom.map_sides(rename_term))
        return node

    return rename


def rename_variables(obj, rename):
    """Rename variables via a name->name mapping, preserving types."""
    mapping = {
        v: Var(rename[v.name], v.vtype) for v in obj.variables() if v.name in rename
    }
    if isinstance(obj, Term):
        return substitute_term(obj, mapping)
    return substitute(obj, mapping)


def instantiate(obj, suffix):
    """Rename every variable ``v`` to ``v{suffix}`` (tuple instantiation).

    Used by the GROUP BY stage (Algorithm 4) where a formula must be
    evaluated over two distinct tuples ``t1`` and ``t2``.
    """
    rename = {v.name: f"{v.name}{suffix}" for v in obj.variables()}
    return rename_variables(obj, rename)
