"""Table mapping between target and working query (Section 4, Appendix B).

When queries self-join a table, the roles of its aliases must be matched
across the two queries before WHERE/GROUP BY/... can be compared.  Each
alias gets a *signature* describing how its columns are used (per-operator
interaction sets from WHERE/HAVING, GROUP BY membership, SELECT positions),
expanded through equality equivalence classes; aliases of the same table
are then matched by maximum-similarity bipartite assignment.
"""

from __future__ import annotations

import itertools

from repro.logic.formulas import FLIPPED_OP
from repro.logic.terms import Const, Var
from repro.solver.strings import UnionFind

SIGNATURE_OPS = ("=", "<", ">", "<=", ">=", "LIKE")


def _equality_classes(query):
    """Union-find over vars/constants joined by equality atoms."""
    uf = UnionFind()
    for formula in (query.where, query.having):
        for atom in formula.atoms():
            if atom.op == "=" and isinstance(atom.left, (Var, Const)) and isinstance(
                atom.right, (Var, Const)
            ):
                uf.union(atom.left, atom.right)
    classes = {}
    for item in list(uf._parent):
        classes.setdefault(uf.find(item), set()).add(item)
    membership = {}
    for members in classes.values():
        for item in members:
            membership[item] = members
    return membership


def _class_of(membership, item):
    return membership.get(item, {item})


def _display(item, alias_tables):
    """Replace alias-qualified vars by their table names (heuristic)."""
    if isinstance(item, Var):
        alias, _, column = item.name.partition(".")
        table = alias_tables.get(alias)
        return f"{table}.{column}" if table else item.name
    return str(item)


class AliasSignature:
    """Signature of one alias (Appendix B.1)."""

    def __init__(self, where_having, group_by, select):
        self.where_having = where_having  # {(attr, op): frozenset(names)}
        self.group_by = group_by  # frozenset of attr names
        self.select = select  # {attr: frozenset(position ints)}

    def similarity(self, other, attributes):
        """Normalized similarity (sum of three Jaccard components)."""
        total_wh = 0.0
        for attr in attributes:
            for op in SIGNATURE_OPS:
                total_wh += jaccard(
                    self.where_having.get((attr, op), frozenset()),
                    other.where_having.get((attr, op), frozenset()),
                )
        wh = total_wh / (len(attributes) * len(SIGNATURE_OPS))
        gb = jaccard(self.group_by, other.group_by)
        sel = sum(
            jaccard(
                self.select.get(attr, frozenset()),
                other.select.get(attr, frozenset()),
            )
            for attr in attributes
        ) / len(attributes)
        return wh + gb + sel


def jaccard(a, b):
    """Jaccard similarity of two sets; 1.0 when both are empty."""
    if not a and not b:
        return 1.0
    union = a | b
    return len(a & b) / len(union)


def build_signature(query, alias, catalog):
    """Build the :class:`AliasSignature` of ``alias`` in ``query``."""
    table = catalog.table(query.table_of(alias))
    attributes = [c.name.lower() for c in table.columns]
    membership = _equality_classes(query)
    alias_tables = {e.alias: e.table for e in query.from_entries}

    where_having = {}
    for formula in (query.where, query.having):
        for atom in formula.atoms():
            _record_atom(atom, alias, membership, alias_tables, where_having)

    group_by = set()
    for term in query.group_by:
        for var in term.variables():
            for member in _class_of(membership, var):
                if isinstance(member, Var) and member.name.startswith(alias + "."):
                    group_by.add(member.name.split(".", 1)[1])

    select = {}
    for position, term in enumerate(query.select, start=1):
        for var in term.variables():
            for member in _class_of(membership, var):
                if isinstance(member, Var) and member.name.startswith(alias + "."):
                    attr = member.name.split(".", 1)[1]
                    select.setdefault(attr, set()).add(position)

    return AliasSignature(
        {k: frozenset(v) for k, v in where_having.items()},
        frozenset(group_by),
        {k: frozenset(v) for k, v in select.items()},
    ), attributes


def _record_atom(atom, alias, membership, alias_tables, out):
    op = atom.op
    if op in ("<>", "NOT LIKE"):
        return
    if op not in SIGNATURE_OPS:
        return
    sides = [(atom.left, op), (atom.right, FLIPPED_OP.get(op, op))]
    for (side, side_op), (other, _) in (
        (sides[0], sides[1]),
        (sides[1], sides[0]),
    ):
        if not isinstance(side, Var) or not side.name.startswith(alias + "."):
            continue
        attr = side.name.split(".", 1)[1]
        names = out.setdefault((attr, side_op), set())
        if op == "=":
            # Whole equivalence class of the column, minus itself.
            for member in _class_of(membership, side):
                if member != side:
                    names.add(_display(member, alias_tables))
        else:
            for member in _class_of(membership, other):
                names.add(_display(member, alias_tables))


def find_table_mapping(target, working, catalog):
    """Choose a table mapping m: Aliases(Q*) -> Aliases(Q) (Definition 1).

    Requires ``Tables(Q*) == Tables(Q)`` as multisets.  Aliases of tables
    referenced once map directly; self-joined tables are matched by
    maximum-total-similarity assignment over signature similarity.
    """
    if target.tables_multiset() != working_tables_guard(working):
        raise ValueError("table multisets differ; run the FROM stage first")

    mapping = {}
    for table in sorted({e.table for e in target.from_entries}):
        target_aliases = target.aliases_of(table)
        working_aliases = working.aliases_of(table)
        if len(target_aliases) == 1:
            mapping[target_aliases[0]] = working_aliases[0]
            continue
        sims = {}
        attributes = None
        target_sigs = {}
        working_sigs = {}
        for alias in target_aliases:
            target_sigs[alias], attributes = build_signature(target, alias, catalog)
        for alias in working_aliases:
            working_sigs[alias], _ = build_signature(working, alias, catalog)
        for t_alias, w_alias in itertools.product(target_aliases, working_aliases):
            sims[(t_alias, w_alias)] = target_sigs[t_alias].similarity(
                working_sigs[w_alias], attributes
            )
        best_perm, best_total = None, -1.0
        for perm in itertools.permutations(working_aliases):
            total = sum(
                sims[(t, w)] for t, w in zip(target_aliases, perm)
            )
            if total > best_total:
                best_perm, best_total = perm, total
        for t_alias, w_alias in zip(target_aliases, best_perm):
            mapping[t_alias] = w_alias
    return mapping


def working_tables_guard(working):
    return working.tables_multiset()


def unify_target(target, working, catalog):
    """Rename the target's aliases onto the working query's aliases.

    Returns (unified_target, mapping).  After this, both queries use the
    same alias namespace and their formulas are directly comparable.
    """
    mapping = find_table_mapping(target, working, catalog)
    return target.rename_aliases(mapping), mapping
