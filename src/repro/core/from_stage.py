"""FROM stage (Section 4): table multiset viability and fixes.

Viability ``V1``: ``Tables(Q)`` equals ``Tables(Q*)`` as multisets.  By
Lemma 4.2 this is *necessary* for equivalence of SPJ queries under bag
semantics (absent constraints and modulo the always-empty corner case), so
FROM-stage hints are optimal for SPJ queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.logic.formulas import TRUE, map_atoms, simplify
from repro.logic.terms import Const
from repro.query import FromEntry


@dataclass
class FromDelta:
    """The FROM-stage diff: per-table count discrepancies."""

    missing: dict = field(default_factory=dict)  # table -> how many more needed
    extra: dict = field(default_factory=dict)  # table -> how many to remove

    @property
    def viable(self):
        return not self.missing and not self.extra


def check_from(target, working):
    """Viability check V1 plus the per-table discrepancy report."""
    target_counts = target.tables_multiset()
    working_counts = working.tables_multiset()
    delta = FromDelta()
    for table in set(target_counts) | set(working_counts):
        need = target_counts.get(table, 0)
        have = working_counts.get(table, 0)
        if need > have:
            delta.missing[table] = need - have
        elif have > need:
            delta.extra[table] = have - need
    return delta


def apply_from_fix(working, target, delta):
    """Produce a fixed working query whose FROM matches the target's.

    Missing tables are added under fresh aliases.  Extra aliases are
    removed, least-referenced first; atoms referencing a removed alias are
    replaced by TRUE and SELECT/GROUP BY terms referencing it are replaced
    or dropped (later stages repair the semantics, per footnote 4 of the
    paper -- only syntactic well-formedness must be preserved here).
    """
    entries = list(working.from_entries)
    used = {e.alias for e in entries}

    canonical_names = {e.table.lower(): e.table for e in target.from_entries}
    for table, count in delta.missing.items():
        for _ in range(count):
            alias = fresh_alias(table, used)
            used.add(alias)
            entries.append(FromEntry(canonical_names.get(table, table), alias))

    query = replace(working, from_entries=tuple(entries))
    for table, count in delta.extra.items():
        for _ in range(count):
            query = _remove_one_alias(query, table)
    return query


def fresh_alias(table, used):
    """``table`` lowercased, or with the first ``_2``, ``_3``, ... suffix
    that makes it an alias outside ``used``."""
    base = table.lower()
    if base not in used:
        return base
    index = 2
    while f"{base}_{index}" in used:
        index += 1
    return f"{base}_{index}"


def _reference_count(query, alias):
    prefix = alias + "."
    count = 0
    for obj in [query.where, query.having, *query.group_by, *query.select]:
        count += sum(1 for v in obj.variables() if v.name.startswith(prefix))
    return count


def _remove_one_alias(query, table):
    candidates = query.aliases_of(table)
    alias = min(candidates, key=lambda a: _reference_count(query, a))
    prefix = alias + "."

    def term_refs(term):
        return any(v.name.startswith(prefix) for v in term.variables())

    def scrub_atom(atom):
        return TRUE if term_refs(atom.left) or term_refs(atom.right) else atom

    new_select = tuple(
        Const.of(0) if term_refs(t) else t for t in query.select
    )
    return replace(
        query,
        from_entries=tuple(e for e in query.from_entries if e.alias != alias),
        where=simplify(map_atoms(query.where, scrub_atom)),
        group_by=tuple(t for t in query.group_by if not term_refs(t)),
        having=simplify(map_atoms(query.having, scrub_atom)),
        select=new_select,
    )
