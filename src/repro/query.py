"""Resolved query intermediate representation.

A :class:`ResolvedQuery` is the typed, name-resolved form of a single-block
SPJ/SPJA query: FROM is a list of (table, alias) pairs, and WHERE / GROUP BY
/ HAVING / SELECT are logic-level formulas and terms whose variables are
fully qualified ``alias.column`` references.  Every Qr-Hint stage operates
on this representation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace

from repro.logic.formulas import TRUE, Formula
from repro.logic.substitute import alias_renamer
from repro.logic.terms import Term


@dataclass(frozen=True)
class FromEntry:
    """One FROM-clause entry: a base table under an alias."""

    table: str  # canonical (catalog) table name
    alias: str  # lower-cased alias; defaults to the table name

    def __str__(self):
        if self.alias == self.table.lower():
            return self.table
        return f"{self.table} {self.alias}"


@dataclass(frozen=True)
class ResolvedQuery:
    """A resolved single-block query."""

    from_entries: tuple[FromEntry, ...]
    where: Formula = TRUE
    group_by: tuple[Term, ...] = ()
    having: Formula = TRUE
    select: tuple[Term, ...] = ()
    select_aliases: tuple = ()
    distinct: bool = False

    # -- structure queries ---------------------------------------------

    @property
    def is_spja(self):
        """True if the query has grouping, aggregation, or DISTINCT."""
        if self.group_by or self.distinct:
            return True
        if self.having != TRUE:
            return True
        return any(term.has_aggregate() for term in self.select)

    def tables_multiset(self):
        """``Tables(Q)``: the multiset of FROM tables (Section 4)."""
        return Counter(entry.table.lower() for entry in self.from_entries)

    def aliases(self):
        """``Aliases(Q)``: the set of FROM aliases."""
        return [entry.alias for entry in self.from_entries]

    def aliases_of(self, table):
        """``Aliases(Q, T)``: aliases associated with ``table``."""
        lowered = table.lower()
        return [e.alias for e in self.from_entries if e.table.lower() == lowered]

    def table_of(self, alias):
        """``Table(Q, t)``: the table an alias refers to, or None."""
        for entry in self.from_entries:
            if entry.alias == alias:
                return entry.table
        return None

    # -- transformation -------------------------------------------------

    def rename_aliases(self, mapping):
        """Rename FROM aliases and all ``alias.column`` variable references.

        ``mapping`` maps old alias -> new alias.  Renaming is simultaneous
        (``{"a": "b", "b": "a"}`` swaps) and keeps the AND/OR/NOT tree shape,
        so the inverse mapping restores an equal query.  Used to unify the
        target with the working query under a table mapping (Definition 1)
        and to map submissions to and from their canonical form.
        """
        rename = alias_renamer(mapping)
        return replace(
            self,
            from_entries=tuple(
                FromEntry(e.table, mapping.get(e.alias, e.alias))
                for e in self.from_entries
            ),
            where=rename(self.where),
            group_by=tuple(map(rename, self.group_by)),
            having=rename(self.having),
            select=tuple(map(rename, self.select)),
        )

    # -- rendering --------------------------------------------------------

    def to_sql(self):
        """Render back to SQL text (for hints and examples)."""
        parts = ["SELECT"]
        if self.distinct:
            parts.append("DISTINCT")
        items = []
        for term, alias in zip(self.select, self.select_aliases or [None] * len(self.select)):
            items.append(f"{term} AS {alias}" if alias else str(term))
        parts.append(", ".join(items))
        parts.append("FROM " + ", ".join(str(e) for e in self.from_entries))
        if self.where != TRUE:
            parts.append(f"WHERE {self.where}")
        if self.group_by:
            parts.append("GROUP BY " + ", ".join(str(t) for t in self.group_by))
        if self.having != TRUE:
            parts.append(f"HAVING {self.having}")
        return " ".join(parts)

    def __str__(self):
        return self.to_sql()
