"""Hint objects and natural-language templating.

Qr-Hint proper produces *repairs* (sites + fixes); the teaching staff turn
them into natural-language hints (paper, Example 2).  A :class:`Hint`
holds the repair payload as data and renders its message, in the style
"In [SQL clause], [hint]" of the paper's user study, whenever it is read,
so renaming the payload's aliases renames the text too.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.logic.substitute import alias_renamer


@dataclass(frozen=True)
class Hint:
    """One actionable hint for the user.

    ``site`` is what the stage found: a FROM hint's table name, a GROUP
    BY or SELECT term, or the WHERE or HAVING subformula that ``fix``
    replaces (HAVING's with aggregate calls, not scalar variables).
    ``numbers`` fill the kind's template: a FROM table's count, a SELECT
    position, the SELECT's output and expected column counts, or whether
    the query has DISTINCT.
    """

    stage: str  # FROM | WHERE | GROUP BY | HAVING | SELECT
    kind: str  # e.g. "missing-table", "repair-site", "remove-expr"
    site: object = None  # table name, Term or Formula, if any
    fix: object = None  # the Formula replacing ``site`` (normally hidden)
    numbers: tuple = ()

    @property
    def message(self):
        """The natural-language rendering of this hint's data."""
        kind, site, numbers = self.kind, self.site, self.numbers
        if kind == "missing-table":
            count = numbers[0]
            times = "once more" if count == 1 else f"{count} more times"
            return (
                f"In FROM, it looks like you are missing a table -- consider "
                f"using {site} {times}; read the problem carefully and see "
                f"what other piece of information you need."
            )
        if kind == "extra-table":
            count = numbers[0]
            times = "one of its" if count == 1 else f"{count} of its"
            return (
                f"In FROM, {site} appears more often than needed -- "
                f"consider removing {times} occurrences."
            )
        if kind == "repair-site":
            return (
                f"In {self.stage}, there is a problem with `{site}`. Think "
                f"through some concrete examples and see how you may fix it."
            )
        if kind == "remove-expr":
            return (
                f"In GROUP BY, `{site}` is incorrect -- it splits rows that "
                f"should stay in the same group."
            )
        if kind == "missing-expr" and self.stage == "GROUP BY":
            return (
                "In GROUP BY, your query is missing some grouping "
                "expression(s) -- the current grouping is too coarse."
            )
        if kind in ("wrong-expr", "extra-expr"):
            verdict = (
                "does not produce the right values" if kind == "wrong-expr"
                else "is not needed"
            )
            return (
                f"In SELECT, the expression at position {numbers[0]} "
                f"(`{site}`) {verdict}."
            )
        if kind == "missing-expr":
            return (
                f"In SELECT, your query outputs {numbers[0]} column(s) but "
                f"{numbers[1]} are expected -- something is missing."
            )
        if kind == "distinct":  # numbers: (query has DISTINCT,)
            return (
                "In SELECT, DISTINCT removes duplicates that should be kept "
                "-- consider dropping it." if numbers[0] else
                "In SELECT, your query may return duplicate rows -- consider "
                "whether DISTINCT is needed."
            )
        if kind == "degraded":
            return (
                f"time budget exhausted while grading the {self.stage} "
                "stage; earlier stages are exact -- retry with a larger "
                "timeout for a precise hint"
            )
        raise ValueError(f"no message template for hint kind {kind!r}")

    def rename_aliases(self, mapping):
        """This hint with the aliases in ``site`` and ``fix`` renamed per
        ``mapping`` (old alias -> new alias); table names are kept."""
        rename = alias_renamer(mapping)
        return replace(self, site=rename(self.site), fix=rename(self.fix))

    def to_dict(self, show_fixes=False):
        """JSON-safe rendering (used by the HTTP API and ``--json``)."""
        payload = {"kind": self.kind, "message": self.message}
        for name in ("site", "fix") if show_fixes else ("site",):
            value = getattr(self, name)
            payload[name] = None if value is None else str(value)
        return payload

    def __str__(self):
        return f"[{self.stage}] {self.message}"


def from_stage_hints(delta):
    return [
        Hint("FROM", kind, site=table, numbers=(count,))
        for kind, counts in (
            ("missing-table", delta.missing), ("extra-table", delta.extra)
        )
        for table, count in sorted(counts.items())
    ]


def predicate_repair_hints(stage, repair, predicate,
                           descalarize=lambda formula: formula):
    """One hint per fix; HAVING passes ``descalarize`` to map the scalar
    aggregate variables of its sites and fixes back to aggregate calls."""
    from repro.logic.paths import node_at

    return [
        Hint(stage, "repair-site", site=descalarize(node_at(predicate, path)),
             fix=descalarize(fix))
        for path, fix in repair.fixes
    ]


def grouping_hints(delta, working_terms):
    hints = [
        Hint("GROUP BY", "remove-expr", site=working_terms[index])
        for index in delta.remove
    ]
    if delta.add:
        hints.append(Hint("GROUP BY", "missing-expr"))
    return hints


def select_hints(delta, working_terms, target_len):
    removed, added = set(delta.remove), set(delta.add)
    hints = [
        Hint("SELECT", kind, site=working_terms[index], numbers=(index + 1,))
        for kind, indices in (
            ("wrong-expr", removed & added), ("extra-expr", removed - added)
        )
        for index in sorted(indices)
    ]
    if added - removed:
        outputs = target_len - len(added - removed)
        hints.append(
            Hint("SELECT", "missing-expr", numbers=(outputs, target_len))
        )
    return hints


def distinct_hint(working_distinct):
    return Hint("SELECT", "distinct", numbers=(working_distinct,))
