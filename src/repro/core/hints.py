"""Hint objects and natural-language templating.

Qr-Hint proper produces *repairs* (sites + fixes); the teaching staff turn
them into natural-language hints (paper, Example 2).  This module carries
both: the structured repair payload and a templated message in the style
"In [SQL clause], [hint]" used by the paper's user study.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Hint:
    """One actionable hint for the user."""

    stage: str  # FROM | WHERE | GROUP BY | HAVING | SELECT
    kind: str  # e.g. "missing-table", "repair-site", "remove-expr"
    message: str  # natural-language rendering
    site: str | None = None  # textual form of the repair site, if any
    fix: str | None = None  # textual form of the fix (normally hidden)

    def public_message(self):
        """The hint as shown to students (fixes withheld, as in the study)."""
        return self.message

    def __str__(self):
        return f"[{self.stage}] {self.message}"


def from_stage_hints(delta):
    hints = []
    for table, count in sorted(delta.missing.items()):
        times = "once more" if count == 1 else f"{count} more times"
        hints.append(
            Hint(
                "FROM",
                "missing-table",
                f"In FROM, it looks like you are missing a table -- consider "
                f"using {table} {times}; read the problem carefully and see "
                f"what other piece of information you need.",
                site=table,
            )
        )
    for table, count in sorted(delta.extra.items()):
        times = "one of its occurrences" if count == 1 else f"{count} of its occurrences"
        hints.append(
            Hint(
                "FROM",
                "extra-table",
                f"In FROM, {table} appears more often than needed -- "
                f"consider removing {times}.",
                site=table,
            )
        )
    return hints


def predicate_repair_hints(stage, repair, predicate):
    from repro.logic.paths import node_at

    hints = []
    for path, fix in repair.fixes:
        site = node_at(predicate, path)
        hints.append(
            Hint(
                stage,
                "repair-site",
                f"In {stage}, there is a problem with `{site}`. Think through "
                f"some concrete examples and see how you may fix it.",
                site=str(site),
                fix=str(fix),
            )
        )
    return hints


def grouping_hints(delta, working_terms):
    hints = []
    for index in delta.remove:
        term = working_terms[index]
        hints.append(
            Hint(
                "GROUP BY",
                "remove-expr",
                f"In GROUP BY, `{term}` is incorrect -- it splits rows that "
                f"should stay in the same group.",
                site=str(term),
            )
        )
    if delta.add:
        hints.append(
            Hint(
                "GROUP BY",
                "missing-expr",
                "In GROUP BY, your query is missing some grouping "
                "expression(s) -- the current grouping is too coarse.",
            )
        )
    return hints


def select_hints(delta, working_terms, target_len):
    hints = []
    both = sorted(set(delta.remove) & set(delta.add))
    for index in both:
        term = working_terms[index]
        hints.append(
            Hint(
                "SELECT",
                "wrong-expr",
                f"In SELECT, the expression at position {index + 1} "
                f"(`{term}`) does not produce the right values.",
                site=str(term),
            )
        )
    extra = sorted(set(delta.remove) - set(delta.add))
    for index in extra:
        hints.append(
            Hint(
                "SELECT",
                "extra-expr",
                f"In SELECT, the expression at position {index + 1} "
                f"(`{working_terms[index]}`) is not needed.",
                site=str(working_terms[index]),
            )
        )
    missing = sorted(set(delta.add) - set(delta.remove))
    if missing:
        hints.append(
            Hint(
                "SELECT",
                "missing-expr",
                f"In SELECT, your query outputs {target_len - len(missing)} "
                f"column(s) but {target_len} are expected -- something is "
                f"missing.",
            )
        )
    return hints


def distinct_hint(working_distinct):
    if working_distinct:
        message = (
            "In SELECT, DISTINCT removes duplicates that should be kept -- "
            "consider dropping it."
        )
    else:
        message = (
            "In SELECT, your query may return duplicate rows -- consider "
            "whether DISTINCT is needed."
        )
    return Hint("SELECT", "distinct", message)
