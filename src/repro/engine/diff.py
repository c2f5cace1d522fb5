"""Differential equivalence testing of queries over random instances.

This is the empirical counterpart of the solver-based checks: two queries
that Qr-Hint declares equivalent must return identical bags over every
randomly generated instance.  A counterexample instance is returned when
the queries differ, in the spirit of RATest/Cosette-style differencing.
"""

from __future__ import annotations

from repro.engine.datagen import DataGenerator
from repro.engine.executor import bag_equal, execute
from repro.logic.evaluate import EvaluationError


def results_differ(query_a, query_b, database):
    """True iff both queries run on ``database`` and their result bags differ.

    An instance on which either query raises (a division by zero, say)
    shows no two results to compare, so it never tells the queries apart.
    """
    try:
        return not bag_equal(
            execute(query_a, database), execute(query_b, database)
        )
    except EvaluationError:
        return False


def differential_check(query_a, query_b, catalog, trials=40, seed=0, max_rows=4):
    """Run both queries over random instances; return a counterexample or None.

    Returns ``None`` when no differentiating instance was found (evidence of
    equivalence), otherwise the first :class:`Database` on which
    :func:`results_differ`.
    """
    generator = DataGenerator(catalog, seed=seed, max_rows=max_rows)
    for database in generator.instances(trials):
        if results_differ(query_a, query_b, database):
            return database
    return None


def appear_equivalent(query_a, query_b, catalog, trials=40, seed=0):
    """Boolean convenience wrapper around :func:`differential_check`."""
    return differential_check(query_a, query_b, catalog, trials, seed) is None
