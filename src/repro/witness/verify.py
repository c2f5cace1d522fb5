"""Stage attribution of verified witness instances.

A witness is only emitted after the relational engine confirms it
(:func:`repro.engine.diff.results_differ`): the working and target
queries both *run* on the instance, neither raises, and their result
bags differ.  When the two queries share an alias namespace this module
attributes the divergence to the earliest pipeline artifact that
differs, matching the stage ladder of the paper:
row membership for WHERE (``FW``), group partitioning for GROUP BY
(``FWG``), surviving groups for HAVING (``FWGH``), and output tuples for
SELECT.
"""

from __future__ import annotations

from repro.engine.executor import (
    _row_key,
    filtered_rows,
    grouped_rows,
    having_groups,
)


def _env_key(env):
    names = sorted(env)
    return tuple(names), _row_key([env[name] for name in names])


def _bag_key(envs):
    """A bag of environments as a comparable sorted list."""
    return sorted(map(_env_key, envs))


def _partition_key(groups):
    """Groups of environments as a comparable multiset of bags."""
    return sorted(tuple(_bag_key(envs)) for envs in groups)


def first_divergent_stage(working, target, database):
    """Earliest stage artifact on which the queries differ.

    Requires a shared alias namespace (unify the target first).  Returns
    ``"WHERE"``, ``"GROUP BY"``, ``"HAVING"``, or ``"SELECT"``; callers
    label FROM-multiset mismatches themselves (the namespaces cannot be
    unified in that case).
    """
    artifact_keys = {
        "WHERE": lambda query: _bag_key(filtered_rows(query, database)),
        "GROUP BY": lambda query: _partition_key(
            envs for _, envs in grouped_rows(query, database)
        ),
        "HAVING": lambda query: _partition_key(
            envs for _, envs, _ in having_groups(query, database)
        ),
    }
    for stage, key in artifact_keys.items():
        if key(working) != key(target):
            return stage
    return "SELECT"
