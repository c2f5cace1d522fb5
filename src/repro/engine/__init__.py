"""In-memory bag-semantics relational engine substrate."""

from repro.engine.database import Database
from repro.engine.datagen import DataGenerator
from repro.engine.diff import (
    appear_equivalent,
    differential_check,
    results_differ,
)
from repro.engine.executor import (
    bag_equal,
    cross_product,
    execute,
    filtered_rows,
    grouped_rows,
    having_groups,
)

__all__ = [
    "Database",
    "DataGenerator",
    "appear_equivalent",
    "bag_equal",
    "cross_product",
    "differential_check",
    "execute",
    "filtered_rows",
    "grouped_rows",
    "having_groups",
    "results_differ",
]
