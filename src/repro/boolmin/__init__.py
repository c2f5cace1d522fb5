"""Boolean minimization substrate (prime generation / Petrick cover)."""

from repro.boolmin.minimize import (
    DONT_CARE,
    TruthTable,
    implicants_to_formula,
    min_bool_exp,
    minimize_table,
)
from repro.boolmin.primes import (
    implicant_covers,
    implicant_literals,
    prime_implicants,
)

__all__ = [
    "DONT_CARE",
    "TruthTable",
    "implicant_covers",
    "implicant_literals",
    "implicants_to_formula",
    "min_bool_exp",
    "minimize_table",
    "prime_implicants",
]
