"""``MinBoolExp``: minimum-size Boolean expression from a truth table.

This is the ESPRESSO-role primitive of the paper (Section 5.2): given a
partial Boolean function (outputs 0 / 1 / don't-care ``*``), find a small
sum-of-products equivalent, honoring don't-cares.  The result is returned
both abstractly (list of implicants) and as a :class:`Formula` over caller-
supplied atoms.
"""

from __future__ import annotations

from repro.boolmin.cover import select_cover
from repro.boolmin.primes import prime_implicants
from repro.logic.formulas import FALSE, conj, disj, neg

DONT_CARE = "*"


class TruthTable:
    """A partial Boolean function of ``num_vars`` variables.

    Rows are indexed by minterm integer; bit ``i`` of the index is the truth
    value of variable ``i``.  Missing rows default to 0.
    """

    def __init__(self, num_vars, outputs=None):
        self.num_vars = num_vars
        self.outputs = dict(outputs or {})

    def set(self, minterm, value):
        if value not in (0, 1, DONT_CARE):
            raise ValueError(f"invalid output {value!r}")
        self.outputs[minterm] = value

    def fill_stride(self, base, stride, value):
        """Set every minterm in ``range(base, 2**num_vars, stride)``.

        Bulk form of :meth:`set` for whole subtrees (a fixed low-bit prefix
        with all high-bit completions); one dict update instead of a Python
        loop of per-row calls.
        """
        if value not in (0, 1, DONT_CARE):
            raise ValueError(f"invalid output {value!r}")
        self.outputs.update(
            dict.fromkeys(range(base, 1 << self.num_vars, stride), value)
        )

    def output(self, minterm):
        return self.outputs.get(minterm, 0)

    @property
    def on_set(self):
        return [m for m, v in self.outputs.items() if v == 1]

    @property
    def dc_set(self):
        return [m for m, v in self.outputs.items() if v == DONT_CARE]


def minimize_table(table):
    """Return a minimum cover (list of implicants) for the truth table."""
    on = table.on_set
    if not on:
        return []
    primes = prime_implicants(on, table.dc_set, table.num_vars)
    return select_cover(primes, on, table.num_vars)


def implicants_to_formula(implicants, atoms):
    """Render implicants as a DNF :class:`Formula` over ``atoms``.

    ``atoms`` is the list of formulas corresponding to variables ``0..n-1``.
    An empty implicant list is FALSE; an implicant with no literals is TRUE.
    """
    if not implicants:
        return FALSE
    clauses = []
    for value, mask in implicants:
        literals = []
        for i, atom in enumerate(atoms):
            bit = 1 << i
            if mask & bit:
                continue
            literals.append(atom if value & bit else neg(atom))
        clauses.append(conj(*literals))
    return disj(*clauses)


def min_bool_exp(table, atoms):
    """The paper's ``MinBoolExp``: minimized formula for a partial function."""
    implicants = minimize_table(table)
    return implicants_to_formula(implicants, atoms)
