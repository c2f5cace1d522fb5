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

    @classmethod
    def from_bitsets(cls, num_vars, on, dont_care):
        """The table valued ``*`` on ``dont_care``, else 1 on ``on``.

        Both are bitsets over rows: bit ``r`` stands for minterm ``r``.
        """
        outputs = dict.fromkeys(_set_bits(dont_care), DONT_CARE)
        outputs.update(dict.fromkeys(_set_bits(on & ~dont_care), 1))
        return cls(num_vars, outputs)

    def bitsets(self):
        """``(on, dont_care)``: the rows valued 1 and ``*``, as bitsets."""
        on = dont_care = 0
        for minterm, value in self.outputs.items():
            if value == 1:
                on |= 1 << minterm
            elif value == DONT_CARE:
                dont_care |= 1 << minterm
        return on, dont_care

    def output(self, minterm):
        return self.outputs.get(minterm, 0)

    @property
    def on_set(self):
        return [m for m, v in self.outputs.items() if v == 1]

    @property
    def dc_set(self):
        return [m for m, v in self.outputs.items() if v == DONT_CARE]


def _set_bits(bits):
    """The positions of the set bits of ``bits``, ascending."""
    return [i for i, digit in enumerate(bin(bits)[:1:-1]) if digit == "1"]


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
