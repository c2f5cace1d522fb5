"""Tests for the Boolean minimization substrate."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.boolmin import (
    DONT_CARE,
    TruthTable,
    implicant_covers,
    implicant_literals,
    min_bool_exp,
    minimize_table,
    prime_implicants,
)
from repro.logic.evaluate import eval_formula
from repro.logic.formulas import Comparison, FALSE, TRUE
from repro.logic.terms import const, intvar

ATOMS = [Comparison("=", intvar(f"v{i}"), const(1)) for i in range(4)]


def _qm_primes(minterms, dont_cares, num_vars):
    """Reference: every prime of on-set + don't-cares, by Quine-McCluskey.

    Merges implicants level by level; an implicant no merge consumed is
    prime.  Slow on don't-care-heavy tables, but obviously complete.
    """
    current = {(m, 0) for m in set(minterms) | set(dont_cares)}
    primes = set()
    while current:
        merged = set()
        next_level = set()
        by_mask = {}
        for value, mask in current:
            by_mask.setdefault(mask, set()).add(value)
        for mask, values in by_mask.items():
            for value in values:
                for b in range(num_vars):
                    bit = 1 << b
                    if mask & bit or value & bit:
                        continue
                    if value | bit in values:
                        merged.add((value, mask))
                        merged.add((value | bit, mask))
                        next_level.add((value, mask | bit))
        primes |= current - merged
        current = next_level
    return sorted(primes)


def _reference_primes(minterms, dont_cares, num_vars):
    """The reference primes that cover an on-set minterm, in sorted order."""
    return [
        p for p in _qm_primes(minterms, dont_cares, num_vars)
        if any(implicant_covers(p, m) for m in minterms)
    ]


class TestPrimeImplicants:
    def test_single_minterm(self):
        primes = prime_implicants([0b01], [], 2)
        assert primes == [(1, 0)]

    def test_full_cover_merges_to_tautology(self):
        primes = prime_implicants([0, 1, 2, 3], [], 2)
        assert primes == [(0, 3)]  # one implicant with all dashes

    def test_xor_has_no_merges(self):
        primes = prime_implicants([0b01, 0b10], [], 2)
        assert (1, 0) in primes and (2, 0) in primes
        assert len(primes) == 2

    def test_dont_cares_enable_merging(self):
        # on={01}, dc={11}: primes include x1 with v0 dashed? 01 and 11
        # differ in bit 1 -> implicant (1, 2).
        primes = prime_implicants([0b01], [0b11], 2)
        assert (1, 2) in primes

    def test_dont_care_only_prime_is_not_generated(self):
        # (3, 0) is prime over on-set + don't-cares, but it covers only the
        # don't-care row, so no cover could use it.
        assert prime_implicants([0b00], [0b11], 2) == [(0, 0)]

    def test_implicant_covers(self):
        assert implicant_covers((1, 2), 0b01)
        assert implicant_covers((1, 2), 0b11)
        assert not implicant_covers((1, 2), 0b00)

    def test_implicant_literals(self):
        assert implicant_literals((1, 2), 2) == 1
        assert implicant_literals((0, 3), 2) == 0


class TestCoverSelection:
    def test_essential_primes_chosen(self):
        table = TruthTable(2, {0b00: 1, 0b01: 1, 0b11: 1})
        cover = minimize_table(table)
        # Optimal: (!v1) + (v0) -> two implicants of one literal each.
        assert len(cover) == 2
        assert all(implicant_literals(p, 2) == 1 for p in cover)

    def test_all_zero_gives_empty_cover(self):
        table = TruthTable(2, {m: 0 for m in range(4)})
        assert minimize_table(table) == []

    def test_dc_only_rows_not_required(self):
        table = TruthTable(2, {0b00: 1, 0b11: DONT_CARE})
        cover = minimize_table(table)
        for m in [0b00]:
            assert any(implicant_covers(p, m) for p in cover)


class TestMinBoolExp:
    def test_constant_false(self):
        table = TruthTable(1, {0: 0, 1: 0})
        assert min_bool_exp(table, ATOMS[:1]) == FALSE

    def test_constant_true(self):
        table = TruthTable(1, {0: 1, 1: 1})
        assert min_bool_exp(table, ATOMS[:1]) == TRUE

    def test_identity(self):
        table = TruthTable(1, {0: 0, 1: 1})
        assert min_bool_exp(table, ATOMS[:1]) == ATOMS[0]

    def test_negation(self):
        table = TruthTable(1, {0: 1, 1: 0})
        assert min_bool_exp(table, ATOMS[:1]) == ATOMS[0].negated()

    def test_paper_example_14(self):
        # Variables: a>=b (0), f=e (1), a=b (2), a>b (3); expected result a>=b.
        rows = {
            0b0000: 0, 0b1000: DONT_CARE, 0b0100: DONT_CARE, 0b1100: DONT_CARE,
            0b0010: DONT_CARE, 0b1010: DONT_CARE, 0b0110: DONT_CARE,
            0b1110: DONT_CARE, 0b0001: DONT_CARE, 0b1001: DONT_CARE,
            0b0101: 1, 0b1101: DONT_CARE, 0b0011: DONT_CARE, 0b1011: 1,
            0b0111: 1, 0b1111: DONT_CARE,
        }
        a, b, e, f = intvar("a"), intvar("b"), intvar("e"), intvar("f")
        atoms = [
            Comparison(">=", a, b),
            Comparison("=", f, e),
            Comparison("=", a, b),
            Comparison(">", a, b),
        ]
        assert min_bool_exp(TruthTable(4, rows), atoms) == atoms[0]


def _random_table(data):
    outputs = {}
    for i, v in enumerate(data):
        outputs[i] = DONT_CARE if v == 2 else v
    return TruthTable(3, outputs)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=8, max_size=8))
def test_minimized_formula_matches_specified_rows(data):
    """Property: the minimized cover agrees with every non-DC row."""
    table = _random_table(data)
    cover = minimize_table(table)
    for minterm in range(8):
        expected = table.output(minterm)
        if expected == DONT_CARE:
            continue
        covered = any(implicant_covers(p, minterm) for p in cover)
        assert covered == bool(expected)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=8, max_size=8))
def test_formula_rendering_consistent_with_cover(data):
    """Property: the rendered formula evaluates like the implicant cover."""
    table = _random_table(data)
    cover = minimize_table(table)
    atoms = [Comparison("=", intvar(f"w{i}"), const(1)) for i in range(3)]
    formula = min_bool_exp(table, atoms)
    for assignment in itertools.product([0, 1], repeat=3):
        env = {f"w{i}": assignment[i] for i in range(3)}
        minterm = sum(bit << i for i, bit in enumerate(assignment))
        expected = any(implicant_covers(p, minterm) for p in cover)
        assert eval_formula(formula, env) == expected


@st.composite
def _partial_functions(draw):
    """(on-set, don't-cares, num_vars) with varied row densities."""
    num_vars = draw(st.integers(1, 8))
    on_share = draw(st.sampled_from([0.05, 0.2, 0.5, 0.9]))
    dc_share = draw(st.sampled_from([0.0, 0.3, 0.7, 0.95]))
    rng = draw(st.randoms(use_true_random=False))
    on, dc = [], []
    for row in range(1 << num_vars):
        x = rng.random()
        if x < on_share:
            on.append(row)
        elif x < on_share + (1 - on_share) * dc_share:
            dc.append(row)
    return on, dc, num_vars


@settings(max_examples=200, deadline=None)
@given(_partial_functions())
def test_primes_match_quine_mccluskey_reference(table):
    """Property: exactly the reference primes that cover an on-set row."""
    on, dc, num_vars = table
    assert prime_implicants(on, dc, num_vars) == _reference_primes(
        on, dc, num_vars
    )


def _parity(num_vars):
    on = [m for m in range(1 << num_vars) if m.bit_count() % 2]
    return on, [], num_vars


def _all_rows_but_one(num_vars):
    return list(range(1, 1 << num_vars)), [], num_vars


def _random_halves(num_vars):
    rng = random.Random(2)
    on = [m for m in range(1 << num_vars) if rng.random() < 0.5]
    return on, [], num_vars


def _sparse_on_dense_dont_care(num_vars):
    rng = random.Random(5)
    on = rng.sample(range(1 << num_vars), 8)
    dc = [
        m for m in range(1 << num_vars)
        if m not in on and rng.random() < 0.9
    ]
    return on, dc, num_vars


@pytest.mark.parametrize(
    "shape",
    [
        _parity(8),
        _random_halves(8),
        _all_rows_but_one(8),
        _sparse_on_dense_dont_care(10),
    ],
    ids=["parity-8", "halves-8", "all-but-one-8", "sparse-on-dense-dc-10"],
)
def test_primes_match_reference_on_fixed_shapes(shape):
    # Parity pins every bit, so each minterm's cube is a point; random
    # halves leave a few free bits and many off rows (the cube walk); the
    # last two have few off rows against wide free masks (the off-set walk).
    on, dc, num_vars = shape
    assert prime_implicants(on, dc, num_vars) == _reference_primes(
        on, dc, num_vars
    )
