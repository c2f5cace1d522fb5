"""Enumeration-path tests for the incremental SAT engine.

Three regression areas:

* **enumeration equivalence fuzz** -- blocking-clause model enumeration
  must produce exactly the brute-force model set and never repeat a
  model;
* **add/solve interleavings** -- clauses added after a SAT result (each
  restarts the search at level 0), interleaved with solves, never leak a
  model that violates an added clause;
* **MinFix infeasible assignments** -- the ``core_pruned_subtrees``
  counter fires on infeasible atom combinations.
"""

import itertools
import random

from repro.core.minfix import build_truth_table, map_atom_preds
from repro.logic.formulas import Comparison, conj, disj
from repro.logic.terms import const, intvar
from repro.solver import Solver
from repro.solver.sat import SatSolver

A, B, C = (intvar(x) for x in "ABC")


def cmp(op, lhs, rhs):
    return Comparison(op, lhs, rhs)


def _brute_models(clauses, num_vars):
    """Reference: the full model set by exhaustive enumeration."""
    models = set()
    for bits in itertools.product([False, True], repeat=num_vars):
        model = {i + 1: bits[i] for i in range(num_vars)}
        if all(any(model[abs(l)] == (l > 0) for l in c) for c in clauses):
            models.add(bits)
    return models


def _random_cnf(rng, num_vars, num_clauses):
    return [
        [rng.choice([1, -1]) * rng.randint(1, num_vars)
         for _ in range(rng.randint(1, 3))]
        for _ in range(num_clauses)
    ]


def _enumerate_models(solver, num_vars):
    """All models via blocking clauses."""
    models = set()
    while True:
        model = solver.solve()
        if model is None:
            return models
        bits = tuple(model[v] for v in range(1, num_vars + 1))
        assert bits not in models, "enumeration repeated a model"
        models.add(bits)
        solver.add_clause(
            [-v if model[v] else v for v in range(1, num_vars + 1)]
        )


class TestEnumerationEquivalenceFuzz:
    def test_fuzz_matches_brute_force(self):
        rng = random.Random(0xE17)
        for _ in range(120):
            n = rng.randint(3, 8)
            clauses = _random_cnf(rng, n, rng.randint(1, 2 * n))
            solver = SatSolver()
            solver.ensure_vars(n)
            for clause in clauses:
                solver.add_clause(clause)
            assert _enumerate_models(solver, n) == _brute_models(clauses, n), (
                clauses
            )

    def test_fuzz_with_restarts_and_reduction_forced(self):
        # A second seed over smaller instances: learned clauses accumulate
        # mid-enumeration, and blocking clauses must keep every
        # enumerated model excluded.
        rng = random.Random(0x5EED)
        for _ in range(40):
            n = rng.randint(3, 7)
            clauses = _random_cnf(rng, n, rng.randint(1, 2 * n))
            solver = SatSolver()
            solver.ensure_vars(n)
            for clause in clauses:
                solver.add_clause(clause)
            assert _enumerate_models(solver, n) == _brute_models(clauses, n), (
                clauses
            )


class TestTrailSavingInvariants:
    def test_add_clause_solve_interleavings_stay_correct(self):
        # Clauses added after a SAT result must never leak into a model
        # that violates them.
        rng = random.Random(0x7A11)
        for _ in range(80):
            n = rng.randint(3, 9)
            solver = SatSolver()
            solver.ensure_vars(n)
            accumulated = []
            counters = dict(solver.stats)
            for _ in range(rng.randint(3, 7)):
                for clause in _random_cnf(rng, n, rng.randint(1, 2)):
                    accumulated.append(clause)
                    solver.add_clause(clause)
                model = solver.solve()
                reference = _brute_models(accumulated, n)
                assert (model is None) == (not reference)
                if model is not None:
                    for clause in accumulated:
                        assert any(model[abs(l)] == (l > 0) for l in clause)
                for key, value in solver.stats.items():
                    assert value >= counters[key], f"{key} went backwards"
                counters = dict(solver.stats)


class TestMinFixCorePruning:
    def _contradictory_bounds(self):
        # a1 = A<5 and a2 = A>10 can never hold together: the component
        # assignment making both true is infeasible.
        a1 = cmp("<", A, const(5))
        a2 = cmp(">", A, const(10))
        a3 = cmp("=", B, const(1))
        a4 = cmp("=", C, const(2))
        lower = conj(a1, a3) | conj(a2, a4)
        upper = disj(conj(a1, a3), conj(a2, a4), cmp("=", B, C))
        return lower, upper

    def test_counter_fires_on_infeasible_atoms(self):
        solver = Solver()
        lower, upper = self._contradictory_bounds()
        mapping = map_atom_preds([lower, upper], solver)
        build_truth_table(mapping, lower, upper, solver)
        assert solver.stats["core_pruned_subtrees"] > 0
