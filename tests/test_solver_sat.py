"""Tests for the CDCL-lite SAT core and Tseitin encoding."""

import itertools
import random
import sys

from repro.solver.sat import SatSolver, solve_cnf
from repro.solver.tseitin import CnfBuilder, assert_skeleton, encode


class TestSatSolver:
    def test_trivially_sat(self):
        assert solve_cnf([[1]]) == {1: True}

    def test_trivially_unsat(self):
        assert solve_cnf([[1], [-1]]) is None

    def test_unit_propagation_chain(self):
        # 1, 1->2, 2->3 forces all true.
        model = solve_cnf([[1], [-1, 2], [-2, 3]])
        assert model == {1: True, 2: True, 3: True}

    def test_requires_branching(self):
        # (1 v 2) & (-1 v 2) & (1 v -2): models must have 2 true.
        model = solve_cnf([[1, 2], [-1, 2], [1, -2]])
        assert model[2] is True and model[1] is True

    def test_pigeonhole_2_into_1_unsat(self):
        # Two pigeons, one hole: x1, x2, not both -> unsat with both forced.
        assert solve_cnf([[1], [2], [-1, -2]]) is None

    def test_tautological_clause_ignored(self):
        solver = SatSolver()
        solver.add_clause([1, -1])
        solver.add_clause([2])
        assert solver.solve()[2] is True

    def test_incremental_clause_addition(self):
        solver = SatSolver()
        solver.add_clause([1, 2])
        model = solver.solve()
        assert model is not None
        solver.add_clause([-1])
        solver.add_clause([-2])
        assert solver.solve() is None

    def test_unconstrained_vars_default_false(self):
        solver = SatSolver()
        solver.ensure_vars(3)
        solver.add_clause([1])
        model = solver.solve()
        assert model[2] is False and model[3] is False

    def test_3sat_random_consistency(self):
        # A small fixed 3-SAT instance with a known model.
        clauses = [[1, 2, 3], [-1, -2, 3], [1, -3, 4], [-4, 2, -1], [-2, -3, -4]]
        model = solve_cnf(clauses)
        assert model is not None
        for clause in clauses:
            assert any(model[abs(l)] == (l > 0) for l in clause)


def _brute_force(clauses, num_vars):
    """Reference: first satisfying model by exhaustive enumeration."""
    for bits in itertools.product([False, True], repeat=num_vars):
        model = {i + 1: bits[i] for i in range(num_vars)}
        if all(any(model[abs(l)] == (l > 0) for l in c) for c in clauses):
            return model
    return None


def _random_cnf(rng, num_vars, num_clauses):
    return [
        [rng.choice([1, -1]) * rng.randint(1, num_vars)
         for _ in range(rng.randint(1, 3))]
        for _ in range(num_clauses)
    ]


class TestFuzzAgainstBruteForce:
    def test_oneshot_fuzz(self):
        rng = random.Random(0xC0FFEE)
        for _ in range(300):
            n = rng.randint(1, 12)
            clauses = _random_cnf(rng, n, rng.randint(1, 4 * n))
            model = solve_cnf(clauses, n)
            reference = _brute_force(clauses, n)
            assert (model is None) == (reference is None), clauses
            if model is not None:
                assert set(model) == set(range(1, n + 1))
                for clause in clauses:
                    assert any(model[abs(l)] == (l > 0) for l in clause)

    def test_incremental_fuzz(self):
        # Interleave clause addition and solves on one solver, each added
        # clause restarting the search at level 0; every answer must match
        # a from-scratch brute force.
        rng = random.Random(0xFEED)
        for _ in range(100):
            n = rng.randint(2, 10)
            solver = SatSolver()
            solver.ensure_vars(n)
            accumulated = []
            for _ in range(rng.randint(2, 6)):
                for clause in _random_cnf(rng, n, rng.randint(1, 3)):
                    accumulated.append(clause)
                    solver.add_clause(clause)
                model = solver.solve()
                reference = _brute_force(accumulated, n)
                assert (model is None) == (reference is None)
                if model is not None:
                    for clause in accumulated:
                        assert any(model[abs(l)] == (l > 0) for l in clause)


class TestIncrementalAssumptions:
    def test_watches_and_learned_clauses_reused_across_calls(self):
        # Blocking-clause enumeration of all 8 models over 3 free vars: the
        # single solver instance must stay consistent for the whole run.
        solver = SatSolver()
        solver.ensure_vars(3)
        solver.add_clause([1, 2, 3, -1])  # tautology: vars exist, no constraint
        seen = set()
        while True:
            model = solver.solve()
            if model is None:
                break
            key = tuple(model[v] for v in (1, 2, 3))
            assert key not in seen, "blocking clause was ignored on reuse"
            seen.add(key)
            solver.add_clause(
                [-v if model[v] else v for v in (1, 2, 3)]
            )
        assert len(seen) == 8

    def test_added_clause_restarts_at_level_zero(self):
        # 1 v 2 v 3 and 1 v 2 v -3: deciding 1 and 2 false conflicts on 3,
        # so the first solve learns 2 v 1 and then decides 3, 4 and 5 at
        # levels 2-4.  Its model falsifies 4 v 5, which is unit at level 3;
        # adding it must still leave the solver at level 0.
        solver = SatSolver()
        solver.ensure_vars(5)
        clauses = [[1, 2, 3], [1, 2, -3]]
        for clause in clauses:
            solver.add_clause(clause)
        model = solver.solve()
        assert model == {1: False, 2: True, 3: True, 4: False, 5: False}
        assert solver.stats["learned_clauses"] == 1
        solver.add_clause([4, 5])
        assert solver._trail_lim == [] and solver._pending == []
        assert solver.stats["learned_clauses"] == 1
        assert {frozenset(c) for c in _arena_clauses(solver)} == {
            frozenset(c) for c in [*clauses, [2, 1], [4, 5]]
        }
        model = solver.solve()
        for clause in [*clauses, [4, 5]]:
            assert any(model[abs(l)] == (l > 0) for l in clause)

    def test_learned_clauses_accumulate(self):
        # Pigeonhole PHP(3, 2) forces genuine conflicts: var 2(i-1)+j means
        # pigeon i sits in hole j.
        solver = SatSolver()
        var = lambda i, j: 2 * (i - 1) + j
        for i in (1, 2, 3):
            solver.add_clause([var(i, 1), var(i, 2)])
        for j in (1, 2):
            for i in (1, 2, 3):
                for k in range(i + 1, 4):
                    solver.add_clause([-var(i, j), -var(k, j)])
        assert solver.solve() is None
        assert solver.stats["conflicts"] >= 1
        assert solver.stats["learned_clauses"] >= 1
        # Once UNSAT, always UNSAT -- and no crash on reuse.
        assert solver.solve() is None

    def test_stats_counters_present(self):
        solver = SatSolver()
        solver.add_clause([1, 2])
        solver.solve()
        for key in ("solve_calls", "decisions", "propagations",
                    "conflicts", "learned_clauses"):
            assert key in solver.stats


def _arena_clauses(solver):
    """Every clause in ``solver``'s arena, learned ones included."""
    arena, index, clauses = solver._arena, 0, []
    while index < len(arena):
        size = arena[index]
        clauses.append(arena[index + 1:index + 1 + size])
        index += size + 1
    return clauses


class TestNonRecursive:
    def test_deep_propagation_chain_is_iterative(self):
        # A 3000-step implication chain would blow the recursion limit in
        # a recursive DPLL; the iterative trail must not care.
        n = 3000
        solver = SatSolver()
        solver.add_clause([1])
        for v in range(1, n):
            solver.add_clause([-v, v + 1])
        limit = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(80)
            model = solver.solve()
        finally:
            sys.setrecursionlimit(limit)
        assert model is not None
        assert all(model[v] for v in range(1, n + 1))

    def test_deep_decision_stack_is_iterative(self):
        # No propagation at all: 600 free variables means 600 nested
        # decisions, which must be a loop rather than recursion.
        solver = SatSolver()
        solver.ensure_vars(600)
        limit = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(80)
            model = solver.solve()
        finally:
            sys.setrecursionlimit(limit)
        assert model is not None and len(model) == 600


class TestFirstUipMachinery:
    """First-UIP learning and model snapshots."""

    def _php(self, holes):
        # Pigeonhole holes+1 into holes: UNSAT with real conflict pressure.
        clauses = []
        var = lambda i, j: i * holes + j + 1
        for i in range(holes + 1):
            clauses.append([var(i, j) for j in range(holes)])
        for j in range(holes):
            for i in range(holes + 1):
                for k in range(i + 1, holes + 1):
                    clauses.append([-var(i, j), -var(k, j)])
        return clauses, (holes + 1) * holes

    def test_learned_clause_is_not_a_decision_cut(self):
        # First-UIP learning must keep learned clauses no longer than the
        # decision cut; on PHP it learns strictly shorter clauses, which
        # shows the analysis actually resolves on antecedents.
        clauses, n = self._php(4)
        solver = SatSolver()
        solver.ensure_vars(n)
        for clause in clauses:
            solver.add_clause(clause)
        learned = []
        learn = solver._learn
        solver._learn = lambda clause: (learned.append(list(clause)),
                                        learn(clause))
        assert solver.solve() is None
        assert learned, "expected learned clauses on PHP"
        assert min(len(c) for c in learned) <= 4

    def test_model_snapshot_after_sat_following_unsat(self):
        failing = SatSolver()
        failing.add_clause([1, 2])
        failing.add_clause([-1, 2])
        assert failing.solve() is not None
        failing.add_clause([-2])
        assert failing.solve() is None
        assert failing.model() is None  # UNSAT clears the snapshot
        solver = SatSolver()
        solver.add_clause([1, 2])
        solver.add_clause([-1, 2])
        model = solver.solve()
        assert model is not None and model[2] is True
        snapshot = solver.model()
        assert snapshot == model
        # Adding clauses must not invalidate the snapshot ...
        solver.add_clause([3, 4])
        assert solver.model() == snapshot
        # ... and mutating the returned dicts must not either.
        model[2] = False
        assert solver.model()[2] is True


class TestStressedFuzzAgainstBruteForce:
    """More seeds of the oneshot/incremental fuzz, and enumeration."""

    def test_oneshot_fuzz_with_tiny_restart_and_reduce_limits(self):
        rng = random.Random(0xD1CE)
        for _ in range(150):
            n = rng.randint(1, 12)
            clauses = _random_cnf(rng, n, rng.randint(1, 4 * n))
            model = solve_cnf(clauses, n)
            reference = _brute_force(clauses, n)
            assert (model is None) == (reference is None), clauses
            if model is not None:
                for clause in clauses:
                    assert any(model[abs(l)] == (l > 0) for l in clause)

    def test_model_enumeration_under_reduction_never_repeats(self):
        # Blocking-clause enumeration must never re-admit a blocked model.
        solver = SatSolver()
        solver.ensure_vars(4)
        seen = set()
        while True:
            model = solver.solve()
            if model is None:
                break
            key = tuple(model[v] for v in range(1, 5))
            assert key not in seen, "a blocking clause re-admitted a model"
            seen.add(key)
            solver.add_clause([-v if model[v] else v for v in range(1, 5)])
        assert len(seen) == 16


class TestTseitin:
    def _solve_skeleton(self, skeleton, num_lit_vars):
        builder = CnfBuilder(num_vars=num_lit_vars)
        assert_skeleton(skeleton, builder)
        solver = SatSolver()
        solver.ensure_vars(builder.num_vars)
        for clause in builder.clauses:
            solver.add_clause(clause)
        return solver

    def test_and_forces_children(self):
        solver = self._solve_skeleton(("and", [("lit", 1), ("lit", 2)]), 2)
        model = solver.solve()
        assert model[1] and model[2]

    def test_or_needs_one_child(self):
        skeleton = ("or", [("lit", 1), ("lit", 2)])
        solver = self._solve_skeleton(skeleton, 2)
        solver.add_clause([-1])
        assert solver.solve()[2] is True
        solver = self._solve_skeleton(skeleton, 2)
        solver.add_clause([-1])
        solver.add_clause([-2])
        assert solver.solve() is None

    def test_not_inverts(self):
        solver = self._solve_skeleton(("not", ("lit", 1)), 1)
        assert solver.solve()[1] is False

    def test_nested_structure(self):
        # (1 & 2) | (!1 & 3)
        skeleton = (
            "or",
            [
                ("and", [("lit", 1), ("lit", 2)]),
                ("and", [("not", ("lit", 1)), ("lit", 3)]),
            ],
        )
        solver = self._solve_skeleton(skeleton, 3)
        solver.add_clause([1])
        solver.add_clause([-2])
        assert solver.solve() is None
        solver = self._solve_skeleton(skeleton, 3)
        solver.add_clause([-1])
        solver.add_clause([3])
        assert solver.solve() is not None

    def test_single_child_junction_passthrough(self):
        builder = CnfBuilder(num_vars=1)
        lit = encode(("and", [("lit", 1)]), builder)
        assert lit == 1
