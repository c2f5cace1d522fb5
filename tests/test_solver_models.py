"""Tests for model extraction: SAT snapshots and theory-level valuations."""

import random
from fractions import Fraction

import pytest

from repro.logic.evaluate import eval_formula
from repro.logic.formulas import Comparison, conj, disj, neg
from repro.logic.linear import LinExpr
from repro.logic.terms import Const, const, floatvar, intvar, strvar
from repro.solver import Solver, TheoryModel
from repro.solver.arith import Constraint, EQ, LE, LT, evaluate, find_model
from repro.solver.sat import SatSolver
from repro.solver.strings import find_model as find_string_model


def _clause_satisfied(clause, model):
    return any(model.get(abs(lit), False) == (lit > 0) for lit in clause)


class TestSatModelSnapshot:
    def test_model_none_before_any_solve(self):
        assert SatSolver().model() is None

    def test_model_satisfies_all_clauses(self):
        solver = SatSolver()
        clauses = [[1, 2], [-1, 3], [-2, -3], [2, 3]]
        for clause in clauses:
            solver.add_clause(clause)
        assert solver.solve() is not None
        model = solver.model()
        assert all(_clause_satisfied(c, model) for c in clauses)

    def test_model_cleared_on_unsat(self):
        solver = SatSolver()
        solver.add_clause([1, 2])
        assert solver.solve() is not None
        assert solver.model() is not None
        solver.add_clause([-1])
        solver.add_clause([-2])
        assert solver.solve() is None
        assert solver.model() is None

    def test_snapshot_is_a_copy(self):
        solver = SatSolver()
        solver.add_clause([1])
        solver.solve()
        snapshot = solver.model()
        snapshot[1] = False
        assert solver.model()[1] is True

    def test_snapshot_survives_clause_additions(self):
        solver = SatSolver()
        solver.add_clause([1, 2])
        assert solver.solve() is not None
        before = solver.model()
        solver.add_clause([-1, 2])  # no solve yet
        assert solver.model() == before

    def test_random_cnf_models_verify(self):
        rng = random.Random(11)
        for _ in range(60):
            solver = SatSolver()
            num_vars = rng.randint(3, 8)
            clauses = []
            for _ in range(rng.randint(2, 20)):
                clause = [
                    rng.choice([-1, 1]) * rng.randint(1, num_vars)
                    for _ in range(rng.randint(1, 4))
                ]
                clauses.append(clause)
                solver.add_clause(clause)
            if solver.solve() is not None:
                model = solver.model()
                assert all(_clause_satisfied(c, model) for c in clauses)


class TestArithFindModel:
    def test_equalities_and_bounds(self):
        x, y = intvar("x"), intvar("y")
        cons = [
            Constraint(LinExpr.build({x: Fraction(1), y: Fraction(-1)}, 0), EQ),
            Constraint(LinExpr.build({x: Fraction(-1)}, Fraction(5)), LT),
        ]
        model = find_model(cons)
        assert model[x] == model[y]
        assert model[x] > 5

    def test_integer_preference_in_interval(self):
        x = intvar("x")
        cons = [
            Constraint(LinExpr.build({x: Fraction(-1)}, Fraction(3, 2)), LE),
            Constraint(LinExpr.build({x: Fraction(1)}, Fraction(-7, 2)), LE),
        ]
        model = find_model(cons)  # 1.5 <= x <= 3.5
        assert model[x].denominator == 1
        assert Fraction(3, 2) <= model[x] <= Fraction(7, 2)

    def test_disequality_sides_resolved(self):
        x = intvar("x")
        zero_pinned = [
            Constraint(LinExpr.build({x: Fraction(1)}, 0), LE),
            Constraint(LinExpr.build({x: Fraction(-1)}, 0), LE),
        ]
        assert find_model(zero_pinned, [LinExpr.of_term(x)]) is None
        model = find_model(zero_pinned[:1], [LinExpr.of_term(x)])
        assert model[x] != 0 and model[x] <= 0

    def test_unconstrained_terms_get_explicit_values(self):
        x, y = intvar("x"), intvar("y")
        # y's only constraint is consumed when x is eliminated; y must
        # still appear in the model.
        cons = [
            Constraint(LinExpr.build({x: Fraction(-1)}, Fraction(100)), LT),
            Constraint(LinExpr.build({y: Fraction(1), x: Fraction(-1)}, 0), LE),
        ]
        model = find_model(cons)
        assert x in model and y in model
        assert model[y] <= model[x]

    def test_fuzz_matches_decision_procedure(self):
        from repro.solver.arith import is_satisfiable

        rng = random.Random(3)
        variables = [intvar(f"v{i}") for i in range(3)] + [floatvar("f")]
        for _ in range(400):
            constraints, disequalities = [], []
            for _ in range(rng.randint(1, 5)):
                coeffs = {
                    v: Fraction(rng.randint(-3, 3))
                    for v in rng.sample(variables, rng.randint(1, 3))
                }
                expr = LinExpr.build(coeffs, Fraction(rng.randint(-5, 5)))
                kind = rng.random()
                if kind < 0.25:
                    constraints.append(Constraint(expr, EQ))
                elif kind < 0.6:
                    constraints.append(Constraint(expr, LE))
                elif kind < 0.8:
                    constraints.append(Constraint(expr, LT))
                else:
                    disequalities.append(expr)
            model = find_model(constraints, disequalities)
            assert (model is not None) == is_satisfiable(
                constraints, disequalities
            )
            if model is None:
                continue
            for c in constraints:
                value = evaluate(c.expr, model)
                assert (
                    value == 0 if c.rel == EQ
                    else value <= 0 if c.rel == LE
                    else value < 0
                )
            for d in disequalities:
                assert evaluate(d, model) != 0


class TestStringFindModel:
    def test_equality_chain_with_constant(self):
        a, b = strvar("a"), strvar("b")
        model = find_string_model(
            [(a, b), (b, Const.of("Systems"))], [], []
        )
        assert model[a] == model[b] == "Systems"

    def test_conflicting_constants_unsat(self):
        a = strvar("a")
        assert find_string_model(
            [(a, Const.of("x")), (a, Const.of("y"))], [], []
        ) is None

    def test_disequalities_get_distinct_values(self):
        a, b, c = strvar("a"), strvar("b"), strvar("c")
        model = find_string_model([], [(a, b), (b, c), (a, c)], [])
        assert len({model[a], model[b], model[c]}) == 3

    def test_like_patterns_instantiated(self):
        from repro.logic.evaluate import sql_like

        a, b = strvar("a"), strvar("b")
        model = find_string_model(
            [], [(a, b)],
            [(a, "Sys%", True), (b, "Sys%", True), (b, "%z", False)],
        )
        assert sql_like(model[a], "Sys%")
        assert sql_like(model[b], "Sys%")
        assert not sql_like(model[b], "%z")
        assert model[a] != model[b]

    def test_negative_like_with_pinned_constant_unsat(self):
        a = strvar("a")
        assert find_string_model(
            [(a, Const.of("Systems"))], [], [(a, "Sys%", False)]
        ) is None


class TestSolverFindModel:
    def test_returns_theory_model_satisfying_formula(self):
        solver = Solver()
        x, y = intvar("t.x"), intvar("t.y")
        a = strvar("t.a")
        formula = conj(
            Comparison(">", x, const(100)),
            Comparison("<=", y, x),
            Comparison("=", a, const("Database")),
        )
        model = solver.find_model(formula)
        assert isinstance(model, TheoryModel)
        assert model.complete
        assert eval_formula(formula, model.env())

    def test_atom_polarities_exposed(self):
        solver = Solver()
        x = intvar("t.x")
        model = solver.find_model(Comparison(">", x, const(0)))
        assert len(model.atoms) == 1
        [(atom, positive)] = model.atoms.items()
        assert atom.kind == "num_le"

    def test_unsat_returns_none(self):
        solver = Solver()
        x = intvar("t.x")
        formula = conj(Comparison("<", x, const(0)), Comparison(">", x, const(5)))
        assert solver.find_model(formula) is None

    def test_context_constrains_model(self):
        solver = Solver()
        x = intvar("t.x")
        model = solver.find_model(
            Comparison(">", x, const(0)), context=(Comparison(">", x, const(50)),)
        )
        assert model.value(x) > 50

    def test_trivially_true_formula(self):
        solver = Solver()
        model = solver.find_model(Comparison("=", const(1), const(1)))
        assert model is not None and model.values == {}

    def test_incomplete_flag_for_opaque_atoms(self):
        solver = Solver()
        a, b = strvar("t.a"), strvar("t.b")
        x = intvar("t.x")
        # LIKE with a non-constant pattern is an opaque atom.
        formula = conj(Comparison("LIKE", a, b), Comparison(">", x, const(1)))
        model = solver.find_model(formula)
        assert model is not None
        assert not model.complete
        assert model.value(x) > 1

    def test_fuzz_models_satisfy_when_complete(self):
        solver = Solver()
        rng = random.Random(21)
        numeric = [intvar("t.x"), intvar("t.y"), floatvar("t.f")]
        stringy = [strvar("t.a"), strvar("t.b")]

        def random_atom():
            if rng.random() < 0.65:
                left, right = rng.sample(
                    numeric + [const(rng.randint(-4, 4))], 2
                )
                op = rng.choice(["=", "<>", "<", "<=", ">", ">="])
            else:
                left = rng.choice(stringy)
                right = rng.choice(
                    [t for t in stringy if t is not left]
                    + [const("Amy"), const("Bob")]
                )
                op = rng.choice(["=", "<>"])
            return Comparison(op, left, right)

        checked = 0
        for _ in range(250):
            formula = random_atom()
            for _ in range(rng.randint(1, 4)):
                other = random_atom()
                formula = (
                    conj(formula, other)
                    if rng.random() < 0.6
                    else disj(formula, neg(other))
                )
            model = solver.find_model(formula)
            assert (model is not None) == solver.is_satisfiable(formula)
            if model is None or not model.complete:
                continue
            env = dict(model.env())
            for var in formula.variables():
                env.setdefault(
                    var.name, Fraction(0) if var.type.is_numeric else "w"
                )
            assert eval_formula(formula, env)
            checked += 1
        assert checked > 100


class TestEvaluateHelper:
    def test_missing_terms_default_to_zero(self):
        x = intvar("x")
        expr = LinExpr.build({x: Fraction(2)}, Fraction(3))
        assert evaluate(expr, {}) == 3
        assert evaluate(expr, {x: Fraction(2)}) == 7
