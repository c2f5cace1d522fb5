"""Tests for the query IR, hints, and failure-injection paths."""

from dataclasses import replace

import pytest

from repro.errors import SolverLimitError
from repro.logic.formulas import And, Comparison, Not, conj, disj
from repro.logic.terms import const, intvar
from repro.query import FromEntry
from repro.sqlparser import parse_query


class TestResolvedQueryIR:
    def test_tables_multiset_counts_duplicates(self, beers_catalog):
        query = parse_query(
            "SELECT s1.beer FROM Serves s1, Serves s2, Likes "
            "WHERE s1.beer = s2.beer AND s1.beer = likes.beer",
            beers_catalog,
        )
        counts = query.tables_multiset()
        assert counts["serves"] == 2
        assert counts["likes"] == 1

    def test_aliases_of_and_table_of(self, beers_catalog):
        query = parse_query(
            "SELECT s1.beer FROM Serves s1, Serves s2 WHERE s1.beer = s2.beer",
            beers_catalog,
        )
        assert query.aliases_of("serves") == ["s1", "s2"]
        assert query.table_of("s1") == "Serves"
        assert query.table_of("zzz") is None

    def test_rename_aliases_rewrites_everything(self, beers_catalog):
        query = parse_query(
            "SELECT s.beer FROM Serves s WHERE s.price > 2 GROUP BY s.beer "
            "HAVING COUNT(*) > 1",
            beers_catalog,
        )
        renamed = query.rename_aliases({"s": "srv"})
        assert renamed.aliases() == ["srv"]
        names = {v.name for v in renamed.where.variables()}
        assert names == {"srv.price"}
        assert renamed.group_by[0].name == "srv.beer"
        assert renamed.select[0].name == "srv.beer"

    def test_rename_aliases_keeps_tree_shape_and_swaps(self, beers_catalog):
        query = parse_query(
            "SELECT a.beer FROM Serves a, Serves b "
            "WHERE a.price > 1 AND b.price < 2 AND a.bar = b.bar",
            beers_catalog,
        )
        first, second, third = query.where.operands
        # conj/neg would flatten the nested AND and fold the NOT into <>.
        nested = replace(query, where=And((And((first, second)), Not(third))))
        swapped = nested.rename_aliases({"a": "b", "b": "a"})
        assert str(swapped.where) == (
            "((b.price > 1 AND a.price < 2) AND NOT (b.bar = a.bar))"
        )
        assert swapped.aliases() == ["b", "a"]
        assert swapped.rename_aliases({"a": "b", "b": "a"}) == nested

    def test_to_sql_round_trip(self, beers_catalog):
        query = parse_query(
            "SELECT bar, COUNT(*) FROM Serves WHERE price > 1 "
            "GROUP BY bar HAVING COUNT(*) >= 2",
            beers_catalog,
        )
        again = parse_query(query.to_sql(), beers_catalog)
        assert again.group_by == query.group_by
        assert again.having == query.having

    def test_from_entry_rendering(self):
        assert str(FromEntry("Serves", "serves")) == "Serves"
        assert str(FromEntry("Serves", "s1")) == "Serves s1"

    def test_select_aliases_rendered(self, beers_catalog):
        query = parse_query("SELECT beer AS b FROM Serves", beers_catalog)
        assert "AS b" in query.to_sql()


class TestHintObjects:
    def test_hint_str_includes_stage(self):
        from repro.core.hints import Hint

        site = Comparison(">", intvar("a"), intvar("b"))
        hint = Hint("WHERE", "repair-site", site=site)
        assert str(hint) == f"[WHERE] {hint.message}"
        assert hint.message.startswith(
            "In WHERE, there is a problem with `a > b`."
        )

    def test_rename_aliases_renames_site_and_fix_not_tables(self):
        from repro.core.from_stage import FromDelta
        from repro.core.hints import Hint, from_stage_hints

        hint = Hint(
            "WHERE",
            "repair-site",
            site=Comparison(">", intvar("_s0.x"), const(5)),
            fix=Comparison(">", intvar("_s0.x"), const(7)),
        )
        renamed = hint.rename_aliases({"_s0": "t"})
        assert renamed.message == hint.message.replace("_s0.x", "t.x")
        assert renamed.to_dict(show_fixes=True)["fix"] == "t.x > 7"
        [table_hint] = from_stage_hints(FromDelta(missing={"_s0": 1}))
        assert table_hint.rename_aliases({"_s0": "t"}) == table_hint

    def test_from_stage_hint_counts(self):
        from repro.core.from_stage import FromDelta
        from repro.core.hints import from_stage_hints

        delta = FromDelta(missing={"likes": 2}, extra={"bar": 1})
        hints = from_stage_hints(delta)
        assert len(hints) == 2
        kinds = {h.kind for h in hints}
        assert kinds == {"missing-table", "extra-table"}

    def test_select_hints_cover_all_categories(self):
        from repro.core.select_stage import SelectDelta
        from repro.core.hints import select_hints

        terms = (intvar("x"), intvar("y"), intvar("z"))
        delta = SelectDelta(remove=[0, 2], add=[0, 3])
        hints = select_hints(delta, terms, target_len=4)
        kinds = [h.kind for h in hints]
        assert "wrong-expr" in kinds
        assert "extra-expr" in kinds
        assert "missing-expr" in kinds


class TestFailureInjection:
    def test_minfix_atom_budget_enforced(self, solver):
        from repro.core.minfix import min_fix

        atoms = [
            Comparison("=", intvar(f"v{i}"), const(i)) for i in range(16)
        ]
        lower = conj(*atoms)
        upper = disj(*atoms)
        with pytest.raises(SolverLimitError):
            min_fix(lower, upper, solver)

    def test_repair_where_survives_minfix_budget(self, solver):
        # When a candidate site's fix derivation exceeds the atom budget,
        # RepairWhere skips it rather than crashing (falls back to other
        # sites, ultimately the root).
        from repro.core.where_repair import repair_where

        p = conj(*(Comparison("=", intvar(f"v{i}"), const(i)) for i in range(6)))
        p_star = conj(
            *(Comparison("=", intvar(f"v{i}"), const(i + 1)) for i in range(6))
        )
        result = repair_where(p, p_star, max_sites=2, solver=solver)
        assert result.found

    def test_solver_conflict_budget(self):
        from repro.core.minfix import build_truth_table, map_atom_preds
        from repro.solver import Solver

        tiny = Solver(max_conflicts=1)
        x, y = intvar("x"), intvar("y")
        # UNSAT but needs two theory conflicts to close: either disjunct
        # contradicts x = y, so one blocking clause is not enough.
        hard = conj(
            disj(Comparison("<", x, y), Comparison(">", x, y)),
            Comparison("=", x, y),
        )
        with pytest.raises(SolverLimitError):
            tiny.is_satisfiable(hard)
        # find_model and MinFix's truth tables run the same loop, so they
        # hit the same budget.
        with pytest.raises(SolverLimitError):
            tiny.find_model(hard)
        atom = Comparison("=", x, y)
        mapping = map_atom_preds([atom], tiny, (hard,))
        with pytest.raises(SolverLimitError):
            build_truth_table(mapping, atom, atom, tiny, (hard,))

    def test_engine_rejects_bool_for_numeric(self, beers_catalog):
        from repro.engine import Database

        with pytest.raises(TypeError):
            Database(beers_catalog, {"Serves": [("Joyce", "Bud", True)]})
