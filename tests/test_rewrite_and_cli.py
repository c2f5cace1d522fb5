"""Tests for single-block rewrites (WITH / FROM subqueries) and the CLI."""

import json

import pytest

from repro.core.pipeline import QrHint, grade
from repro.engine import appear_equivalent
from repro.errors import ParseError, UnsupportedSQLError
from repro.service import AssignmentSession
from repro.sqlparser import parse, parse_query
from repro.sqlparser.rewrite import parse_query_extended


class TestFromSubqueryFlattening:
    def test_simple_subquery(self, beers_catalog):
        flattened = parse_query_extended(
            "SELECT x.beer FROM (SELECT beer, price FROM Serves "
            "WHERE bar = 'Joyce') x WHERE x.price > 2",
            beers_catalog,
        )
        plain = parse_query(
            "SELECT beer FROM Serves WHERE bar = 'Joyce' AND price > 2",
            beers_catalog,
        )
        assert len(flattened.from_entries) == 1
        assert appear_equivalent(flattened, plain, beers_catalog, trials=40)

    def test_subquery_join_with_base_table(self, beers_catalog):
        flattened = parse_query_extended(
            "SELECT likes.drinker FROM Likes, "
            "(SELECT beer FROM Serves WHERE price < 3) cheap "
            "WHERE likes.beer = cheap.beer",
            beers_catalog,
        )
        plain = parse_query(
            "SELECT likes.drinker FROM Likes, Serves "
            "WHERE serves.price < 3 AND likes.beer = serves.beer",
            beers_catalog,
        )
        assert appear_equivalent(flattened, plain, beers_catalog, trials=40)

    def test_nested_subqueries(self, beers_catalog):
        flattened = parse_query_extended(
            "SELECT y.b FROM (SELECT x.beer AS b FROM "
            "(SELECT beer FROM Serves WHERE price > 1) x) y",
            beers_catalog,
        )
        assert len(flattened.from_entries) == 1
        assert flattened.from_entries[0].table == "Serves"

    def test_select_alias_resolution(self, beers_catalog):
        flattened = parse_query_extended(
            "SELECT t.total FROM (SELECT price * 2 AS total FROM Serves) t "
            "WHERE t.total > 4",
            beers_catalog,
        )
        plain = parse_query(
            "SELECT price * 2 FROM Serves WHERE price * 2 > 4", beers_catalog
        )
        assert appear_equivalent(flattened, plain, beers_catalog, trials=40)

    def test_aggregating_subquery_rejected(self, beers_catalog):
        with pytest.raises(UnsupportedSQLError):
            parse_query_extended(
                "SELECT x.c FROM (SELECT COUNT(*) AS c FROM Serves) x",
                beers_catalog,
            )

    def test_distinct_subquery_rejected(self, beers_catalog):
        with pytest.raises(UnsupportedSQLError):
            parse_query_extended(
                "SELECT x.beer FROM (SELECT DISTINCT beer FROM Serves) x",
                beers_catalog,
            )

    def test_unaliased_subquery_rejected(self, beers_catalog):
        with pytest.raises(ParseError):
            parse_query_extended(
                "SELECT beer FROM (SELECT beer FROM Serves)", beers_catalog
            )

    def test_self_join_of_subqueries_gets_fresh_aliases(self, beers_catalog):
        flattened = parse_query_extended(
            "SELECT a.beer FROM (SELECT beer, price FROM Serves) a, "
            "(SELECT beer, price FROM Serves) b "
            "WHERE a.beer = b.beer AND a.price < b.price",
            beers_catalog,
        )
        assert len(flattened.from_entries) == 2
        assert len(set(flattened.aliases())) == 2


class TestWithClauses:
    def test_single_cte(self, beers_catalog):
        flattened = parse_query_extended(
            "WITH cheap AS (SELECT bar, beer, price FROM Serves WHERE price < 3) "
            "SELECT c.beer FROM cheap c, Likes WHERE likes.beer = c.beer",
            beers_catalog,
        )
        plain = parse_query(
            "SELECT s.beer FROM Serves s, Likes "
            "WHERE s.price < 3 AND likes.beer = s.beer",
            beers_catalog,
        )
        assert appear_equivalent(flattened, plain, beers_catalog, trials=40)

    def test_multiple_ctes(self, beers_catalog):
        flattened = parse_query_extended(
            "WITH a AS (SELECT beer FROM Serves WHERE price > 2), "
            "b AS (SELECT beer FROM Likes WHERE drinker = 'Amy') "
            "SELECT a.beer FROM a, b WHERE a.beer = b.beer",
            beers_catalog,
        )
        assert len(flattened.from_entries) == 2

    def test_aggregating_cte_rejected(self, beers_catalog):
        with pytest.raises(UnsupportedSQLError):
            parse_query_extended(
                "WITH counts AS (SELECT COUNT(*) AS c FROM Serves) "
                "SELECT counts.c FROM counts",
                beers_catalog,
            )

    def test_cte_default_alias_is_cte_name(self, beers_catalog):
        flattened = parse(
            "WITH cheap AS (SELECT beer FROM Serves) "
            "SELECT cheap.beer FROM cheap"
        )
        assert flattened.from_tables[0].table == "Serves"

    def test_one_call_grade_flattens_with(self, beers_catalog):
        report = grade(
            beers_catalog,
            "SELECT s.beer FROM Serves s WHERE s.price > 2",
            "WITH cheap AS (SELECT beer, price FROM Serves WHERE price < 100) "
            "SELECT c.beer FROM cheap c WHERE c.price > 3",
        )
        assert not report.all_passed
        assert appear_equivalent(
            report.final_query, report.target_query, beers_catalog, trials=40
        )

    def test_order_by_unsupported_everywhere(self, beers_catalog):
        target = "SELECT beer FROM Serves WHERE price > 2"
        ordered = "SELECT beer FROM Serves WHERE price > 3 ORDER BY beer"
        with pytest.raises(UnsupportedSQLError):
            AssignmentSession(beers_catalog, target).grade(ordered)
        with pytest.raises(UnsupportedSQLError):
            grade(beers_catalog, target, ordered)

    def test_flattened_query_through_pipeline(self, beers_catalog):
        target = parse_query(
            "SELECT beer FROM Serves WHERE bar = 'Joyce' AND price > 2",
            beers_catalog,
        )
        working = parse_query_extended(
            "SELECT x.beer FROM (SELECT beer, price FROM Serves "
            "WHERE bar = 'Joyce') x WHERE x.price >= 2",
            beers_catalog,
        )
        report = QrHint(beers_catalog, target, working).run()
        assert appear_equivalent(
            report.final_query, report.target_query, beers_catalog, trials=40
        )


class TestCli:
    @pytest.fixture()
    def schema_file(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text(
            json.dumps(
                {"Serves": [["bar", "STRING"], ["beer", "STRING"],
                            ["price", "FLOAT"]]}
            )
        )
        return str(path)

    def test_hints_printed(self, schema_file, capsys):
        from repro.cli import main

        code = main(
            [
                "--schema", schema_file,
                "--target-sql", "SELECT beer FROM Serves WHERE price > 2",
                "--working-sql", "SELECT beer FROM Serves WHERE price >= 2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "[WHERE]" in out
        assert "price" in out

    def test_equivalent_queries(self, schema_file, capsys):
        from repro.cli import main

        code = main(
            [
                "--schema", schema_file,
                "--target-sql", "SELECT beer FROM Serves WHERE price > 2",
                "--working-sql", "SELECT serves.beer FROM Serves WHERE 2 < price",
            ]
        )
        assert code == 0
        assert "already equivalent" in capsys.readouterr().out

    def test_verify_flag(self, schema_file, capsys):
        from repro.cli import main

        code = main(
            [
                "--schema", schema_file,
                "--target-sql", "SELECT beer FROM Serves WHERE price > 2",
                "--working-sql", "SELECT beer FROM Serves WHERE price < 2",
                "--verify",
            ]
        )
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_show_fixes(self, schema_file, capsys):
        from repro.cli import main

        main(
            [
                "--schema", schema_file,
                "--target-sql", "SELECT beer FROM Serves WHERE price > 2",
                "--working-sql", "SELECT beer FROM Serves WHERE price >= 2",
                "--show-fixes",
            ]
        )
        assert "fix:" in capsys.readouterr().out

    def test_parse_error_reported(self, schema_file, capsys):
        from repro.cli import main

        code = main(
            [
                "--schema", schema_file,
                "--target-sql", "SELECT beer FROM Serves",
                "--working-sql", "SELEKT nope",
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_subquery_accepted_via_cli(self, schema_file, capsys):
        from repro.cli import main

        code = main(
            [
                "--schema", schema_file,
                "--target-sql", "SELECT beer FROM Serves WHERE price > 2",
                "--working-sql",
                "SELECT x.beer FROM (SELECT beer, price FROM Serves) x "
                "WHERE x.price > 2",
            ]
        )
        assert code == 0
