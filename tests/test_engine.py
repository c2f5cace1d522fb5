"""Tests for the relational engine (bag semantics, grouping, aggregates)."""

import itertools
from fractions import Fraction

import pytest

from repro.catalog import Catalog
from repro.engine import (
    Database,
    DataGenerator,
    appear_equivalent,
    bag_equal,
    cross_product,
    differential_check,
    execute,
    filtered_rows,
    grouped_rows,
    results_differ,
)
from repro.engine import executor
from repro.logic.evaluate import EvaluationError, eval_formula
from repro.sqlparser import parse_query
from repro.witness import guided_generator
from repro.workloads import dblp


@pytest.fixture()
def db(beers_catalog):
    return Database(
        beers_catalog,
        {
            "Likes": [("Amy", "Bud"), ("Amy", "Corona"), ("Bob", "Bud")],
            "Frequents": [("Amy", "Joyce", 3), ("Bob", "Joyce", 1)],
            "Serves": [
                ("Joyce", "Bud", 3),
                ("Joyce", "Corona", 4),
                ("Taproom", "Bud", 2),
            ],
        },
    )


class TestDatabase:
    def test_row_coercion(self, beers_catalog):
        db = Database(beers_catalog, {"Serves": [("Joyce", "Bud", 2.5)]})
        row = db.rows("serves")[0]
        assert row["price"] == Fraction(5, 2)

    def test_dict_rows(self, beers_catalog):
        db = Database(
            beers_catalog, {"Likes": [{"drinker": "Amy", "beer": "Bud"}]}
        )
        assert db.rows("Likes")[0]["drinker"] == "Amy"

    def test_arity_mismatch(self, beers_catalog):
        with pytest.raises(ValueError):
            Database(beers_catalog, {"Likes": [("Amy",)]})

    def test_unknown_table(self, beers_catalog):
        with pytest.raises(KeyError):
            Database(beers_catalog, {"Nope": []})

    def test_duplicates_preserved(self, beers_catalog):
        db = Database(beers_catalog, {"Likes": [("Amy", "Bud")] * 3})
        assert len(db.rows("Likes")) == 3


class TestExecution:
    def test_selection(self, beers_catalog, db):
        q = parse_query("SELECT beer FROM Serves WHERE bar = 'Joyce'", beers_catalog)
        assert sorted(execute(q, db)) == [("Bud",), ("Corona",)]

    def test_cross_product_size(self, beers_catalog, db):
        q = parse_query("SELECT likes.beer FROM Likes, Serves", beers_catalog)
        # cross_product streams environments (generator), so materialize.
        assert len(list(cross_product(q, db))) == 9

    def test_join(self, beers_catalog, db):
        q = parse_query(
            "SELECT likes.drinker, serves.bar FROM Likes, Serves "
            "WHERE likes.beer = serves.beer",
            beers_catalog,
        )
        rows = execute(q, db)
        assert ("Amy", "Joyce") in rows
        assert ("Amy", "Taproom") in rows

    def test_bag_semantics_duplicates(self, beers_catalog, db):
        q = parse_query("SELECT drinker FROM Likes WHERE beer = 'Bud'", beers_catalog)
        assert sorted(execute(q, db)) == [("Amy",), ("Bob",)]
        q2 = parse_query("SELECT beer FROM Likes", beers_catalog)
        assert len(execute(q2, db)) == 3  # duplicates kept

    def test_distinct(self, beers_catalog, db):
        q = parse_query("SELECT DISTINCT beer FROM Likes", beers_catalog)
        assert sorted(execute(q, db)) == [("Bud",), ("Corona",)]

    def test_projection_expression(self, beers_catalog, db):
        q = parse_query(
            "SELECT price * 2 FROM Serves WHERE bar = 'Taproom'", beers_catalog
        )
        assert execute(q, db) == [(Fraction(4),)]

    def test_group_by_count(self, beers_catalog, db):
        q = parse_query(
            "SELECT beer, COUNT(*) FROM Likes GROUP BY beer", beers_catalog
        )
        assert sorted(execute(q, db)) == [("Bud", 2), ("Corona", 1)]

    def test_aggregates_sum_avg_min_max(self, beers_catalog, db):
        q = parse_query(
            "SELECT SUM(price), AVG(price), MIN(price), MAX(price) "
            "FROM Serves WHERE beer = 'Bud'",
            beers_catalog,
        )
        (row,) = execute(q, db)
        assert row == (5, Fraction(5, 2), 2, 3)

    def test_count_distinct(self, beers_catalog, db):
        q = parse_query("SELECT COUNT(DISTINCT beer) FROM Serves", beers_catalog)
        assert execute(q, db) == [(2,)]

    def test_having_filters_groups(self, beers_catalog, db):
        q = parse_query(
            "SELECT beer FROM Likes GROUP BY beer HAVING COUNT(*) >= 2",
            beers_catalog,
        )
        assert execute(q, db) == [("Bud",)]

    def test_aggregate_no_groups_on_empty_input(self, beers_catalog):
        empty = Database(beers_catalog, {"Likes": []})
        q = parse_query("SELECT COUNT(*) FROM Likes", beers_catalog)
        # SQL would return one row (0); the paper's fragment treats the
        # empty input as producing no groups, which our engine mirrors.
        assert execute(q, empty) == []

    def test_filtered_rows_envs(self, beers_catalog, db):
        q = parse_query(
            "SELECT beer FROM Serves WHERE price >= 3", beers_catalog
        )
        envs = list(filtered_rows(q, db))
        assert len(envs) == 2
        assert all(env["serves.price"] >= 3 for env in envs)

    def test_grouped_rows_partition(self, beers_catalog, db):
        q = parse_query(
            "SELECT beer, COUNT(*) FROM Likes GROUP BY beer", beers_catalog
        )
        groups = grouped_rows(q, db)
        sizes = {key[0]: len(envs) for key, envs in groups}
        assert sizes == {"Bud": 2, "Corona": 1}

    def test_rank_query_from_example_1(self, beers_catalog):
        db = Database(
            beers_catalog,
            {
                "Likes": [("Amy", "Bud")],
                "Frequents": [("Amy", "Joyce", 1), ("Amy", "Taproom", 1)],
                "Serves": [("Joyce", "Bud", 3), ("Taproom", "Bud", 2)],
            },
        )
        q = parse_query(
            "SELECT L.beer, S1.bar, COUNT(*) "
            "FROM Likes L, Frequents F, Serves S1, Serves S2 "
            "WHERE L.drinker = F.drinker AND F.bar = S1.bar AND L.beer = S1.beer "
            "AND S1.beer = S2.beer AND S1.price <= S2.price "
            "GROUP BY F.drinker, L.beer, S1.bar HAVING F.drinker = 'Amy'",
            beers_catalog,
        )
        rows = sorted(execute(q, db))
        assert rows == [("Bud", "Joyce", 1), ("Bud", "Taproom", 2)]


def _full_product_rows(query, database):
    """``FW(Q)`` the slow way: WHERE on every complete environment."""
    per_alias = [
        [
            {f"{entry.alias}.{column}": value for column, value in row.items()}
            for row in database.rows(entry.table)
        ]
        for entry in query.from_entries
    ]
    rows = []
    for combo in itertools.product(*per_alias):
        env = {}
        for part in combo:
            env.update(part)
        if eval_formula(query.where, env):
            rows.append(env)
    return rows


class TestConjunctPlacement:
    """``filtered_rows`` checks each WHERE conjunct where it is bound."""

    @pytest.fixture()
    def rs_catalog(self):
        return Catalog.from_spec(
            {"R": [("a", "INT"), ("b", "INT")], "S": [("c", "INT")]}
        )

    @pytest.mark.parametrize(
        "question", dblp.QUESTIONS, ids=lambda question: question.qid
    )
    def test_same_rows_in_same_order_as_full_product(self, question):
        catalog = dblp.catalog()
        queries = tuple(
            parse_query(sql, catalog)
            for sql in (question.correct_sql, question.wrong_sql)
        )
        generator = guided_generator(catalog, queries, seed=0)
        emitted = 0
        for database in generator.instances(40, seed=0):
            for query in queries:
                expected = _full_product_rows(query, database)
                rows = list(filtered_rows(query, database))
                assert [list(env.items()) for env in rows] == [
                    list(env.items()) for env in expected
                ]
                emitted += len(rows)
        assert emitted  # some instance passes WHERE, so order is checked

    def test_division_before_a_false_conjunct_still_raises(self, rs_catalog):
        database = Database(rs_catalog, {"R": [(1, 0)], "S": [(3,)]})
        query = parse_query(
            "SELECT r.a FROM R r, S s WHERE r.a / r.b > 1 AND r.a = 5",
            rs_catalog,
        )
        with pytest.raises(EvaluationError):
            list(filtered_rows(query, database))

    def test_false_conjunct_before_division_returns_nothing(self, rs_catalog):
        database = Database(rs_catalog, {"R": [(1, 0)], "S": [(3,)]})
        query = parse_query(
            "SELECT r.a FROM R r, S s WHERE s.c = 2 AND r.a / r.b > 1",
            rs_catalog,
        )
        assert list(filtered_rows(query, database)) == []

    def test_false_conjunct_prunes_the_aliases_after_it(
        self, rs_catalog, monkeypatch
    ):
        database = Database(
            rs_catalog, {"R": [(1, 0), (2, 0)], "S": [(3,), (4,), (5,)]}
        )
        query = parse_query(
            "SELECT r.a FROM R r, S s1, S s2, S s3 "
            "WHERE r.a = 5 AND s1.c = s2.c AND s2.c < s3.c",
            rs_catalog,
        )
        checked = []

        def counting_eval(formula, env):
            checked.append(formula)
            return eval_formula(formula, env)

        monkeypatch.setattr(executor, "eval_formula", counting_eval)
        assert list(filtered_rows(query, database)) == []
        # One check of r.a = 5 per R row, not one WHERE per each of the
        # 2 * 3**3 complete environments.
        assert len(checked) == 2


class TestBagEqual:
    def test_order_insensitive(self):
        assert bag_equal([(1,), (2,)], [(2,), (1,)])

    def test_multiplicity_sensitive(self):
        assert not bag_equal([(1,), (1,)], [(1,)])

    def test_value_types(self):
        assert bag_equal([(Fraction(2),)], [(Fraction(4, 2),)])


class TestDataGenAndDiff:
    def test_instance_on_which_a_query_raises_is_no_difference(
        self, beers_catalog, db
    ):
        divides = parse_query(
            "SELECT beer FROM Serves WHERE price > 1/0", beers_catalog
        )
        other = parse_query("SELECT beer FROM Serves", beers_catalog)
        assert not results_differ(divides, other, db)
        assert not results_differ(other, divides, db)
        assert differential_check(divides, other, beers_catalog) is None

    def test_generator_is_deterministic(self, beers_catalog):
        a = DataGenerator(beers_catalog, seed=7).random_instance()
        b = DataGenerator(beers_catalog, seed=7).random_instance()
        assert {k: v for k, v in a.tables.items()} == {
            k: v for k, v in b.tables.items()
        }

    def test_generator_respects_max_rows(self, beers_catalog):
        db = DataGenerator(beers_catalog, seed=1, max_rows=2).random_instance()
        assert all(len(rows) <= 2 for rows in db.tables.values())

    def test_explicit_seed_ignores_shared_stream_position(self, beers_catalog):
        # random_instance(seed=...) must be a pure function of the seed,
        # independent of how much of the shared stream was consumed.
        fresh = DataGenerator(beers_catalog, seed=3)
        consumed = DataGenerator(beers_catalog, seed=3)
        consumed.random_instance()  # burn shared-stream state
        a = fresh.random_instance(seed="probe")
        b = consumed.random_instance(seed="probe")
        assert a.tables == b.tables

    def test_instances_batch_matches_individual_calls(self, beers_catalog):
        # instances(count, seed) derives per-index seeds, so trial i of a
        # run can be regenerated without replaying the stream up to it.
        generator = DataGenerator(beers_catalog, seed=0)
        batch = list(generator.instances(4, seed="run"))
        for index, db in enumerate(batch):
            lone = DataGenerator(beers_catalog, seed=99).random_instance(
                seed=f"run:{index}"
            )
            assert db.tables == lone.tables

    def test_instances_same_seed_identical_across_calls(self, beers_catalog):
        generator = DataGenerator(beers_catalog, seed=5)
        first = [db.tables for db in generator.instances(3, seed="s")]
        second = [db.tables for db in generator.instances(3, seed="s")]
        assert first == second

    def test_differential_detects_difference(self, beers_catalog):
        q1 = parse_query("SELECT beer FROM Serves WHERE price > 2", beers_catalog)
        q2 = parse_query("SELECT beer FROM Serves WHERE price > 3", beers_catalog)
        assert differential_check(q1, q2, beers_catalog, trials=30) is not None

    def test_differential_passes_equivalent(self, beers_catalog):
        q1 = parse_query("SELECT beer FROM Serves WHERE price > 2", beers_catalog)
        q2 = parse_query(
            "SELECT beer FROM Serves WHERE 2 < price", beers_catalog
        )
        assert appear_equivalent(q1, q2, beers_catalog, trials=30)

    def test_differential_catches_duplicate_semantics(self, beers_catalog):
        q1 = parse_query("SELECT beer FROM Likes", beers_catalog)
        q2 = parse_query("SELECT DISTINCT beer FROM Likes", beers_catalog)
        assert not appear_equivalent(q1, q2, beers_catalog, trials=30)
