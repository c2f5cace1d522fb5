"""End-to-end tests for the QrHint pipeline (Theorem 3.1 behaviour)."""

import pytest

from repro.core.pipeline import QrHint
from repro.engine import appear_equivalent


def run_and_verify(catalog, target, working, **kwargs):
    report = QrHint(catalog, target, working, **kwargs).run()
    assert appear_equivalent(
        report.final_query, report.target_query, catalog, trials=40
    ), report.final_query.to_sql()
    return report


class TestPaperExample1(object):
    TARGET = """
        SELECT L.beer, S1.bar, COUNT(*)
        FROM Likes L, Frequents F, Serves S1, Serves S2
        WHERE L.drinker = F.drinker AND F.bar = S1.bar AND L.beer = S1.beer
          AND S1.beer = S2.beer AND S1.price <= S2.price
        GROUP BY F.drinker, L.beer, S1.bar
        HAVING F.drinker = 'Amy'
    """
    WORKING = """
        SELECT s2.beer, s2.bar, COUNT(*)
        FROM Likes, Serves s1, Serves s2
        WHERE drinker = 'Amy' AND Likes.beer = s1.beer
          AND Likes.beer = s2.beer AND s1.price > s2.price
        GROUP BY s2.beer, s2.bar
    """

    def test_example_2_hint_sequence(self, beers_catalog):
        report = run_and_verify(beers_catalog, self.TARGET, self.WORKING)
        by_stage = {s.stage: s for s in report.stages}
        # FROM: Frequents needed (paper's first hint).
        assert not by_stage["FROM"].passed
        assert any("frequents" in h.message.lower() for h in by_stage["FROM"].hints)
        # WHERE: the price comparison is the repair site (paper's second hint).
        assert not by_stage["WHERE"].passed
        assert any("price" in str(h.site) for h in by_stage["WHERE"].hints)
        # No spurious hints in later stages (paper: "knows not to suggest
        # spurious hints such as adding Frequents.drinker to GROUP BY").
        assert by_stage["GROUP BY"].passed
        assert by_stage["HAVING"].passed
        assert by_stage["SELECT"].passed

    def test_having_where_movement_not_flagged(self, beers_catalog):
        # drinker='Amy' in WHERE vs HAVING F.drinker='Amy' must not trigger
        # a HAVING hint (the look-ahead of Section 3.1).
        report = run_and_verify(beers_catalog, self.TARGET, self.WORKING)
        having = [h for h in report.hints if h.stage == "HAVING"]
        assert not having


class TestPipelineBasics:
    def test_equivalent_queries_produce_no_hints(self, beers_catalog):
        target = "SELECT beer FROM Serves WHERE price > 2 AND bar = 'Joyce'"
        working = "SELECT serves.beer FROM Serves WHERE bar = 'Joyce' AND 2 < price"
        report = run_and_verify(beers_catalog, target, working)
        assert report.all_passed
        assert not report.hints

    def test_single_where_error(self, beers_catalog):
        target = "SELECT beer FROM Serves WHERE price > 2"
        working = "SELECT beer FROM Serves WHERE price >= 2"
        report = run_and_verify(beers_catalog, target, working)
        assert [s.stage for s in report.stages if not s.passed] == ["WHERE"]

    def test_select_order_error(self, beers_catalog):
        target = "SELECT bar, beer FROM Serves"
        working = "SELECT beer, bar FROM Serves"
        report = run_and_verify(beers_catalog, target, working)
        assert [s.stage for s in report.stages if not s.passed] == ["SELECT"]

    def test_distinct_mismatch_flagged(self, beers_catalog):
        target = "SELECT DISTINCT beer FROM Serves"
        working = "SELECT beer FROM Serves"
        report = run_and_verify(beers_catalog, target, working)
        assert any(h.kind == "distinct" for h in report.hints)

    def test_missing_group_by_query_becomes_aggregate(self, beers_catalog):
        target = "SELECT bar, COUNT(*) FROM Serves GROUP BY bar"
        working = "SELECT bar, COUNT(*) FROM Serves GROUP BY bar, beer"
        report = run_and_verify(beers_catalog, target, working)
        assert any(h.stage == "GROUP BY" for h in report.hints)

    def test_having_constant_error(self, beers_catalog):
        target = (
            "SELECT drinker FROM Likes GROUP BY drinker HAVING COUNT(*) >= 2"
        )
        working = (
            "SELECT drinker FROM Likes GROUP BY drinker HAVING COUNT(*) > 2"
        )
        report = run_and_verify(beers_catalog, target, working)
        failed = [s.stage for s in report.stages if not s.passed]
        assert failed == ["HAVING"]

    def test_report_summary_renders(self, beers_catalog):
        target = "SELECT beer FROM Serves WHERE price > 2"
        working = "SELECT beer FROM Serves WHERE price >= 3"
        report = QrHint(beers_catalog, target, working).run()
        text = report.summary()
        assert "WHERE" in text

    def test_stage_timings_recorded(self, beers_catalog):
        report = QrHint(
            beers_catalog,
            "SELECT beer FROM Serves",
            "SELECT beer FROM Serves",
        ).run()
        assert all(s.elapsed >= 0 for s in report.stages)
        assert report.elapsed > 0

    def test_spj_pipeline_has_three_stages(self, beers_catalog):
        report = QrHint(
            beers_catalog,
            "SELECT beer FROM Serves",
            "SELECT beer FROM Serves",
        ).run()
        assert [s.stage for s in report.stages] == ["FROM", "WHERE", "SELECT"]

    def test_spja_pipeline_has_five_stages(self, beers_catalog):
        report = QrHint(
            beers_catalog,
            "SELECT bar, COUNT(*) FROM Serves GROUP BY bar",
            "SELECT bar, COUNT(*) FROM Serves GROUP BY bar",
        ).run()
        assert [s.stage for s in report.stages] == [
            "FROM",
            "WHERE",
            "GROUP BY",
            "HAVING",
            "SELECT",
        ]


class TestMultiErrorRecovery:
    def test_from_and_where_and_select(self, beers_catalog):
        target = (
            "SELECT name, address FROM Bar, Serves "
            "WHERE Bar.name = Serves.bar AND beer = 'Budweiser' AND price > 2.20"
        )
        working = "SELECT address FROM Bar WHERE name = 'Budweiser'"
        report = run_and_verify(beers_catalog, target, working)
        stages_failed = {s.stage for s in report.stages if not s.passed}
        assert "FROM" in stages_failed

    def test_self_join_missing_copy(self, beers_catalog):
        target = (
            "SELECT DISTINCT l1.drinker FROM Likes l1, Likes l2 "
            "WHERE l1.drinker = l2.drinker AND l1.beer <> l2.beer"
        )
        working = "SELECT DISTINCT l1.drinker FROM Likes l1 WHERE l1.beer <> 'x'"
        report = run_and_verify(beers_catalog, target, working)
        assert not report.stages[0].passed  # FROM stage flagged

    def test_everything_wrong_still_converges(self, beers_catalog):
        target = (
            "SELECT likes.drinker FROM Likes, Frequents "
            "WHERE likes.drinker = frequents.drinker "
            "AND frequents.bar = 'James Joyce Pub' AND likes.beer = 'Corona'"
        )
        working = "SELECT beer FROM Likes WHERE beer = 'Bud'"
        run_and_verify(beers_catalog, target, working)


class TestUserStudyQueries:
    @pytest.mark.parametrize("qid", ["Q1", "Q2", "Q3", "Q4"])
    def test_dblp_questions_converge(self, dblp_catalog, qid):
        from repro.workloads.dblp import QUESTIONS

        question = next(q for q in QUESTIONS if q.qid == qid)
        report = QrHint(
            dblp_catalog, question.correct_sql, question.wrong_sql
        ).run()
        assert appear_equivalent(
            report.final_query, report.target_query, dblp_catalog, trials=25
        )
        assert not report.all_passed  # the wrong queries are indeed wrong
