"""Tests for the corpus subsystem: mutations, generation, evaluation."""

import json

import pytest

from repro.corpus import (
    CorpusGenerator,
    bundled_sources,
    evaluate_corpus,
    mutate_query,
)
from repro.corpus.mutations import STAGES, MutationRecord
from repro.service.cache import canonical_key
from repro.sqlparser.rewrite import parse_query_extended
from repro.workloads import beers, dblp, tpch


@pytest.fixture(scope="module")
def beers_cat():
    return beers.catalog()


@pytest.fixture(scope="module")
def dblp_cat():
    return dblp.catalog()


class TestMutateQuery:
    def test_deterministic_per_seed(self, beers_cat):
        target = parse_query_extended(beers.SOLUTION_B, beers_cat)
        a = mutate_query(target, beers_cat, num_errors=2, seed=17)
        b = mutate_query(target, beers_cat, num_errors=2, seed=17)
        assert a is not None and b is not None
        assert a.wrong.to_sql() == b.wrong.to_sql()
        assert a.mutations == b.mutations

    def test_wrong_differs_canonically(self, beers_cat):
        target = parse_query_extended(beers.SOLUTION_C, beers_cat)
        for seed in range(10):
            mutant = mutate_query(target, beers_cat, seed=seed)
            assert mutant is not None
            assert canonical_key(mutant.wrong) != canonical_key(mutant.correct)

    def test_mutants_reresolve(self, dblp_cat):
        # Every emitted mutant must be a well-formed query of the fragment.
        for question in dblp.QUESTIONS:
            target = parse_query_extended(question.correct_sql, dblp_cat)
            for seed in range(6):
                mutant = mutate_query(target, dblp_cat, num_errors=2, seed=seed)
                if mutant is None:
                    continue
                parse_query_extended(mutant.wrong.to_sql(), dblp_cat)

    def test_stage_restriction_honoured(self, beers_cat):
        target = parse_query_extended(beers.SOLUTION_B, beers_cat)
        for stage in ("WHERE", "SELECT", "FROM"):
            mutant = mutate_query(
                target, beers_cat, num_errors=1, seed=3, stages=(stage,)
            )
            assert mutant is not None
            assert set(m.stage for m in mutant.mutations) == {stage}

    def test_having_and_groupby_operators(self, beers_cat):
        target = parse_query_extended(beers.SOLUTION_D1, beers_cat)
        seen = set()
        for seed in range(20):
            mutant = mutate_query(
                target, beers_cat, num_errors=1, seed=seed,
                stages=("HAVING", "GROUP BY"),
            )
            if mutant is not None:
                seen.update(m.stage for m in mutant.mutations)
        assert "HAVING" in seen
        assert "GROUP BY" in seen

    def test_from_table_swap_on_dblp(self, dblp_cat):
        # conference_paper vs journal_paper share pubkey/title/year: the
        # classic join-table confusion must be producible.
        target = parse_query_extended(dblp.Q1.correct_sql, dblp_cat)
        kinds = set()
        for seed in range(25):
            mutant = mutate_query(
                target, dblp_cat, num_errors=1, seed=seed, stages=("FROM",)
            )
            if mutant is not None:
                kinds.update(m.kind for m in mutant.mutations)
        assert "wrong-table" in kinds

    def test_alias_confusion_on_self_join(self, beers_cat):
        target = parse_query_extended(beers.SOLUTION_D2, beers_cat)
        kinds = set()
        for seed in range(30):
            mutant = mutate_query(
                target, beers_cat, num_errors=1, seed=seed, stages=("WHERE",)
            )
            if mutant is not None:
                kinds.update(m.kind for m in mutant.mutations)
        assert "alias-confusion" in kinds

    def test_difficulty_scoring(self, beers_cat):
        target = parse_query_extended(beers.SOLUTION_B, beers_cat)
        single = mutate_query(target, beers_cat, num_errors=1, seed=1)
        assert single.difficulty == 1
        double = mutate_query(target, beers_cat, num_errors=2, seed=1)
        assert double.difficulty == 2 * len(double.stages)
        assert double.difficulty >= 2

    def test_record_shape(self, beers_cat):
        target = parse_query_extended(beers.SOLUTION_A, beers_cat)
        mutant = mutate_query(target, beers_cat, num_errors=1, seed=0)
        record = mutant.mutations[0]
        assert isinstance(record, MutationRecord)
        assert record.stage in STAGES
        payload = record.to_dict()
        assert set(payload) == {"stage", "kind", "site", "original"}


class TestCorpusGenerator:
    def test_deterministic(self):
        a = CorpusGenerator(schemas=("beers",), seed=4).generate_pool(6)
        b = CorpusGenerator(schemas=("beers",), seed=4).generate_pool(6)
        assert [e.wrong_sql for e in a] == [e.wrong_sql for e in b]
        assert [e.mutations for e in a] == [e.mutations for e in b]

    def test_entries_regenerable_from_their_seed(self):
        generator = CorpusGenerator(schemas=("beers",), seed=9)
        pool = generator.generate_pool(5)
        source = generator.sources[0]
        entry = pool[3]
        index = int(entry.seed.rsplit(":", 1)[1])
        again = generator.entry_for(
            source, entry.qid, entry.target_sql, index
        )
        assert again is not None
        assert again.wrong_sql == entry.wrong_sql

    def test_dedup_by_canonical_form(self):
        generator = CorpusGenerator(schemas=("beers",), seed=0)
        pool = generator.generate_pool(25)
        cat = beers.catalog()
        keys = set()
        for entry in pool:
            key = (
                entry.schema,
                canonical_key(parse_query_extended(entry.target_sql, cat)),
                canonical_key(parse_query_extended(entry.wrong_sql, cat)),
            )
            assert key not in keys
            keys.add(key)
        assert generator.duplicates > 0  # 25 seeds/query must collide some

    def test_unknown_schema_rejected(self):
        with pytest.raises(ValueError):
            CorpusGenerator(schemas=("nope",))

    def test_bundled_sources_cover_every_schema(self):
        names = [s.name for s in bundled_sources()]
        assert names == ["beers", "brass", "dblp", "tpch", "userstudy"]
        for source in bundled_sources():
            assert source.targets, source.name
            catalog = source.catalog()
            for _, sql in source.targets:
                parse_query_extended(sql, catalog)

    def test_to_dict_round_trips_json(self):
        pool = CorpusGenerator(schemas=("beers",), seed=1).generate_pool(3)
        for entry in pool:
            payload = json.loads(json.dumps(entry.to_dict()))
            assert payload["schema"] == "beers"
            assert payload["mutations"]
            assert payload["difficulty"] == entry.difficulty


class TestEvaluateCorpus:
    @pytest.fixture(scope="class")
    def beers_eval(self):
        pool = CorpusGenerator(schemas=("beers",), seed=0).generate_pool(6)
        result = evaluate_corpus(
            pool, schemas=("beers",), witness=True, witness_limit=4,
        )
        return pool, result

    def test_everything_grades(self, beers_eval):
        pool, result = beers_eval
        assert result.total == len(pool)
        assert result.errors == 0
        assert result.grade_success_rate == 1.0

    def test_hint_coverage_and_agreement(self, beers_eval):
        _, result = beers_eval
        assert result.hint_coverage >= 0.9
        assert result.stage_recall >= 0.9
        assert 0.0 <= result.stage_exact_rate <= 1.0

    def test_witness_subsample(self, beers_eval, beers_cat):
        from repro.service import AssignmentSession

        _, result = beers_eval
        assert result.witness_attempted == 4
        assert result.witness_found >= 3
        # The four sampled entries are the first four flagged ones; each
        # gets the witness a fresh session finds for it.
        sampled = [
            entry for entry, outcome in result.outcomes
            if not outcome.all_passed
        ][:4]
        assert result.witness_found == sum(
            AssignmentSession(beers_cat, entry.target_sql)
            .grade(entry.wrong_sql, witness=True).witness is not None
            for entry in sampled
        )

    def test_by_schema_and_kind_breakdowns(self, beers_eval):
        pool, result = beers_eval
        assert result.by_schema["beers"]["total"] == len(pool)
        assert sum(v["count"] for v in result.by_kind.values()) == sum(
            len(e.mutations) for e in pool
        )

    def test_to_dict_is_json_safe(self, beers_eval):
        _, result = beers_eval
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["grade_success_rate"] == 1.0
        assert payload["throughput"] > 0

    def test_every_repair_is_equivalent_to_its_target(
        self, beers_eval, beers_cat
    ):
        # Theorem 3.1: each repaired query is equivalent to its target,
        # on random instances and under the targeted witness search.
        from repro.engine.diff import differential_check
        from repro.witness import generate_witness

        _, result = beers_eval
        pairs = {
            (entry.target_sql, outcome.final_sql)
            for entry, outcome in result.outcomes
        }
        for target_sql, final_sql in sorted(pairs):
            target = parse_query_extended(target_sql, beers_cat)
            final = parse_query_extended(final_sql, beers_cat)
            assert differential_check(final, target, beers_cat) is None, (
                final_sql
            )
            assert generate_witness(beers_cat, target, final) is None, (
                final_sql
            )

    def test_trace_jsonl_has_one_line_per_unique_form(self, tmp_path):
        from repro.service.session import AssignmentSession

        pool = CorpusGenerator(schemas=("beers",), seed=0).generate_pool(4)
        path = tmp_path / "traces.jsonl"
        evaluate_corpus(pool, schemas=("beers",), trace_jsonl=str(path))
        catalog = beers.catalog()
        forms = {}
        for entry in pool:
            session = AssignmentSession(catalog, entry.target_sql)
            canonical, _ = session.prepare(entry.wrong_sql)
            forms.setdefault(entry.target_sql, set()).add(canonical)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(records) == sum(len(group) for group in forms.values())
        for record in records:
            assert record["schema"] == "beers"
            assert record["target_sql"] in forms
            names = [span["name"] for span in record["trace"]["spans"]]
            assert names[0] == "grade"
            assert "pipeline.run" in names


class TestBenignMutants:
    """Regression tests for the residual hint-coverage misses.

    The full fixed-seed corpus (seed 0, 20 mutants/query) leaves six
    entries across the extra-column / wrong-column / missing-column kinds
    unflagged.  Triage showed every one is a *benign* mutation -- the
    recorded edit preserved semantics -- in exactly two classes:

    1. **qualification-only**: the mutation toggled ``col`` <->
       ``table.col`` spelling.  The recorder logs it as an
       extra/missing/wrong-column edit, but both spellings resolve to the
       same column, so the grader is right not to flag it.
    2. **join-equality swap**: the mutation substituted a column that the
       WHERE clause equates with the original (e.g. ``likes.drinker`` ->
       ``frequents.drinker`` under ``likes.drinker = frequents.drinker``),
       so every result row is unchanged.

    Each test pins one reproduced pair per mutation kind: the grader must
    keep recognizing the equivalence (``all_passed``), i.e. these misses
    stay documented-benign rather than regressing into false flags --
    or silently turning into real misses.
    """

    @staticmethod
    def _grade(schema, target_sql, wrong_sql):
        from repro.service.session import AssignmentSession

        source = {s.name: s for s in bundled_sources()}[schema]
        session = AssignmentSession(source.catalog(), target_sql)
        return session.grade(wrong_sql)

    def test_wrong_column_join_equality_swap(self):
        # ``frequents.drinker`` equals ``likes.drinker`` on every
        # surviving row by the WHERE join predicate, so projecting either
        # column yields identical results.
        report = self._grade(
            "beers",
            "SELECT likes.drinker FROM Likes, Frequents "
            "WHERE likes.beer = 'Corona' "
            "AND likes.drinker = frequents.drinker "
            "AND frequents.bar = 'James Joyce Pub' "
            "AND frequents.times_a_week >= 2",
            "SELECT frequents.drinker FROM Likes, Frequents "
            "WHERE (likes.beer = 'Corona' "
            "AND likes.drinker = frequents.drinker "
            "AND frequents.bar = 'James Joyce Pub' "
            "AND frequents.times_a_week >= 2)",
        )
        assert report.all_passed

    def test_extra_and_missing_column_qualification_only(self):
        # Recorded as an extra-column + missing-column pair, but the edit
        # only qualified ``beer``/``price`` with their (unambiguous)
        # table -- the resolved query is the same.
        report = self._grade(
            "brass",
            "SELECT beer FROM Serves WHERE price > 3",
            "SELECT serves.beer FROM Serves WHERE serves.price > 3",
        )
        assert report.all_passed

    def test_wrong_column_qualification_only(self):
        report = self._grade(
            "brass",
            "SELECT beer FROM Serves WHERE bar = 'James Joyce Pub'",
            "SELECT serves.beer FROM Serves "
            "WHERE serves.bar = 'James Joyce Pub'",
        )
        assert report.all_passed

    def test_missing_column_qualification_only_group_by(self):
        # Same qualification-only class through GROUP BY + aggregate.
        report = self._grade(
            "brass",
            "SELECT drinker, COUNT(*) FROM Likes GROUP BY drinker",
            "SELECT likes.drinker, COUNT(*) FROM Likes "
            "GROUP BY likes.drinker",
        )
        assert report.all_passed

    def test_join_equality_swap_with_constant_fold(self):
        # Two stacked equivalences: ``serves.bar`` <-> ``bar.name`` under
        # the join predicate ``bar.name = serves.bar``, and the literal
        # rewrite ``11/5`` == ``2.20``.
        report = self._grade(
            "brass",
            "SELECT name, address FROM Bar, Serves "
            "WHERE Bar.name = Serves.bar AND beer = 'Budweiser' "
            "AND price > 2.20",
            "SELECT serves.bar, bar.address FROM Bar, Serves "
            "WHERE (bar.name = serves.bar AND serves.beer = 'Budweiser' "
            "AND serves.price > 11/5)",
        )
        assert report.all_passed

    def test_by_kind_benign_accounting(self):
        # Every graded entry is either flagged or benign, per kind: the
        # by_kind breakdown must account for 100% of the mutations.
        pool = CorpusGenerator(schemas=("beers",), seed=0).generate_pool(6)
        result = evaluate_corpus(pool, schemas=("beers",))
        assert result.errors == 0
        for kind, stats in result.by_kind.items():
            assert stats["flagged"] + stats["benign"] == stats["count"], kind
        assert result.flagged + result.benign == result.graded


class TestCorpusCli:
    def test_list_schemas(self, capsys):
        from repro.cli import main

        assert main(["corpus", "--list-schemas"]) == 0
        out = capsys.readouterr().out
        for name in ("beers", "brass", "dblp", "tpch", "userstudy"):
            assert name in out

    def test_generate_only_with_dump(self, tmp_path, capsys):
        from repro.cli import main

        dump = tmp_path / "corpus.jsonl"
        code = main(
            [
                "corpus", "--schemas", "beers", "--per-query", "3",
                "--generate-only", "--dump", str(dump),
            ]
        )
        assert code == 0
        lines = dump.read_text().splitlines()
        assert lines
        entry = json.loads(lines[0])
        assert entry["schema"] == "beers" and entry["mutations"]

    def test_end_to_end_eval(self, tmp_path, capsys):
        from repro.cli import main

        out_path = tmp_path / "metrics.json"
        code = main(
            [
                "corpus", "--schemas", "beers", "--per-query", "3",
                "--json", str(out_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "hint coverage" in out
        payload = json.loads(out_path.read_text())
        assert payload["errors"] == 0
        assert payload["graded"] == payload["total"]

    def test_unknown_schema_is_an_error(self, capsys):
        from repro.cli import main

        assert main(["corpus", "--schemas", "bogus"]) == 2
        assert "error:" in capsys.readouterr().err


class TestTpchMutations:
    def test_tpch_where_mutants(self):
        cat = tpch.catalog()
        target = tpch.Q5.resolve(cat)
        mutant = mutate_query(target, cat, num_errors=2, seed=2,
                              stages=("WHERE",))
        assert mutant is not None
        assert all(m.stage == "WHERE" for m in mutant.mutations)
        parse_query_extended(mutant.wrong.to_sql(), cat)

    def test_tpch_nested_q7(self):
        cat = tpch.catalog()
        target = tpch.Q7_NESTED.resolve(cat)
        mutant = mutate_query(target, cat, num_errors=1, seed=5)
        assert mutant is not None
        parse_query_extended(mutant.wrong.to_sql(), cat)
