"""Tests for the counterexample witness subsystem and its integrations."""

import http.client
import json
from fractions import Fraction

import pytest

from repro.catalog import Catalog
from repro.core.pipeline import grade
from repro.engine.database import Database
from repro.engine.datagen import DataGenerator
from repro.engine.executor import bag_equal, execute
from repro.service import AssignmentSession, grade_batch
from repro.service.cache import canonicalize
from repro.service.session import format_report
from repro.solver import Solver
from repro.sqlparser.rewrite import parse_query_extended
from repro.witness import (
    Witness,
    format_witness_lines,
    generate_witness,
    results_differ,
    shrink_instance,
    witness_to_dict,
)
from repro.witness.divergence import single_row_term
from repro.workloads import dblp


def _witness_db(witness, catalog):
    """Rebuild a Database from the emitted witness tables."""
    return Database(
        catalog,
        {name: [list(row) for row in rows] for name, _, rows in witness.tables},
    )


def _parse(sql, catalog):
    return parse_query_extended(sql, catalog)


class TestSingleRowSpecialization:
    def test_aggregates_collapse(self, beers_catalog):
        query = _parse(
            "SELECT bar, COUNT(*), SUM(price), MAX(price) FROM Serves "
            "GROUP BY bar HAVING COUNT(DISTINCT beer) <= 1",
            beers_catalog,
        )
        count_star, sum_price, max_price = query.select[1:]
        assert str(single_row_term(count_star)) == "1"
        assert str(single_row_term(sum_price)) == "serves.price"
        assert str(single_row_term(max_price)) == "serves.price"


class TestGenerateWitness:
    def test_where_boundary_found_by_model(self, beers_catalog):
        target = _parse("SELECT beer FROM Serves WHERE price > 2", beers_catalog)
        wrong = _parse("SELECT beer FROM Serves WHERE price >= 2", beers_catalog)
        witness = generate_witness(beers_catalog, target, wrong, solver=Solver())
        assert witness is not None
        assert witness.source == "model"
        assert witness.stage == "WHERE"
        # The divergence needs a row exactly on the boundary.
        [(_, columns, rows)] = witness.tables
        price = rows[0][columns.index("price")]
        assert price == 2

    def test_witness_is_executor_verified(self, beers_catalog):
        target = _parse("SELECT beer FROM Serves WHERE price > 2", beers_catalog)
        wrong = _parse("SELECT beer FROM Serves WHERE price >= 2", beers_catalog)
        witness = generate_witness(beers_catalog, target, wrong, solver=Solver())
        database = _witness_db(witness, beers_catalog)
        assert not bag_equal(execute(wrong, database), execute(target, database))
        assert list(map(tuple, execute(wrong, database))) == list(
            witness.wrong_result
        )
        assert list(map(tuple, execute(target, database))) == list(
            witness.target_result
        )

    def test_count_distinct_needs_augmentation(self, beers_catalog):
        target = _parse(
            "SELECT bar, COUNT(DISTINCT beer) FROM Serves GROUP BY bar",
            beers_catalog,
        )
        wrong = _parse(
            "SELECT bar, COUNT(*) FROM Serves GROUP BY bar", beers_catalog
        )
        witness = generate_witness(beers_catalog, target, wrong, solver=Solver())
        assert witness is not None
        assert witness.source == "model"
        database = _witness_db(witness, beers_catalog)
        assert not bag_equal(execute(wrong, database), execute(target, database))

    def test_row_cap_applies_to_every_candidate(self, beers_catalog):
        # Only two rows of Serves split COUNT(*) from COUNT(DISTINCT beer),
        # so no candidate shrinks under a one-row cap.
        target = _parse(
            "SELECT bar, COUNT(DISTINCT beer) FROM Serves GROUP BY bar",
            beers_catalog,
        )
        wrong = _parse(
            "SELECT bar, COUNT(*) FROM Serves GROUP BY bar", beers_catalog
        )
        assert generate_witness(
            beers_catalog, target, wrong, solver=Solver(),
            max_rows_per_table=1,
        ) is None
        witness = generate_witness(beers_catalog, target, wrong, solver=Solver())
        assert witness.source == "model"
        assert witness.total_rows == witness.max_rows == 2

    def test_equivalent_queries_yield_none(self, beers_catalog):
        target = _parse("SELECT beer FROM Serves WHERE price > 2", beers_catalog)
        same = _parse("SELECT beer FROM Serves WHERE 2 < price", beers_catalog)
        assert generate_witness(
            beers_catalog, target, same, solver=Solver(), trials=50
        ) is None

    def test_from_mismatch_labelled_from(self, beers_catalog):
        target = _parse(
            "SELECT s.beer FROM Serves s, Likes l WHERE s.beer = l.beer",
            beers_catalog,
        )
        wrong = _parse("SELECT beer FROM Serves", beers_catalog)
        witness = generate_witness(beers_catalog, target, wrong, solver=Solver())
        assert witness is not None
        assert witness.stage == "FROM"

    def test_deterministic_per_seed(self, dblp_catalog):
        question = dblp.Q4
        target = _parse(question.correct_sql, dblp_catalog)
        wrong = _parse(question.wrong_sql, dblp_catalog)
        first = generate_witness(dblp_catalog, target, wrong, solver=Solver())
        second = generate_witness(dblp_catalog, target, wrong, solver=Solver())
        assert first == second

    @pytest.mark.parametrize("question", dblp.QUESTIONS, ids=lambda q: q.qid)
    def test_userstudy_questions_covered(self, dblp_catalog, question):
        target = _parse(question.correct_sql, dblp_catalog)
        wrong = _parse(question.wrong_sql, dblp_catalog)
        witness = generate_witness(dblp_catalog, target, wrong, solver=Solver())
        assert witness is not None
        assert witness.max_rows <= 3
        database = _witness_db(witness, dblp_catalog)
        assert not bag_equal(execute(wrong, database), execute(target, database))

    def test_rendering_roundtrips(self, beers_catalog):
        target = _parse("SELECT beer FROM Serves WHERE price > 2", beers_catalog)
        wrong = _parse("SELECT beer FROM Serves WHERE price >= 2", beers_catalog)
        witness = generate_witness(beers_catalog, target, wrong, solver=Solver())
        payload = witness_to_dict(witness)
        assert json.dumps(payload)  # JSON-safe
        assert payload["stage"] == "WHERE"
        lines = format_witness_lines(witness)
        assert any("Serves" in line or "serves" in line for line in lines)


class TestShrinker:
    def test_shrinks_to_local_minimum(self, beers_catalog):
        target = _parse("SELECT beer FROM Serves WHERE price > 2", beers_catalog)
        wrong = _parse("SELECT beer FROM Serves WHERE price >= 2", beers_catalog)
        bloated = Database(
            beers_catalog,
            {
                "Serves": [
                    ("b1", "ipa", 2), ("b2", "lager", 5),
                    ("b3", "stout", 1), ("b4", "pils", 2),
                ],
                "Likes": [("amy", "ipa")],
                "Frequents": [],
            },
        )

        def diverges(db):
            return results_differ(wrong, target, db)

        assert diverges(bloated)
        shrunk = shrink_instance(bloated, diverges)
        assert diverges(shrunk)
        assert sum(len(r) for r in shrunk.tables.values()) == 1
        [row] = shrunk.rows("serves")
        assert row["price"] == 2


class TestSessionWitness:
    TARGET = "SELECT beer FROM Serves WHERE price > 2"
    WRONG = "SELECT beer FROM Serves WHERE price >= 2"

    def test_grade_attaches_witness(self, beers_catalog):
        session = AssignmentSession(beers_catalog, self.TARGET)
        result = session.grade(self.WRONG, witness=True)
        assert isinstance(result.witness, Witness)
        assert result.witness.stage == "WHERE"
        assert "witness" in result.to_dict()
        assert "Counterexample instance" in result.text()

    def test_witness_cached_across_duplicates_and_aliases(self, beers_catalog):
        session = AssignmentSession(beers_catalog, self.TARGET)
        first = session.grade(self.WRONG, witness=True)
        second = session.grade(
            "select  BEER from serves WHERE price >= 2", witness=True
        )
        third = session.grade(
            "SELECT x.beer FROM Serves x WHERE x.price >= 2", witness=True
        )
        assert session.witness_runs == 1
        assert first.witness == second.witness
        # Same tables; only the alias-qualified assignment labels differ.
        assert third.witness.tables == first.witness.tables

    def test_no_witness_generation_for_correct_submission(self, beers_catalog):
        session = AssignmentSession(beers_catalog, self.TARGET)
        result = session.grade(self.TARGET, witness=True)
        assert result.all_passed and result.witness is None
        assert session.witness_runs == 0

    def test_negative_result_cached(self, beers_catalog):
        # A wrong-but-unwitnessable pair: force failure via trials budget by
        # reusing an equivalent-but-differently-written pair graded wrong at
        # the DISTINCT stage.
        session = AssignmentSession(
            beers_catalog, "SELECT DISTINCT beer FROM Serves"
        )
        sql = "SELECT beer FROM Serves"
        first = session.grade(sql, witness=True)
        second = session.grade(sql, witness=True)
        assert session.witness_runs == 1
        assert first.witness == second.witness

    def test_disabled_witness_keeps_output_identical(self, beers_catalog):
        plain = AssignmentSession(beers_catalog, self.TARGET)
        enabled = AssignmentSession(beers_catalog, self.TARGET)
        without = plain.grade(self.WRONG)
        with_witness = enabled.grade(self.WRONG, witness=True)
        assert without.witness is None
        assert "witness" not in without.to_dict()
        # The hint payloads agree exactly; only the witness rides along.
        stripped = dict(with_witness.to_dict())
        stripped.pop("witness")
        base = without.to_dict()
        base.pop("elapsed"), stripped.pop("elapsed")
        assert base == stripped
        assert with_witness.text().startswith(without.text())

    def test_batch_results_carry_no_witness(self, beers_catalog):
        batch = grade_batch(
            beers_catalog, self.TARGET, [self.WRONG, self.WRONG]
        )
        assert all(result.witness is None for result in batch.results)


class TestAliasRoundTrips:
    def test_student_alias_colliding_with_canonical_prefix(self, beers_catalog):
        # The student's own alias is literally `_s1` on the FIRST entry:
        # canonicalization must still be invertible.
        query = _parse(
            "SELECT _s1.beer FROM Serves _s1, Likes _s0 "
            "WHERE _s1.beer = _s0.beer AND _s1.price >= 2",
            beers_catalog,
        )
        canonical, mapping = canonicalize(query)
        assert mapping == {"_s1": "_s0", "_s0": "_s1"}
        inverse = {canon: orig for orig, canon in mapping.items()}
        assert canonical.rename_aliases(inverse) == query

    def test_swapped_canonical_aliases_roundtrip(self, beers_catalog):
        query = _parse(
            "SELECT _s0.beer FROM Likes _s2, Serves _s0 "
            "WHERE _s0.beer = _s2.beer",
            beers_catalog,
        )
        canonical, mapping = canonicalize(query)
        inverse = {canon: orig for orig, canon in mapping.items()}
        assert canonical.rename_aliases(inverse) == query

    def test_hints_rendered_in_submitter_namespace(self, beers_catalog):
        session = AssignmentSession(
            beers_catalog, "SELECT s.beer FROM Serves s WHERE s.price > 2"
        )
        result = session.grade(
            "SELECT _s7.beer FROM Serves _s7 WHERE _s7.price >= 2"
        )
        assert any("_s7.price" in h.message for h in result.hints)
        assert "_s0" not in result.final_sql

    def test_witness_assignments_survive_inverse_remap(self, beers_catalog):
        session = AssignmentSession(
            beers_catalog, "SELECT s.beer FROM Serves s WHERE s.price > 2"
        )
        result = session.grade(
            "SELECT mytab.beer FROM Serves mytab WHERE mytab.price >= 2",
            witness=True,
        )
        assert result.witness is not None
        cells = witness_to_dict(result.witness)["assignments"]
        assert any(a.startswith("mytab.price") for a in cells)
        assert not any("_s0" in a for a in cells)

    def test_witness_remap_handles_canonical_style_submitter_alias(
        self, beers_catalog
    ):
        session = AssignmentSession(
            beers_catalog, "SELECT s.beer FROM Serves s WHERE s.price > 2"
        )
        result = session.grade(
            "SELECT _s3.beer FROM Serves _s3 WHERE _s3.price >= 2",
            witness=True,
        )
        cells = witness_to_dict(result.witness)["assignments"]
        assert any(a.startswith("_s3.price") for a in cells)

    def test_column_named_like_a_canonical_alias(self):
        # The session renames the hint and witness data, not their text:
        # a column called ``_s0`` is not the canonical alias ``_s0``.
        catalog = Catalog.from_spec(
            {"Items": [["name", "STRING"], ["_s0", "INT"]]}
        )
        target = "SELECT i.name FROM Items i WHERE i._s0 > 5"
        sql = "SELECT it.name FROM Items it WHERE it._s0 > 7"
        result = AssignmentSession(catalog, target).grade(sql, witness=True)
        witness = generate_witness(
            catalog, _parse(target, catalog), _parse(sql, catalog)
        )
        one_shot = format_report(
            grade(catalog, target, sql), show_fixes=True, witness=witness
        )
        assert result.text(show_fixes=True) == one_shot
        assert "`it._s0 > 7`" in one_shot
        assert "fix: it._s0 > 7  ->  it._s0 > 5" in one_shot
        assert witness_to_dict(result.witness)["assignments"] == ["it._s0 = 6"]
        assert result.witness == witness


class TestDatagenSeeding:
    def test_explicit_instance_seed_is_stream_independent(self, beers_catalog):
        fresh = DataGenerator(beers_catalog, seed=0)
        consumed = DataGenerator(beers_catalog, seed=0)
        list(consumed.instances(5))  # advance the shared stream
        a = fresh.random_instance(seed=42)
        b = consumed.random_instance(seed=42)
        assert a.tables == b.tables

    def test_seeded_instances_reproducible(self, beers_catalog):
        gen = DataGenerator(beers_catalog, seed=0)
        first = [db.tables for db in gen.instances(3, seed=7)]
        second = [db.tables for db in gen.instances(3, seed=7)]
        assert first == second

    def test_witness_seed_threaded_through(self, beers_catalog):
        target = _parse("SELECT beer FROM Serves WHERE price > 2", beers_catalog)
        wrong = _parse("SELECT beer FROM Serves WHERE price >= 2", beers_catalog)
        a = generate_witness(beers_catalog, target, wrong, solver=Solver(), seed=9)
        b = generate_witness(beers_catalog, target, wrong, solver=Solver(), seed=9)
        assert a == b


SCHEMA = {"Serves": [["bar", "STRING"], ["beer", "STRING"], ["price", "FLOAT"]]}
TARGET = "SELECT beer FROM Serves WHERE price > 2"
WRONG = "SELECT beer FROM Serves WHERE price >= 2"


@pytest.fixture()
def witness_server(start_server):
    server, _ = start_server()
    return server.server_address[:2]


def _post(host, port, path, payload):
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request(
            "POST", path, json.dumps(payload).encode(),
            {"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def _raw_post(host, port, path, headers, body=b""):
    """POST with full control over headers (to omit/malform Content-Length)."""
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.putrequest("POST", path)
        for name, value in headers.items():
            conn.putheader(name, value)
        conn.endheaders()
        if body:
            conn.send(body)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


class TestHttpWitness:
    def _create(self, host, port):
        status, body = _post(
            host, port, "/assignments",
            {"schema": SCHEMA, "target_sql": TARGET},
        )
        assert status == 201
        return body["assignment_id"]

    def test_witness_endpoint(self, witness_server):
        host, port = witness_server
        aid = self._create(host, port)
        status, body = _post(
            host, port, "/witness", {"assignment_id": aid, "sql": WRONG}
        )
        assert status == 200
        assert body["found"] and not body["all_passed"]
        assert body["witness"]["stage"] == "WHERE"
        assert body["witness"]["tables"][0]["rows"]

    def test_witness_endpoint_correct_submission(self, witness_server):
        host, port = witness_server
        aid = self._create(host, port)
        status, body = _post(
            host, port, "/witness", {"assignment_id": aid, "sql": TARGET}
        )
        assert status == 200
        assert body["all_passed"] and not body["found"]
        assert body["witness"] is None

    def test_witness_endpoint_unknown_assignment_404(self, witness_server):
        host, port = witness_server
        status, body = _post(
            host, port, "/witness", {"assignment_id": "missing", "sql": WRONG}
        )
        assert status == 404
        assert "missing" in body["error"]

    def test_grade_accepts_witness_flag(self, witness_server):
        host, port = witness_server
        aid = self._create(host, port)
        status, body = _post(
            host, port, "/grade",
            {"assignment_id": aid, "sql": WRONG, "witness": True},
        )
        assert status == 200
        assert body["witness"]["stage"] == "WHERE"
        status, body = _post(
            host, port, "/grade", {"assignment_id": aid, "sql": WRONG}
        )
        assert status == 200
        assert "witness" not in body


class TestHttpHardening:
    def test_oversized_body_413(self, witness_server):
        host, port = witness_server
        status, body = _raw_post(
            host, port, "/grade",
            {"Content-Length": str(50_000_000),
             "Content-Type": "application/json"},
        )
        assert status == 413
        assert "too large" in body["error"]

    def test_malformed_content_length_400(self, witness_server):
        host, port = witness_server
        status, body = _raw_post(
            host, port, "/grade",
            {"Content-Length": "not-a-number",
             "Content-Type": "application/json"},
        )
        assert status == 400
        assert "malformed Content-Length" in body["error"]

    def test_negative_content_length_400(self, witness_server):
        host, port = witness_server
        status, body = _raw_post(
            host, port, "/grade",
            {"Content-Length": "-5", "Content-Type": "application/json"},
        )
        assert status == 400
        assert "malformed Content-Length" in body["error"]

    def test_absent_content_length_400(self, witness_server):
        host, port = witness_server
        status, body = _raw_post(
            host, port, "/grade", {"Content-Type": "application/json"}
        )
        assert status == 400
        assert "missing Content-Length" in body["error"]

    def test_server_survives_hardening_rejections(self, witness_server):
        host, port = witness_server
        _raw_post(host, port, "/grade", {"Content-Length": "bogus"})
        status, body = _post(
            host, port, "/assignments",
            {"schema": SCHEMA, "target_sql": TARGET},
        )
        assert status == 201


class TestUserstudyWitnessPinned:
    """Userstudy Q1-Q4 grades with witnesses, pinned byte for byte.

    Their witnesses come from ``Solver.find_model``, so the rendered
    text depends on the SAT search order (decision order, default
    phase, watch placement) and on what the solver's theory caches hold
    when the witness is built; this keeps any change to it visible.
    """

    EXPECTED = {
        "Q1": (
            '[WHERE]\n'
            '  - In WHERE, there is a problem with `(a.year + 20) > d.year`. Think through some concrete examples and see how you may fix it.\n'
            '    fix: (a.year + 20) > d.year  ->  (b.year = d.year AND a.year = c.year AND (a.year + 20) >= b.year)\n'
            '\n'
            'Query after applying all repairs:\n'
            '  SELECT e.author FROM conference_paper a, authorship e, conference_paper b, authorship f, journal_paper c, authorship g, journal_paper d, authorship h WHERE (a.pubkey = e.pubkey AND b.pubkey = g.pubkey AND c.pubkey = f.pubkey AND e.author = h.author AND d.pubkey = h.pubkey AND e.author = g.author AND f.author = h.author AND (b.year = d.year AND a.year = c.year AND (a.year + 20) >= b.year)) GROUP BY e.author\n'
            '\n'
            'Counterexample instance (3 row(s); divergence first visible in WHERE):\n'
            '  authorship(pubkey, author)\n'
            '    (Amy, Amy)\n'
            '  conference_paper(pubkey, title, conference_name, year, area)\n'
            '    (Amy, Amy, Bob, 20, Bob)\n'
            '  journal_paper(pubkey, title, journal_name, year)\n'
            '    (Amy, Amy, Bob, 22)\n'
            '  your query returns:      (Amy)\n'
            '  reference query returns: (no rows)'
        ),
        "Q3": (
            '[WHERE]\n'
            '  - In WHERE, there is a problem with `conference_paper.pubkey = authorship.pubkey`. Think through some concrete examples and see how you may fix it.\n'
            "    fix: conference_paper.pubkey = authorship.pubkey  ->  (b.author = authorship.author AND conference_paper.year = a.year AND a.area <> conference_paper.area AND a.area <> 'UNKNOWN' AND conference_paper.area <> 'UNKNOWN' AND conference_paper.pubkey = b.pubkey AND a.pubkey = authorship.pubkey)\n"
            '  - In WHERE, there is a problem with `a.pubkey = b.pubkey`. Think through some concrete examples and see how you may fix it.\n'
            '    fix: a.pubkey = b.pubkey  ->  (conference_paper.pubkey = b.pubkey AND a.pubkey = authorship.pubkey)\n'
            '\n'
            'Query after applying all repairs:\n'
            "  SELECT b.author FROM conference_paper, authorship b, conference_paper a, authorship WHERE (((b.author = authorship.author AND conference_paper.year = a.year AND a.area <> conference_paper.area AND a.area <> 'UNKNOWN' AND conference_paper.area <> 'UNKNOWN' AND conference_paper.pubkey = b.pubkey AND a.pubkey = authorship.pubkey) AND a.year < 2015) OR (a.year > 2015 AND b.author = authorship.author AND (conference_paper.pubkey = b.pubkey AND a.pubkey = authorship.pubkey) AND conference_paper.year = a.year AND a.area <> conference_paper.area AND a.area <> 'UNKNOWN' AND conference_paper.area <> 'UNKNOWN')) GROUP BY b.author\n"
            '\n'
            'Counterexample instance (3 row(s); divergence first visible in WHERE):\n'
            '  authorship(pubkey, author)\n'
            '    (Amy, Amy)\n'
            '  conference_paper(pubkey, title, conference_name, year, area)\n'
            '    (Bob, Amy, Bob, 2014, Bob)\n'
            '    (Amy, UNKNOWN, UNKNOWN, 2016, Amy)\n'
            '  your query returns:      (Amy)\n'
            '  reference query returns: (no rows)'
        ),
        "Q2": (
            '[GROUP BY]\n'
            '  - In GROUP BY, `authorship.author` is incorrect -- it splits rows that should stay in the same group.\n'
            '[SELECT]\n'
            '  - In SELECT, the expression at position 3 (`COUNT(*)`) does not produce the right values.\n'
            '\n'
            'Query after applying all repairs:\n'
            "  SELECT a.author, conference_paper.year, COUNT(DISTINCT authorship.author) FROM conference_paper, authorship, authorship a WHERE (conference_paper.pubkey = a.pubkey AND authorship.pubkey = a.pubkey AND a.author <> authorship.author AND conference_paper.year < 2018 AND conference_paper.area = 'Database' AND conference_paper.year < 2018) GROUP BY a.author, conference_paper.area, conference_paper.year\n"
            '\n'
            'Counterexample instance (4 row(s); divergence first visible in SELECT):\n'
            '  authorship(pubkey, author)\n'
            '    (w2, w0)\n'
            '    (w2, w1)\n'
            '    (w2, w0)\n'
            '  conference_paper(pubkey, title, conference_name, year, area)\n'
            '    (w2, Amy, Database, 0, Database)\n'
            '  your query returns:      (w0, 0, 2), (w1, 0, 2)\n'
            '  reference query returns: (w0, 0, 1), (w1, 0, 1)'
        ),
        "Q4": (
            '[WHERE]\n'
            "  - In WHERE, there is a problem with `conference_paper.area = 'System'`. Think through some concrete examples and see how you may fix it.\n"
            "    fix: conference_paper.area = 'System'  ->  conference_paper.area = 'Systems'\n"
            '[HAVING]\n'
            '  - In HAVING, there is a problem with `COUNT(DISTINCT a.author) <= 1`. Think through some concrete examples and see how you may fix it.\n'
            '    fix: COUNT(DISTINCT a.author) <= 1  ->  COUNT(DISTINCT authorship.author) <= 1\n'
            '\n'
            'Query after applying all repairs:\n'
            "  SELECT a.author FROM authorship, conference_paper, authorship a WHERE (conference_paper.pubkey = a.pubkey AND a.pubkey = authorship.pubkey AND conference_paper.area = 'Systems') GROUP BY a.author, conference_paper.area HAVING COUNT(DISTINCT authorship.author) <= 1\n"
            '\n'
            'Counterexample instance (2 row(s); divergence first visible in HAVING):\n'
            '  authorship(pubkey, author)\n'
            '    (w0, Bob)\n'
            '  conference_paper(pubkey, title, conference_name, year, area)\n'
            '    (w0, Amy, Bob, 2, Systems)\n'
            '  your query returns:      (no rows)\n'
            '  reference query returns: (Bob)'
        ),
    }

    def test_q2_q4_text_with_witness(self):
        for question in dblp.QUESTIONS:
            if question.qid not in self.EXPECTED:
                continue
            session = AssignmentSession(dblp.catalog(), question.correct_sql)
            result = session.grade(question.wrong_sql, witness=True)
            assert result.text(show_fixes=True) == (
                self.EXPECTED[question.qid]
            ), question.qid

    def test_corpus_self_comparison_witness(self):
        # The corpus's US-Q2 mutant whose WHERE compares t2.author with
        # itself.  Its witness comes from the solver-model path, which no
        # benchmark digest covers, and it moves with the theory cores.
        wrong = (
            "SELECT t1.area, t1.year, COUNT(DISTINCT t3.author) "
            "FROM conference_paper t1, authorship t2, authorship t3 "
            "WHERE (t1.pubkey = t2.pubkey AND t3.pubkey = t1.pubkey "
            "AND t2.author <> t2.author AND t1.year < 2018 "
            "AND t1.area = 'Database') GROUP BY t2.author, t1.year"
        )
        session = AssignmentSession(dblp.catalog(), dblp.Q2.correct_sql)
        result = session.grade(wrong, witness=True)
        assert result.witness.tables == (
            ("authorship", ("pubkey", "author"),
             (("w2", "w0"), ("w2", "w1"))),
            ("conference_paper",
             ("pubkey", "title", "conference_name", "year", "area"),
             (("w2", "Amy", "Database", Fraction(0), "Database"),)),
        )
