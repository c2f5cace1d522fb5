"""Tests for the service layer: cache, sessions, batch grading, HTTP API."""

import json
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.pipeline import grade
from repro.errors import ParseError
from repro.obs import REGISTRY, TRACER
from repro.service import (
    ArtifactCache,
    AssignmentSession,
    GradeError,
    canonical_key,
    canonicalize,
    grade_batch,
)
from repro.service.session import format_report
from repro.sqlparser.rewrite import parse_query_extended
from repro.witness import witness_to_dict
from repro.workloads import dblp, userstudy

TARGET = "SELECT beer FROM Serves WHERE price > 2"
WRONG = "SELECT beer FROM Serves WHERE price >= 2"
#: ``²`` is a digit to ``str.isdigit`` but not a decimal one.
SUPERSCRIPT = "SELECT beer FROM Serves WHERE price > 1²"


class TestArtifactCache:
    def test_hit_miss_counters(self):
        cache = ArtifactCache(maxsize=4)
        assert cache.get("k") is None
        cache.put("k", "v")
        assert cache.get("k") == "v"
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_lru_eviction_order(self):
        cache = ArtifactCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b is now LRU
        cache.put("c", 3)
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert cache.evictions == 1

    def test_maxsize_validated(self):
        with pytest.raises(ValueError):
            ArtifactCache(maxsize=0)


class TestCanonicalization:
    def test_formatting_variants_share_key(self, beers_catalog):
        a = parse_query_extended(WRONG, beers_catalog)
        b = parse_query_extended(
            "select  BEER\n  from serves\n  WHERE  price >= 2", beers_catalog
        )
        assert canonical_key(a) == canonical_key(b)

    def test_alpha_equivalent_aliases_share_key(self, beers_catalog):
        a = parse_query_extended(
            "SELECT x.beer FROM Serves x WHERE x.price >= 2", beers_catalog
        )
        b = parse_query_extended(
            "SELECT y.beer FROM Serves y WHERE y.price >= 2", beers_catalog
        )
        assert canonical_key(a) == canonical_key(b)
        assert a != b  # only the canonical forms coincide

    def test_different_predicates_differ(self, beers_catalog):
        a = parse_query_extended(WRONG, beers_catalog)
        b = parse_query_extended(
            "SELECT beer FROM Serves WHERE price > 3", beers_catalog
        )
        assert canonical_key(a) != canonical_key(b)

    def test_canonicalize_is_structure_preserving(self, beers_catalog):
        # Or-of-Ands must keep its exact nesting: the repaired query is
        # rendered back to the submitter through the inverse rename.
        sql = ("SELECT v.beer FROM Serves v WHERE "
               "(v.bar = 'Joyce' AND v.price > 2) OR "
               "(v.bar = 'Taproom' AND v.price > 3)")
        query = parse_query_extended(sql, beers_catalog)
        canonical, mapping = canonicalize(query)
        assert mapping == {"v": "_s0"}
        inverse = {"_s0": "v"}
        assert canonical.rename_aliases(inverse) == query


class TestAssignmentSession:
    def test_duplicate_submission_is_cached(self, beers_catalog):
        session = AssignmentSession(beers_catalog, TARGET)
        first = session.grade(WRONG)
        second = session.grade("select  beer from serves WHERE price >= 2")
        assert not first.cached and second.cached
        assert first.text() == second.text()
        assert session.cache.stats()["hits"] == 1
        assert session.pipeline_runs == 1

    def test_remap_leaves_string_literals_alone(self, beers_catalog):
        # A submission may contain the canonical alias spelling as *data*;
        # hints quote the student's literal verbatim.
        session = AssignmentSession(
            beers_catalog, "SELECT s.beer FROM Serves s WHERE s.bar = 'Joe'"
        )
        result = session.grade("SELECT x.beer FROM Serves x WHERE x.bar = '_s0'")
        assert "x.bar = '_s0'" in result.text()
        direct = format_report(
            grade(
                beers_catalog,
                "SELECT s.beer FROM Serves s WHERE s.bar = 'Joe'",
                "SELECT x.beer FROM Serves x WHERE x.bar = '_s0'",
            )
        )
        assert result.text() == direct

    def test_alpha_hit_remaps_to_submitter_aliases(self, beers_catalog):
        session = AssignmentSession(beers_catalog, TARGET)
        session.grade("SELECT x.beer FROM Serves x WHERE x.price >= 2")
        result = session.grade("SELECT y.beer FROM Serves y WHERE y.price >= 2")
        assert result.cached
        text = result.text()
        assert "y.price" in text
        assert "x.price" not in text and "_s0" not in text

    def test_from_repair_alias_collision_disambiguated(self, beers_catalog):
        # The FROM repair adds the missing Likes table under a fresh alias
        # chosen in the canonical namespace; mapping _s0 back to the
        # submitter's alias 'likes' must not collide with it (that would
        # merge the two FROM entries and turn the join into a tautology).
        target = ("SELECT likes.drinker FROM Likes likes, Serves serves "
                  "WHERE likes.beer = serves.beer AND serves.price < 3")
        submission = "SELECT likes.bar FROM Serves likes WHERE likes.price < 3"
        session = AssignmentSession(beers_catalog, target)
        result = session.grade(submission)
        direct = grade(beers_catalog, target, submission)
        assert result.final_sql == direct.final_query.to_sql()
        assert "likes.beer = likes.beer" not in result.final_sql

    def test_matches_one_shot_pipeline_output(self, beers_catalog):
        session = AssignmentSession(beers_catalog, TARGET)
        direct = format_report(grade(beers_catalog, TARGET, WRONG))
        assert session.grade(WRONG).text() == direct

    def test_equivalent_submission_passes(self, beers_catalog):
        session = AssignmentSession(beers_catalog, TARGET)
        result = session.grade("SELECT serves.beer FROM Serves WHERE 2 < price")
        assert result.all_passed
        assert "already equivalent" in result.text()

    def test_parse_error_propagates(self, beers_catalog):
        session = AssignmentSession(beers_catalog, TARGET)
        with pytest.raises(ParseError):
            session.grade("SELEKT nope")

    def test_non_decimal_digit_is_a_parse_error(self, beers_catalog):
        session = AssignmentSession(beers_catalog, TARGET)
        with pytest.raises(ParseError, match="unexpected trailing input '²'"):
            session.grade(SUPERSCRIPT)

    def test_solver_stats_are_session_deltas(self, beers_catalog):
        shared_solver_session = AssignmentSession(beers_catalog, TARGET)
        shared_solver_session.grade(WRONG)
        fresh = AssignmentSession(
            beers_catalog, TARGET, solver=shared_solver_session.solver
        )
        assert fresh.solver_stats()["sat_calls"] == 0
        fresh.grade("SELECT beer FROM Serves WHERE price >= 3")
        assert fresh.solver_stats()["sat_calls"] > 0

    def test_stats_shape(self, beers_catalog):
        session = AssignmentSession(beers_catalog, TARGET, assignment_id="hw1")
        session.grade(WRONG)
        stats = session.stats()
        assert stats["assignment_id"] == "hw1"
        assert stats["submissions"] == 1
        assert stats["pipeline_runs"] == 1
        assert 0.0 <= stats["solver"]["cache_hit_rate"] <= 1.0


class TestBatchGrading:
    @pytest.fixture(scope="class")
    def question(self):
        return next(q for q in dblp.QUESTIONS if q.qid == "Q4")

    @pytest.fixture(scope="class")
    def pool(self, question):
        return userstudy.submission_pool(question, count=30, seed=7)

    def test_batch_matches_sequential_one_shot(self, dblp_catalog, question, pool):
        sequential = [
            format_report(grade(dblp_catalog, question.correct_sql, sql))
            for sql in pool
        ]
        batch = grade_batch(dblp_catalog, question.correct_sql, pool)
        assert [r.text() for r in batch.results] == sequential

    def test_duplicate_heavy_pool_hits_cache(self, dblp_catalog, question, pool):
        batch = grade_batch(dblp_catalog, question.correct_sql, pool)
        assert batch.unique < len(pool) // 2
        assert batch.cache_hit_rate > 0.5
        assert batch.stats()["solver"]["sat_calls"] > 0

    def test_only_the_first_copy_of_a_form_graded_here_is_uncached(
        self, dblp_catalog, question
    ):
        batch = grade_batch(
            dblp_catalog, question.correct_sql, [question.wrong_sql] * 6
        )
        assert batch.unique == 1
        assert [r.cached for r in batch.results] == [False] + [True] * 5

    def test_bad_submissions_become_grade_errors(self, dblp_catalog, question):
        pool = [question.wrong_sql, "SELEKT nope", question.wrong_sql]
        batch = grade_batch(dblp_catalog, question.correct_sql, pool)
        assert batch.errors == 1
        assert isinstance(batch.results[1], GradeError)
        assert batch.results[1].kind == "ParseError"
        assert batch.results[0].text() == batch.results[2].text()

    def test_non_decimal_digit_fails_only_its_submission(self, beers_catalog):
        batch = grade_batch(beers_catalog, TARGET, [WRONG, SUPERSCRIPT, TARGET])
        assert batch.errors == 1
        assert batch.results[1].kind == "ParseError"
        assert not batch.results[0].all_passed and batch.results[2].all_passed

    def test_grade_metrics_agree_with_result_flags(self, beers_catalog):
        grades = REGISTRY.get("repro_grades_total")
        seconds = REGISTRY.get("repro_grade_seconds")
        labels = ("false", "true")
        before = [(grades.value(cached=c), seconds.count(cached=c))
                  for c in labels]
        with TRACER.trace("batch") as handle:
            batch = grade_batch(beers_catalog, TARGET, [WRONG] * 3)
        after = [(grades.value(cached=c), seconds.count(cached=c))
                 for c in labels]
        assert [r.cached for r in batch.results] == [False, True, True]
        assert [(a[0] - b[0], a[1] - b[1])
                for a, b in zip(after, before)] == [(1, 1), (2, 2)]
        assert [span["attrs"]["cached"] for span in handle.to_dict()["spans"]
                if span["name"] == "session.grade"] == [False, True, True]

    def test_form_evicted_before_it_is_served_is_graded_again(
        self, beers_catalog
    ):
        # The caller's full cache evicts the oldest form it held while
        # the batch puts the forms it grades.
        session = AssignmentSession(beers_catalog, TARGET, cache_size=20)
        held = [f"SELECT beer FROM Serves WHERE price > {i}" for i in range(20)]
        for sql in held:
            session.grade(sql)
        fresh = [f"SELECT beer FROM Serves WHERE price < {i}" for i in range(5)]
        runs = session.pipeline_runs
        batch = grade_batch(
            beers_catalog, TARGET, [held[0]] + fresh, session=session
        )
        assert batch.errors == 0 and batch.unique == 5
        assert session.pipeline_runs == runs + 6
        assert [r.cached for r in batch.results] == [False] * 6
        assert batch.results[0].text() == format_report(
            grade(beers_catalog, TARGET, held[0])
        )

    def test_unrepairable_submission_does_not_abort_batch(self, beers_catalog):
        # max_sites=0 makes any needed repair unviable (RepairError); the
        # rest of the pile must still grade.
        target = "SELECT beer FROM Serves WHERE price > 2 AND bar = 'Joyce'"
        equivalent = "SELECT serves.beer FROM Serves WHERE 2 < price AND bar = 'Joyce'"
        unrepairable = "SELECT beer FROM Serves WHERE price < 1 OR bar = 'Moe'"
        batch = grade_batch(
            beers_catalog,
            target,
            [equivalent, unrepairable, equivalent],
            max_sites=0,
        )
        assert batch.errors == 1
        assert isinstance(batch.results[1], GradeError)
        assert batch.results[1].kind == "RepairError"
        assert batch.results[0].all_passed and batch.results[2].all_passed

    def test_hit_rate_stays_sane_when_unique_forms_fail(self, beers_catalog):
        target = "SELECT beer FROM Serves WHERE price > 2 AND bar = 'Joyce'"
        equivalent = "SELECT serves.beer FROM Serves WHERE 2 < price AND bar = 'Joyce'"
        pool = [
            equivalent,
            "SELECT beer FROM Serves WHERE price < 1 OR bar = 'Moe'",
            "SELECT beer FROM Serves WHERE price < 1 OR bar = 'Zed'",
            equivalent,
        ]
        batch = grade_batch(beers_catalog, target, pool, max_sites=0)
        assert batch.unique == 3 and batch.unique_failed == 2
        assert batch.errors == 2
        # 2 graded submissions over 1 successful form -> 50%, never negative.
        assert batch.cache_hit_rate == 0.5

    def test_serial_path_records_unexpected_failures(
        self, beers_catalog, monkeypatch
    ):
        # A failure outside ReproError fails only its own form, with its
        # kind and innermost frame.
        target = "SELECT beer FROM Serves WHERE price > 2"
        pool = [f"SELECT beer FROM Serves WHERE price > {i}" for i in range(4)]
        bad, _ = AssignmentSession(beers_catalog, target).prepare(pool[1])
        original = AssignmentSession.grade_canonical

        def flaky(session, canonical, deadline=None):
            if canonical == bad:
                raise RuntimeError("boom")
            return original(session, canonical, deadline)

        monkeypatch.setattr(AssignmentSession, "grade_canonical", flaky)
        batch = grade_batch(beers_catalog, target, pool)
        failure = batch.results[1]
        assert isinstance(failure, GradeError)
        assert (failure.kind, failure.error) == ("RuntimeError", "boom")
        assert failure.detail.endswith("in flaky")
        assert batch.errors == 1 and batch.unique_failed == 1
        assert batch.results[2].all_passed

    def test_format_variant_preserves_multiword_literals(self):
        from repro.workloads.userstudy import _format_variant
        import random

        sql = "SELECT t.a FROM T t WHERE t.city = 'New York'  AND t.a > 1"
        for seed in range(20):
            assert "'New York'" in _format_variant(sql, random.Random(seed))


class _Client:
    def __init__(self, base):
        self.base = base

    def post(self, path, payload):
        request = urllib.request.Request(
            self.base + path,
            json.dumps(payload).encode(),
            {"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    def get(self, path):
        try:
            with urllib.request.urlopen(self.base + path) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())


@pytest.fixture()
def client(start_server):
    return _Client(start_server()[1])


SCHEMA = {"Serves": [["bar", "STRING"], ["beer", "STRING"], ["price", "FLOAT"]]}


class TestHttpServer:
    def _create(self, client, **extra):
        return client.post(
            "/assignments",
            {"schema": SCHEMA, "target_sql": TARGET, **extra},
        )

    def test_create_and_grade(self, client):
        status, created = self._create(client)
        assert status == 201
        aid = created["assignment_id"]
        status, body = client.post("/grade", {"assignment_id": aid, "sql": WRONG})
        assert status == 200
        assert not body["all_passed"]
        assert any(s["stage"] == "WHERE" and s["hints"] for s in body["stages"])
        assert "[WHERE]" in body["text"]

    def test_cache_hit_on_duplicate(self, client):
        _, created = self._create(client)
        aid = created["assignment_id"]
        _, first = client.post("/grade", {"assignment_id": aid, "sql": WRONG})
        _, second = client.post(
            "/grade",
            {"assignment_id": aid, "sql": "select beer  from Serves where price >= 2"},
        )
        assert not first["cached"] and second["cached"]
        assert first["text"] == second["text"]

    def test_unknown_assignment_404(self, client):
        status, body = client.post(
            "/grade", {"assignment_id": "nope", "sql": WRONG}
        )
        assert status == 404 and "error" in body

    def test_parse_error_400(self, client):
        _, created = self._create(client)
        status, body = client.post(
            "/grade",
            {"assignment_id": created["assignment_id"], "sql": "SELEKT"},
        )
        assert status == 400 and body["kind"] == "ParseError"

    def test_non_decimal_digit_400(self, client):
        _, created = self._create(client)
        status, body = client.post(
            "/grade",
            {"assignment_id": created["assignment_id"], "sql": SUPERSCRIPT},
        )
        assert status == 400 and body["kind"] == "ParseError"

    def test_duplicate_assignment_id_409(self, client):
        assert self._create(client, assignment_id="hw")[0] == 201
        assert self._create(client, assignment_id="hw")[0] == 409

    def test_non_string_assignment_id_400(self, client):
        # A dict id used to answer 500 (unhashable), and an int id 201
        # for an assignment POST /grade, which needs a string, never reaches.
        for bad in ({"x": 1}, 5):
            status, body = self._create(client, assignment_id=bad)
            assert status == 400, (bad, body)
            assert "assignment_id must be a string" in body["error"]
        _, stats = client.get("/stats")
        assert stats["assignments"] == {}

    def test_malformed_schema_400_not_500(self, client):
        status, body = client.post(
            "/assignments",
            {"schema": {"Serves": [["beer", "str"]]}, "target_sql": TARGET},
        )
        assert status == 400 and "invalid schema" in body["error"]
        status, _ = client.post(
            "/assignments", {"schema": {"Serves": "oops"}, "target_sql": TARGET}
        )
        assert status == 400

    def test_out_of_range_cache_size_400(self, client):
        for bad in (0, -1, float("inf")):
            status, body = self._create(client, cache_size=bad)
            assert status == 400 and "cache_size" in body["error"], bad

    def test_out_of_range_max_sites_400(self, client):
        for bad in (-1, float("inf")):
            status, body = self._create(client, max_sites=bad)
            assert status == 400 and "max_sites" in body["error"], bad

    def test_bad_json_400(self, client):
        request = urllib.request.Request(
            client.base + "/grade", b"not json", {"Content-Type": "application/json"}
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400

    def test_stats_endpoint(self, client):
        _, created = self._create(client)
        aid = created["assignment_id"]
        client.post("/grade", {"assignment_id": aid, "sql": WRONG})
        client.post("/grade", {"assignment_id": aid, "sql": WRONG})
        status, stats = client.get("/stats")
        assert status == 200
        entry = stats["assignments"][aid]
        assert entry["submissions"] == 2
        assert entry["cache"]["hits"] == 1

    def test_stats_endpoint_reports_cdcl_counters(self, client):
        _, created = self._create(client)
        aid = created["assignment_id"]
        client.post("/grade", {"assignment_id": aid, "sql": WRONG})
        _, stats = client.get("/stats")
        solver_stats = stats["assignments"][aid]["solver"]
        for key in ("conflicts", "propagations",
                    "theory_cache_hits", "learned_clauses"):
            assert key in solver_stats, key

    def test_keep_alive_survives_404_with_body(self, client):
        # A 404 must drain the unread body or the next request on the
        # persistent connection is parsed out of the leftover bytes.
        import http.client
        from urllib.parse import urlsplit

        netloc = urlsplit(client.base).netloc
        conn = http.client.HTTPConnection(netloc, timeout=5)
        try:
            conn.request(
                "POST", "/nope", body=b'{"x": 1}',
                headers={"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            assert resp.status == 404
            resp.read()
            conn.request("GET", "/healthz")
            resp = conn.getresponse()
            assert resp.status == 200
            assert json.loads(resp.read()) == {"ok": True}
        finally:
            conn.close()

    def test_concurrent_grades_are_consistent(self, client):
        _, created = self._create(client)
        aid = created["assignment_id"]
        submissions = [WRONG, "select beer from serves where PRICE >= 2"] * 8

        def hit(sql):
            return client.post("/grade", {"assignment_id": aid, "sql": sql})

        with ThreadPoolExecutor(max_workers=8) as pool:
            responses = list(pool.map(hit, submissions))
        assert all(status == 200 for status, _ in responses)
        texts = {body["text"] for _, body in responses}
        assert len(texts) == 1  # every duplicate got the identical hint block
        _, stats = client.get("/stats")
        entry = stats["assignments"][aid]
        assert entry["submissions"] == len(submissions)
        assert entry["pipeline_runs"] == 1  # one solve, 15 cache serves


def _get_text(client, path):
    """Fetch ``path`` raw (``_Client.get`` JSON-decodes the body)."""
    with urllib.request.urlopen(client.base + path) as resp:
        return resp.status, resp.headers.get("Content-Type"), resp.read().decode()


def _scrape(client):
    from repro.obs import parse_prometheus_text

    status, content_type, text = _get_text(client, "/metrics")
    assert status == 200
    assert content_type.startswith("text/plain")
    return parse_prometheus_text(text)


def _counter(families, name, **labels):
    family = families.get(name)
    if family is None:
        return 0.0
    for sample_name, sample_labels, value in family["samples"]:
        if sample_name == name and sample_labels == labels:
            return value
    return 0.0


class TestMetricsEndpoint:
    def _create(self, client):
        return client.post(
            "/assignments", {"schema": SCHEMA, "target_sql": TARGET}
        )

    def test_metrics_is_valid_prometheus_text(self, client):
        _, created = self._create(client)
        aid = created["assignment_id"]
        client.post("/grade", {"assignment_id": aid, "sql": WRONG})
        families = _scrape(client)
        # Request-latency histogram, cache and solver counters all expose.
        assert families["repro_http_request_seconds"]["kind"] == "histogram"
        assert families["repro_cache_hits_total"]["kind"] == "counter"
        assert families["repro_cache_misses_total"]["kind"] == "counter"
        assert families["repro_solver_sat_calls_total"]["kind"] == "counter"
        assert families["repro_grades_total"]["kind"] == "counter"
        assert families["repro_stage_seconds"]["kind"] == "histogram"
        assert (
            _counter(
                families, "repro_session_submissions_total", assignment=aid
            )
            >= 1
        )

    def test_bad_json_increments_error_counter(self, client):
        before = _scrape(client)
        request = urllib.request.Request(
            client.base + "/grade", b"not json",
            {"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400
        excinfo.value.read()
        after = _scrape(client)
        key = {"route": "/grade", "status": "400"}
        assert (
            _counter(after, "repro_http_errors_total", **key)
            == _counter(before, "repro_http_errors_total", **key) + 1
        )

    def test_unknown_route_increments_error_counter(self, client):
        # Unknown paths collapse to the "other" route label so a URL
        # scanner cannot blow up metric cardinality.
        before = _scrape(client)
        status, body = client.get("/definitely-not-a-route")
        assert status == 404 and "error" in body
        after = _scrape(client)
        key = {"route": "other", "status": "404"}
        assert (
            _counter(after, "repro_http_errors_total", **key)
            == _counter(before, "repro_http_errors_total", **key) + 1
        )

    def test_oversized_body_413_increments_error_counter(self, client):
        import http.client
        from urllib.parse import urlsplit

        before = _scrape(client)
        netloc = urlsplit(client.base).netloc
        conn = http.client.HTTPConnection(netloc, timeout=5)
        try:
            # Announce an oversized body without sending it: the server
            # must reject from Content-Length alone, before reading.
            conn.putrequest("POST", "/grade")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", str(2_000_000))
            conn.endheaders()
            resp = conn.getresponse()
            assert resp.status == 413
            resp.read()
        finally:
            conn.close()
        after = _scrape(client)
        key = {"route": "/grade", "status": "413"}
        assert (
            _counter(after, "repro_http_errors_total", **key)
            == _counter(before, "repro_http_errors_total", **key) + 1
        )

    def test_unexpected_exception_is_500(self, client, monkeypatch):
        from repro.obs import JOURNAL

        def crash(*args, **kwargs):
            raise RuntimeError("boom")

        _, created = self._create(client)
        request = {"assignment_id": created["assignment_id"], "sql": WRONG}
        client.post("/grade", request)  # gives every histogram a sample
        before = _scrape(client)
        monkeypatch.setattr(AssignmentSession, "grade", crash)
        status, body = client.post("/grade", request)
        assert (status, body) == (500, {"error": "internal error: boom"})
        events = [e for e in JOURNAL.tail() if e["kind"] == "http.exception"]
        assert {
            key: events[-1][key] for key in ("route", "exception", "error")
        } == {"route": "/grade", "exception": "RuntimeError", "error": "boom"}
        after = _scrape(client)
        key = {"route": "/grade", "status": "500"}
        assert (
            _counter(after, "repro_http_errors_total", **key)
            == _counter(before, "repro_http_errors_total", **key) + 1
        )

    def test_metrics_render_failure_is_the_common_500(
        self, client, monkeypatch
    ):
        from repro.obs import JOURNAL, REGISTRY

        def broken():
            raise RuntimeError("render broke")

        monkeypatch.setattr(REGISTRY, "render", broken)
        JOURNAL.clear()
        status, body = client.get("/metrics")
        assert status == 500
        assert body == {"error": "internal error: render broke"}
        events = [e for e in JOURNAL.tail() if e["kind"] == "http.exception"]
        assert [
            {key: event[key] for key in ("route", "exception", "error")}
            for event in events
        ] == [{"route": "/metrics", "exception": "RuntimeError",
               "error": "render broke"}]

    def test_http_stats_block(self, client):
        client.get("/healthz")
        status, stats = client.get("/stats")
        assert status == 200
        http_block = stats["http"]
        assert http_block["requests"]["/healthz"]["200"] >= 1
        latency = http_block["latency"]["/healthz"]
        assert latency["count"] >= 1
        assert latency["p95_ms"] >= 0.0

    def test_traced_grade_returns_span_tree(self, client):
        _, created = self._create(client)
        aid = created["assignment_id"]
        status, body = client.post(
            "/grade",
            {"assignment_id": aid, "sql": WRONG, "trace": True},
        )
        assert status == 200
        trace = body["trace"]
        names = [span["name"] for span in trace["spans"]]
        for expected in (
            "grade", "session.grade", "cache.get", "pipeline.run",
            "stage.FROM", "stage.WHERE", "stage.SELECT", "solver.solve",
        ):
            assert expected in names, expected
        # Untraced requests stay lean: no trace key at all.
        _, plain = client.post(
            "/grade", {"assignment_id": aid, "sql": WRONG}
        )
        assert "trace" not in plain


class TestCliSubcommands:
    @pytest.fixture()
    def schema_file(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text(json.dumps(SCHEMA))
        return str(path)

    def test_grade_batch_from_file(self, schema_file, tmp_path, capsys):
        from repro.cli import main

        subs = tmp_path / "subs.json"
        subs.write_text(json.dumps([WRONG, WRONG, "SELEKT nope"]))
        out_path = tmp_path / "out.json"
        code = main(
            [
                "grade-batch",
                "--schema", schema_file,
                "--target-sql", TARGET,
                "--submissions", str(subs),
                "--json", str(out_path),
            ]
        )
        assert code == 0
        assert "2 unique" not in capsys.readouterr().out  # 1 unique + 1 error
        payload = json.loads(out_path.read_text())
        assert payload["stats"]["submissions"] == 3
        assert payload["stats"]["errors"] == 1
        assert payload["results"][0]["stages"]
        assert payload["results"][2]["kind"] == "ParseError"

    def test_grade_batch_reports_failure_detail(
        self, schema_file, tmp_path, capsys
    ):
        from repro.cli import main

        subs = tmp_path / "subs.json"
        subs.write_text(json.dumps(
            ["SELECT beer FROM Serves WHERE price < 1 OR bar = 'x'"]
        ))
        out_path = tmp_path / "out.json"
        code = main(
            [
                "grade-batch",
                "--schema", schema_file,
                "--target-sql", "SELECT beer FROM Serves WHERE price > 2",
                "--submissions", str(subs),
                "--max-sites", "0",
                "--show-hints",
                "--json", str(out_path),
            ]
        )
        assert code == 0
        (failure,) = json.loads(out_path.read_text())["results"]
        assert failure["kind"] == "RepairError"
        assert failure["detail"].startswith('File "')
        out = capsys.readouterr().out
        assert f"error: RepairError: {failure['error']}" in out
        assert f"  {failure['detail']}" in out

    def test_grade_batch_bad_submissions_file_exits_2(
        self, schema_file, tmp_path, capsys
    ):
        from repro.cli import main

        subs = tmp_path / "subs.json"
        subs.write_text(json.dumps([{"nope": 1}]))
        code = main(
            [
                "grade-batch",
                "--schema", schema_file,
                "--target-sql", TARGET,
                "--submissions", str(subs),
            ]
        )
        assert code == 2  # input error, not a verification failure (1)
        assert "unsupported submission entry" in capsys.readouterr().err

    def test_grade_batch_userstudy_workload(self, capsys):
        from repro.cli import main

        code = main(
            [
                "grade-batch",
                "--workload", "userstudy",
                "--question", "Q4",
                "--count", "12",
            ]
        )
        assert code == 0
        assert "Graded 12 submissions" in capsys.readouterr().out

    def test_usage_errors_exit_2_not_1(self, schema_file, tmp_path, capsys):
        from repro.cli import main

        # missing --working entirely: a usage error, not a verify failure
        code = main(["--schema", schema_file, "--target-sql", TARGET])
        assert code == 2
        # schema file with a bad column type: error message, not traceback
        bad_schema = tmp_path / "bad.json"
        bad_schema.write_text(json.dumps({"Serves": [["beer", "str"]]}))
        code = main(
            [
                "--schema", str(bad_schema),
                "--target-sql", TARGET,
                "--working-sql", WRONG,
            ]
        )
        assert code == 2
        assert "invalid schema" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "nan", "inf"])
    @pytest.mark.parametrize("command", ["hint", "grade-batch"])
    def test_hint_non_finite_timeout_exits_2(
        self, schema_file, tmp_path, capsys, command, value
    ):
        from repro.cli import main

        subs = tmp_path / "subs.json"
        subs.write_text(json.dumps([WRONG]))
        working = {
            "hint": ["--working-sql", WRONG],
            "grade-batch": ["--submissions", str(subs)],
        }[command]
        code = main(
            [
                command,
                "--schema", schema_file,
                "--target-sql", TARGET,
                *working,
                "--timeout-ms", value,
            ]
        )
        assert code == 2
        assert "--timeout-ms" in capsys.readouterr().err

    def test_serve_preload_parse_error_exits_2(self, schema_file, capsys):
        from repro.cli import main

        code = main(
            [
                "serve",
                "--schema", schema_file,
                "--target-sql", "SELEKT x",
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_verify_failure_exit_code_and_single_stats_block(
        self, schema_file, capsys, monkeypatch
    ):
        import repro.cli as cli

        monkeypatch.setattr(cli, "appear_equivalent", lambda *a, **k: False)
        code = cli.main(
            [
                "--schema", schema_file,
                "--target-sql", TARGET,
                "--working-sql", WRONG,
                "--verify",
                "--solver-stats",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1  # verification failure, distinct from parse error (2)
        assert "FAIL" in out
        assert out.count("Solver stats:") == 1
        assert "cache_hit_rate" in out

    def test_solver_stats_include_cdcl_counters(self, schema_file, capsys):
        import repro.cli as cli

        code = cli.main(
            [
                "--schema", schema_file,
                "--target-sql", TARGET,
                "--working-sql", WRONG,
                "--solver-stats",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        for key in ("conflicts", "learned_clauses",
                    "theory_cache_hits"):
            assert key in out, key


class TestCacheDiskSpill:
    def test_round_trip_preserves_entries_and_order(self, tmp_path,
                                                    beers_catalog):
        session = AssignmentSession(beers_catalog, TARGET)
        session.grade(WRONG)
        session.grade("SELECT beer FROM Serves WHERE price > 3")
        path = tmp_path / "cache.json"
        saved = session.save(str(path))
        assert saved == 2
        restored = AssignmentSession(beers_catalog, TARGET)
        assert restored.load(str(path)) == 2
        assert list(restored.cache._entries) == list(session.cache._entries)

    def test_restored_cache_serves_without_pipeline_runs(self, tmp_path,
                                                         beers_catalog):
        warm = AssignmentSession(beers_catalog, TARGET)
        first = warm.grade(WRONG, witness=True)
        path = tmp_path / "cache.json"
        warm.save(str(path))

        cold = AssignmentSession(beers_catalog, TARGET)
        cold.load(str(path))
        second = cold.grade(WRONG, witness=True)
        assert second.cached
        assert cold.pipeline_runs == 0
        assert cold.witness_runs == 0
        assert first.text(show_fixes=True) == second.text(show_fixes=True)
        assert first.to_dict()["stages"] == second.to_dict()["stages"]
        assert (witness_to_dict(first.witness)
                == witness_to_dict(second.witness))

    def test_negative_witness_sentinel_round_trips(self, tmp_path,
                                                   beers_catalog):
        session = AssignmentSession(beers_catalog, TARGET)
        canonical, _ = session.prepare(WRONG)
        session.cache.put(("witness", canonical), "__no_witness__")
        path = tmp_path / "cache.json"
        session.save(str(path))
        restored = AssignmentSession(beers_catalog, TARGET)
        restored.load(str(path))
        assert restored.cache.get(("witness", canonical)) == "__no_witness__"

    def test_unknown_artifacts_skipped_not_fatal(self, tmp_path,
                                                 beers_catalog):
        session = AssignmentSession(beers_catalog, TARGET)
        session.grade(WRONG)
        canonical, _ = session.prepare(WRONG)
        session.cache.put(("mystery", canonical), object())
        path = tmp_path / "cache.json"
        assert session.save(str(path)) == 1  # the report alone

    def test_restored_alpha_equivalent_submission_hits(self, tmp_path,
                                                       beers_catalog):
        warm = AssignmentSession(beers_catalog, TARGET)
        warm.grade(WRONG)
        path = tmp_path / "cache.json"
        warm.save(str(path))
        cold = AssignmentSession(beers_catalog, TARGET)
        cold.load(str(path))
        result = cold.grade(
            "select S.beer from Serves s WHERE s.price >= 2"
        )
        assert result.cached and cold.pipeline_runs == 0

    def test_cli_saves_on_exit_and_restores_on_start(
        self, serve_argv, capsys, monkeypatch
    ):
        import re

        import repro.service.server as server_module
        from repro.cli import main

        served = []

        def serve_one(host, port, service, **settings):
            session = service.session("default")
            result = session.grade(WRONG, witness=True)
            served.append((result, session.pipeline_runs,
                           session.witness_runs))
            return 0

        monkeypatch.setattr(server_module, "serve", serve_one)
        assert main(serve_argv) == 0
        out = capsys.readouterr().out
        saved = int(re.search(r"saved (\d+) cached artifact", out).group(1))
        assert saved == 2  # the report and the witness
        assert main(serve_argv) == 0
        out = capsys.readouterr().out
        assert f"restored {saved} cached artifact(s)" in out
        assert f"saved {saved} cached artifact(s)" in out
        (first, _, _), (second, pipeline_runs, witness_runs) = served
        assert not first.cached and second.cached
        assert (pipeline_runs, witness_runs) == (0, 0)
        assert second.text(show_fixes=True) == first.text(show_fixes=True)
        assert second.witness == first.witness

    def test_cli_with_spiller_writes_the_spill_once_at_shutdown(
        self, serve_argv, monkeypatch
    ):
        import repro.service.server as server_module
        from repro.cli import main

        saves = []
        save = AssignmentSession.save

        def counted_save(self, path):
            saves.append(path)
            return save(self, path)

        def serve_one(host, port, service, spiller=None, **settings):
            service.session("default").grade(WRONG)
            spiller.stop()  # what serve() does on the way out
            return 0

        monkeypatch.setattr(AssignmentSession, "save", counted_save)
        monkeypatch.setattr(server_module, "serve", serve_one)
        assert main(serve_argv + ["--cache-spill-interval", "3600"]) == 0
        assert len(saves) == 1

    #: Spill files ``load`` must refuse.  A ``"catalog"`` or ``"target"``
    #: key stands for the encoded catalog or target of the session that
    #: loads it, so only the rest is malformed.
    HEADER = {"version": 5, "catalog": None, "target": None, "max_sites": 2}
    MALFORMED = {
        "top-level list": [],
        "zero denominator": {
            **HEADER,
            "entries": [["k", "v"], ["k2", {"f": [1, 0]}]],
        },
        "unknown class tag": {
            **HEADER,
            "entries": [["k", {"t": "Mystery", "x": 1}]],
        },
        "no target": {
            "version": 5, "catalog": None, "max_sites": 2, "entries": [],
        },
        "version 1": {
            "version": 1,
            "entries": [
                {"key": "k", "artifact": {"t": "str", "v": "__no_witness__"}}
            ],
        },
        "version 2": {"version": 2, "entries": [["k", "__no_witness__"]]},
        "version 3": {
            "version": 3, "target": None, "max_sites": 2, "entries": [],
        },
        "version 4": {**HEADER, "version": 4, "entries": []},
    }

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed_spill_is_value_error_and_serve_exits_2(
        self, name, serve_argv, tmp_path, capsys, monkeypatch, beers_catalog
    ):
        import repro.service.server as server_module
        from repro.cli import main
        from repro.service.serialize import to_obj

        session = AssignmentSession(beers_catalog, TARGET)
        spill = dict(self.MALFORMED[name])
        for key, value in (("catalog", tuple(beers_catalog)),
                           ("target", session.target)):
            if key in spill:
                spill[key] = to_obj(value)
        path = tmp_path / "cache.json"
        path.write_text(json.dumps(spill))
        with pytest.raises(ValueError, match="version-5 artifact spill"):
            session.load(str(path))
        assert len(session.cache) == 0  # nothing restored from a rejected file

        def must_not_serve(*args, **kwargs):
            raise AssertionError("served despite a malformed cache file")

        monkeypatch.setattr(server_module, "serve", must_not_serve)
        assert main(serve_argv) == 2
        assert f"cannot load {path}" in capsys.readouterr().err

    @pytest.mark.parametrize("target, max_sites", [(WRONG, 2), (TARGET, 1)])
    def test_spill_of_another_target_or_max_sites_restores_nothing(
        self, target, max_sites, tmp_path, beers_catalog
    ):
        graded = AssignmentSession(beers_catalog, TARGET)
        graded.grade(WRONG)
        path = tmp_path / "cache.json"
        graded.save(str(path))
        session = AssignmentSession(beers_catalog, target, max_sites=max_sites)
        with pytest.raises(ValueError, match="another target or max_sites"):
            session.load(str(path))
        assert len(session.cache) == 0
        assert session.grade(target).all_passed

    def test_spill_of_another_schema_restores_nothing(
        self, serve_argv, tmp_path, capsys, monkeypatch
    ):
        import repro.service.server as server_module
        from repro.catalog import Catalog
        from repro.cli import main

        spilled = []

        def grade_wrong(host, port, service, **settings):
            result = service.session("default").grade(WRONG, witness=True)
            spilled.append(result.witness)
            return 0

        monkeypatch.setattr(server_module, "serve", grade_wrong)
        assert main(serve_argv) == 0
        assert "saved 2 cached artifact(s)" in capsys.readouterr().out
        [(_, columns, _)] = spilled[0].tables
        assert len(columns) == 3
        # A restart after a column was added to the table the target
        # reads: the target resolves as before, but the spilled witness
        # would lack the new column.
        spec = {"Serves": [["bar", "STRING"], ["beer", "STRING"],
                           ["price", "FLOAT"], ["tap", "BOOL"]]}
        (tmp_path / "schema.json").write_text(json.dumps(spec))
        session = AssignmentSession(Catalog.from_spec(spec), TARGET)
        with pytest.raises(ValueError, match="another schema"):
            session.load(str(tmp_path / "cache.json"))
        assert len(session.cache) == 0
        [(_, columns, _)] = session.grade(WRONG, witness=True).witness.tables
        assert len(columns) == 4
        assert main(serve_argv) == 2
        err = capsys.readouterr().err
        assert "cannot load" in err and "another schema" in err

    def test_serve_refuses_spill_of_another_target(
        self, serve_argv, capsys, monkeypatch
    ):
        import repro.service.server as server_module
        from repro.cli import main

        def grade_wrong(host, port, service, **settings):
            service.session("default").grade(WRONG)
            return 0

        monkeypatch.setattr(server_module, "serve", grade_wrong)
        assert main(serve_argv) == 0
        assert "saved 1 cached artifact(s)" in capsys.readouterr().out
        # Restored under WRONG as the target, the report spilled for WRONG
        # (graded against TARGET) would answer its own target's SQL as
        # wrong.
        argv = list(serve_argv)
        argv[argv.index("--target-sql") + 1] = WRONG
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "cannot load" in err and "another target" in err


class TestCacheSpiller:
    def _loaded_keys(self, path, catalog):
        return AssignmentSession(catalog, TARGET, cache_size=64).load(path)

    def test_rejects_nonpositive_interval(self, tmp_path, beers_catalog):
        from repro.service.server import CacheSpiller

        session = AssignmentSession(beers_catalog, TARGET)
        with pytest.raises(ValueError):
            CacheSpiller(session, str(tmp_path / "c.json"), 0)

    def test_spill_skips_clean_writes_dirty(self, tmp_path, beers_catalog):
        from repro.service.server import CacheSpiller

        session = AssignmentSession(beers_catalog, TARGET)
        path = tmp_path / "cache.json"
        spiller = CacheSpiller(session, str(path), interval=3600)
        # Clean cache: nothing written, file untouched.
        assert spiller.spill() == 0
        assert not path.exists()
        session.grade(WRONG)
        written = spiller.spill()
        assert written >= 1 and spiller.spills == 1
        assert self._loaded_keys(str(path), beers_catalog) == written
        # Unchanged since the last spill: skipped again.
        assert spiller.spill() == 0 and spiller.spills == 1
        # A fresh mutation re-arms it.
        session.grade(TARGET)
        assert spiller.spill() > 0 and spiller.spills == 2

    def test_background_thread_spills_and_stops(
        self, tmp_path, beers_catalog
    ):
        import time

        from repro.service.server import CacheSpiller

        session = AssignmentSession(beers_catalog, TARGET)
        path = tmp_path / "cache.json"
        spiller = CacheSpiller(session, str(path), interval=0.05)
        spiller.start()
        try:
            session.grade(WRONG)  # dirty the cache after the thread is up
            deadline = time.time() + 5
            while spiller.spills == 0 and time.time() < deadline:
                time.sleep(0.02)
        finally:
            spiller.stop()
        assert spiller.spills >= 1
        assert self._loaded_keys(str(path), beers_catalog) >= 1
        # After stop, no further spills happen even if the cache moves.
        spills = spiller.spills
        session.grade(TARGET)
        time.sleep(0.15)
        assert spiller.spills == spills

    def test_stop_flushes_final_spill(self, tmp_path, beers_catalog):
        # Regression: mutations landing between the last periodic tick
        # and shutdown used to be lost; stop() must flush them.
        from repro.service.server import CacheSpiller

        session = AssignmentSession(beers_catalog, TARGET)
        path = tmp_path / "cache.json"
        # Interval far beyond the test: the background thread never ticks,
        # so anything on disk afterwards came from stop() itself.
        spiller = CacheSpiller(session, str(path), interval=3600)
        spiller.start()
        session.grade(WRONG)
        spiller.stop()
        assert spiller.spills == 1
        assert path.exists()
        assert self._loaded_keys(str(path), beers_catalog) >= 1


class TestWitnessText:
    def test_default_rendering_unchanged(self, beers_catalog):
        session = AssignmentSession(beers_catalog, TARGET)
        plain = session.grade(WRONG)
        with_witness = session.grade(WRONG, witness=True)
        # The flag is off: no divergence sentence anywhere.
        assert "On this database" not in plain.text()
        assert "On this database" not in with_witness.text()

    def test_flag_appends_divergence_sentence(self, beers_catalog):
        session = AssignmentSession(beers_catalog, TARGET)
        result = session.grade(WRONG, witness=True)
        text = result.text(witness_text=True)
        assert "On this database your query returns" in text
        assert "; the reference returns" in text
        # The sentence is anchored to the failing stage block.
        where_block = text.split("[WHERE]")[1]
        assert "On this database" in where_block

    def test_flag_without_witness_is_noop(self, beers_catalog):
        session = AssignmentSession(beers_catalog, TARGET)
        result = session.grade(WRONG)
        assert result.text(witness_text=True) == result.text()

    def test_http_grade_witness_text(self, client):
        _, created = client.post(
            "/assignments", {"schema": SCHEMA, "target_sql": TARGET}
        )
        aid = created["assignment_id"]
        _, body = client.post(
            "/grade",
            {"assignment_id": aid, "sql": WRONG, "witness_text": True},
        )
        assert "On this database your query returns" in body["text"]
        assert body["witness"]  # witness_text implies witness generation
        _, plain = client.post(
            "/grade", {"assignment_id": aid, "sql": WRONG}
        )
        assert "On this database" not in plain["text"]

    @pytest.fixture()
    def schema_file(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text(json.dumps(SCHEMA))
        return str(path)

    def test_cli_hint_witness_text(self, schema_file, capsys):
        from repro.cli import main

        code = main(
            [
                "hint",
                "--schema", schema_file,
                "--target-sql", TARGET,
                "--working-sql", WRONG,
                "--witness-text",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "On this database your query returns" in out
        assert "Counterexample instance" in out


class TestRouteCardinality:
    def test_bounded_route_passes_known_and_collapses_unknown(self):
        from repro.service.server import KNOWN_ROUTES, bounded_route

        for route in KNOWN_ROUTES:
            assert bounded_route(route) == route
        assert bounded_route("/etc/passwd") == "other"
        assert bounded_route("/grade/../admin") == "other"
        # Query strings are stripped before the bound check.
        assert bounded_route("/stats?verbose=1") == "/stats"
        assert bounded_route("/debug/journal?n=50") == "/debug/journal"

    def test_scanned_paths_never_become_labels(self, client):
        scans = ("/wp-admin.php", "/grade/extra", "/x?probe=1")
        for path in scans:
            status, _ = client.get(path)
            assert status == 404
        status, _, text = _get_text(client, "/metrics")
        assert status == 200
        for path in scans:
            assert path.split("?", 1)[0] not in text
        assert 'route="other"' in text


class TestRouteTable:
    """``ROUTES`` is the one list of routes: it decides what answers and
    which route label a request is counted under."""

    def test_each_route_answers_under_its_own_method(self, client):
        from repro.service.server import ROUTES

        for method, path in ROUTES:
            if method == "GET":
                status, _, text = _get_text(client, path)
                assert status == 200 and text, path
            else:
                # An empty object reaches the handler, which asks for its
                # first required field.
                status, body = client.post(path, {})
                assert status == 400, path
                assert body["error"].endswith("is required"), path

    def test_known_path_under_the_other_method_is_404_labelled_by_path(
        self, client
    ):
        from repro.service.server import ROUTES

        before = _scrape(client)
        for method, path in ROUTES:
            if method == "GET":
                status, body = client.post(path, {})
            else:
                status, body = client.get(path)
            assert (status, body) == (404, {"error": f"no such route {path}"})
        after = _scrape(client)
        for _, path in ROUTES:
            key = {"route": path, "status": "404"}
            assert (
                _counter(after, "repro_http_requests_total", **key)
                == _counter(before, "repro_http_requests_total", **key) + 1
            ), path

    def test_unknown_path_is_404_labelled_other(self, client):
        before = _scrape(client)
        for path in ("/nope", "/grade/extra", "/stats/?x=1"):
            assert client.get(path)[0] == 404
            assert client.post(path, {})[0] == 404
        after = _scrape(client)
        key = {"route": "other", "status": "404"}
        assert (
            _counter(after, "repro_http_requests_total", **key)
            == _counter(before, "repro_http_requests_total", **key) + 6
        )


class TestServeProcess:
    """``repro serve`` as a real process, through its interrupt, drain
    and spill path."""

    def _run(self, argv, sql):
        """Start ``repro serve argv``, POST ``sql`` to ``/grade`` once the
        banner is out, then interrupt it with SIGINT; it must exit 0.

        Returns ``(stdout, (status, body) of the grade)``.
        """
        import os
        import re
        import signal
        import subprocess
        import sys
        import threading

        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        # A server that hangs is killed, so the test fails instead of
        # the suite hanging.
        watchdog = threading.Timer(60, proc.kill)
        watchdog.start()
        try:
            banner = []
            for line in proc.stdout:
                banner.append(line)
                if line.startswith("routes: "):
                    break
            match = re.search(r"listening on http://[^:]+:(\d+)",
                              "".join(banner))
            assert match, proc.stderr.read()
            grade = _Client(f"http://127.0.0.1:{match.group(1)}").post(
                "/grade", {"assignment_id": "default", "sql": sql}
            )
            proc.send_signal(signal.SIGINT)
            proc.wait(timeout=30)
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        # The output is a few lines, so it never fills a pipe; reading it
        # through the same buffered files keeps every line.
        out, err = proc.stdout.read(), proc.stderr.read()
        proc.stdout.close()
        proc.stderr.close()
        assert proc.returncode == 0, err
        return "".join(banner) + out, grade

    def test_interrupt_spills_and_a_restart_restores(self, serve_argv):
        from repro.service.server import ROUTES

        argv = serve_argv + ["--port", "0", "--quiet"]
        out, (status, body) = self._run(argv, WRONG)
        assert (status, body["cached"]) == (200, False)
        routes = next(
            line for line in out.splitlines() if line.startswith("routes: ")
        )
        listed = routes[len("routes: "):].split("  ")
        assert len(listed) == 7
        assert sorted(listed) == sorted(f"{m} {p}" for m, p in ROUTES)
        assert "shutting down (draining in-flight requests)" in out
        assert "saved 1 cached artifact(s)" in out

        out, (status, body) = self._run(argv, WRONG)
        assert "restored 1 cached artifact(s)" in out
        assert (status, body["cached"]) == (200, True)


class TestHttpEffort:
    def _grade(self, client, **extra):
        _, created = client.post(
            "/assignments", {"schema": SCHEMA, "target_sql": TARGET}
        )
        return client.post("/grade", {
            "assignment_id": created["assignment_id"],
            "sql": WRONG,
            **extra,
        })

    def test_effort_absent_by_default(self, client):
        status, body = self._grade(client)
        assert status == 200
        assert "effort" not in body

    def test_effort_opt_in_returns_counters(self, client):
        status, body = self._grade(client, effort=True)
        assert status == 200
        assert body["effort"]["sat_calls"] >= 1
        assert all(isinstance(v, int) for v in body["effort"].values())

    def test_route_effort_metrics_always_aggregate(self, client):
        before = _scrape(client)
        key = {"route": "/grade", "counter": "sat_calls"}
        self._grade(client)  # no effort opt-in on the request
        after = _scrape(client)
        assert (
            _counter(after, "repro_solver_effort_total", **key)
            > _counter(before, "repro_solver_effort_total", **key)
        )


class TestStatsSpill:
    def test_stats_reports_spill_block_when_spilling(self, tmp_path,
                                                     start_server):
        from repro.service.server import CacheSpiller, HintService

        service = HintService()
        server, base = start_server(service=service)
        client = _Client(base)
        _, created = client.post(
            "/assignments", {"schema": SCHEMA, "target_sql": TARGET}
        )
        aid = created["assignment_id"]
        # No spiller configured: no spill block.
        _, stats = client.get("/stats")
        assert "spill" not in stats

        session = service.session(aid)
        spiller = CacheSpiller(
            session, str(tmp_path / "cache.json"), interval=3600
        )
        server.spiller = spiller
        client.post("/grade", {"assignment_id": aid, "sql": WRONG})
        spiller.spill()
        spiller.spill()  # idle: cache unchanged since the last one
        _, stats = client.get("/stats")
        spill = stats["spill"]
        assert spill["count"] == 1
        assert spill["skipped_idle"] == 1
        assert spill["last_entries"] >= 1
        assert spill["last_bytes"] > 0
        assert spill["last_duration_ms"] >= 0
        assert spill["interval"] == 3600

    def test_spiller_journals_lifecycle_events(self, tmp_path, beers_catalog):
        from repro.obs import JOURNAL
        from repro.service.server import CacheSpiller

        session = AssignmentSession(beers_catalog, TARGET)
        path = tmp_path / "cache.json"
        spiller = CacheSpiller(session, str(path), interval=3600)
        session.grade(WRONG)
        JOURNAL.clear()
        spiller.spill()
        spiller.spill()
        events = {e["kind"]: e for e in JOURNAL.tail()}
        assert events["spill.start"]["size"] >= 1
        end = events["spill.end"]
        assert end["entries"] == spiller.last_entries
        assert end["bytes"] == path.stat().st_size
        assert end["duration_ms"] >= 0
        assert events["spill.idle"]["skipped"] == 1
