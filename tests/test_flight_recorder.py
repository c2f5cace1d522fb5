"""Tests for the flight recorder: journal core, event sources, surfaces.

The journal is a process-wide singleton (``repro.obs.JOURNAL``), so
event-source tests clear it first and assert on the kinds recorded
during the action under test -- other instrumentation may interleave
events, which is exactly what production dumps look like.
"""

import io
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.catalog import Catalog
from repro.obs import JOURNAL, Journal
from repro.service.session import AssignmentSession
from repro.sqlparser.rewrite import parse_query_extended
from repro.witness import generate_witness

SCHEMA = {
    "Serves": [["bar", "STRING"], ["beer", "STRING"], ["price", "FLOAT"]],
}
TARGET = "SELECT bar FROM Serves WHERE price > 10"
WRONG = "SELECT bar FROM Serves WHERE price > 5"


def catalog():
    return Catalog.from_spec(SCHEMA)


def kinds(events):
    return [event["kind"] for event in events]


# ---------------------------------------------------------------------------
# Journal core


class TestJournalCore:
    def test_ring_is_bounded_and_counts_drops(self):
        journal = Journal(capacity=4)
        for i in range(10):
            journal.record("tick", i=i)
        assert len(journal) == 4
        assert journal.dropped == 6
        events = journal.tail()
        # Oldest first, monotone sequence, newest survive.
        assert [e["i"] for e in events] == [6, 7, 8, 9]
        assert [e["seq"] for e in events] == sorted(e["seq"] for e in events)

    def test_tail_n_and_zero(self):
        journal = Journal(capacity=8)
        for i in range(5):
            journal.record("tick", i=i)
        assert [e["i"] for e in journal.tail(2)] == [3, 4]
        assert journal.tail(0) == []
        assert len(journal.tail(99)) == 5

    def test_disabled_records_nothing(self):
        journal = Journal(capacity=8)
        journal.enabled = False
        assert journal.record("tick") == 0
        assert len(journal) == 0
        journal.enabled = True
        assert journal.record("tick") > 0

    def test_clear_resets_buffer_and_drop_count(self):
        journal = Journal(capacity=2)
        for _ in range(5):
            journal.record("tick")
        journal.clear()
        assert len(journal) == 0 and journal.dropped == 0
        # The sequence keeps counting across clears.
        assert journal.record("tick") > 5

    def test_stats_shape(self):
        journal = Journal(capacity=16)
        journal.record("tick")
        assert journal.stats() == {
            "capacity": 16, "size": 1, "dropped": 0, "enabled": True,
        }

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            Journal(capacity=0)

    def test_events_are_json_safe(self):
        journal = Journal(capacity=8)
        journal.record("cache.evict", key="abc", evicted=2)
        round_tripped = json.loads(json.dumps(journal.tail()))
        assert round_tripped[0]["kind"] == "cache.evict"
        assert round_tripped[0]["evicted"] == 2

    def test_render_one_line_per_event_with_sorted_fields(self):
        journal = Journal(capacity=8)
        journal.record("http.finish", status=200, ms=1.5, route="/grade")
        (line,) = journal.render()
        assert "http.finish" in line
        # Fields render sorted by name after the kind.
        assert line.index("ms=1.5") < line.index("route=/grade")
        assert line.index("route=/grade") < line.index("status=200")

    def test_dump_writes_header_and_reason(self):
        journal = Journal(capacity=8)
        journal.record("tick", i=1)
        stream = io.StringIO()
        journal.dump(stream=stream, n=10, reason="unhandled KeyError")
        text = stream.getvalue()
        assert text.startswith("--- journal (last 1 events; "
                               "unhandled KeyError) ---")
        assert text.rstrip().endswith("--- end journal ---")
        assert "tick" in text

    def test_concurrent_recording_stays_bounded(self):
        journal = Journal(capacity=64)

        def hammer():
            for i in range(500):
                journal.record("tick", i=i)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(journal) == 64
        events = journal.tail()
        assert [e["seq"] for e in events] == sorted(e["seq"] for e in events)


# ---------------------------------------------------------------------------
# Event sources


class TestCacheEvents:
    def test_miss_then_hit_recorded(self):
        session = AssignmentSession(catalog(), TARGET)
        JOURNAL.clear()
        session.grade(WRONG)
        session.grade(WRONG)
        recorded = kinds(JOURNAL.tail())
        assert "cache.miss" in recorded
        assert "cache.hit" in recorded
        assert recorded.index("cache.miss") < recorded.index("cache.hit")

    def test_eviction_recorded(self):
        session = AssignmentSession(catalog(), TARGET, cache_size=1)
        JOURNAL.clear()
        session.grade(WRONG)
        session.grade("SELECT bar FROM Serves WHERE price > 7")
        events = [e for e in JOURNAL.tail() if e["kind"] == "cache.evict"]
        assert events and events[0]["evicted"] >= 1


class TestWitnessEvents:
    def test_fallback_to_guided_search_recorded(self):
        # Different FROM multisets -> no unification -> the solver-model
        # path is unavailable and the guided-search fallback must fire.
        spec = {
            "Serves": SCHEMA["Serves"],
            "Bars": [["name", "STRING"], ["city", "STRING"]],
        }
        cat = Catalog.from_spec(spec)
        target = parse_query_extended("SELECT bar FROM Serves", cat)
        working = parse_query_extended("SELECT name FROM Bars", cat)
        JOURNAL.clear()
        generate_witness(cat, target, working, seed=0)
        events = [e for e in JOURNAL.tail()
                  if e["kind"] == "witness.fallback"]
        assert events and events[0]["unified"] is False


# ---------------------------------------------------------------------------
# HTTP surface


@pytest.fixture()
def client(start_server):
    _, base = start_server()

    class Client:
        base = None

        def post(self, path, payload):
            request = urllib.request.Request(
                base + path, json.dumps(payload).encode(),
                {"Content-Type": "application/json"},
            )
            try:
                with urllib.request.urlopen(request) as resp:
                    return resp.status, json.loads(resp.read())
            except urllib.error.HTTPError as error:
                return error.code, json.loads(error.read())

        def get(self, path):
            try:
                with urllib.request.urlopen(base + path) as resp:
                    return resp.status, json.loads(resp.read())
            except urllib.error.HTTPError as error:
                return error.code, json.loads(error.read())

    Client.base = base
    return Client()


class TestHttpJournal:
    def _create_and_grade(self, client):
        status, created = client.post(
            "/assignments", {"schema": SCHEMA, "target_sql": TARGET}
        )
        assert status == 201
        status, body = client.post(
            "/grade",
            {"assignment_id": created["assignment_id"], "sql": WRONG},
        )
        assert status == 200
        return body

    def test_request_lifecycle_events(self, client):
        import time

        JOURNAL.clear()
        self._create_and_grade(client)
        # The finish event is journaled *after* the response body is
        # written, so the client can observe the 200 a hair before the
        # handler thread records it -- wait it out.
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline:
            events = JOURNAL.tail()
            finishes = [e for e in events if e["kind"] == "http.finish"]
            if any(e["route"] == "/grade" for e in finishes):
                break
            time.sleep(0.01)
        starts = [e for e in events if e["kind"] == "http.start"]
        assert {e["route"] for e in starts} == {"/assignments", "/grade"}
        grade_finish = [e for e in finishes if e["route"] == "/grade"]
        assert grade_finish and grade_finish[0]["status"] == 200
        assert grade_finish[0]["ms"] >= 0

    def test_error_responses_journaled_with_bounded_route(self, client):
        JOURNAL.clear()
        status, _ = client.get("/no/such/route")
        assert status == 404
        errors = [e for e in JOURNAL.tail() if e["kind"] == "http.error"]
        assert errors and errors[0]["status"] == 404
        # Unknown paths collapse to "other" at record time.
        assert errors[0]["route"] == "other"

    def test_debug_journal_endpoint(self, client):
        self._create_and_grade(client)
        status, body = client.get("/debug/journal?n=5")
        assert status == 200
        assert body["journal"]["capacity"] == JOURNAL.capacity
        assert len(body["events"]) == 5
        assert all("seq" in e and "kind" in e for e in body["events"])

    def test_debug_journal_default_and_bad_n(self, client):
        status, body = client.get("/debug/journal")
        assert status == 200
        assert isinstance(body["events"], list)
        status, body = client.get("/debug/journal?n=bogus")
        assert status == 400
        assert "integer" in body["error"]


# ---------------------------------------------------------------------------
# CLI


class TestJournalCli:
    def test_renders_local_journal(self, capsys):
        from repro.cli import main

        JOURNAL.clear()
        JOURNAL.record("cache.evict", evicted=3)
        assert main(["journal", "-n", "5"]) == 0
        out = capsys.readouterr().out
        assert "journal:" in out
        assert "cache.evict" in out and "evicted=3" in out

    def test_json_output_round_trips(self, capsys):
        from repro.cli import main

        JOURNAL.clear()
        JOURNAL.record("spill.end", entries=2, bytes=128, duration_ms=0.5)
        assert main(["journal", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["journal"]["size"] == len(JOURNAL)
        assert payload["events"][-1]["kind"] == "spill.end"

    def test_fetches_from_server(self, client, capsys):
        from repro.cli import main

        JOURNAL.record("tick")
        assert main(["journal", "--url", client.base, "-n", "3"]) == 0
        out = capsys.readouterr().out
        assert f"journal @ {client.base}" in out

    def test_unreachable_server_exits_2(self, capsys):
        from repro.cli import main

        assert main(["journal", "--url", "http://127.0.0.1:9"]) == 2
        assert "cannot fetch" in capsys.readouterr().err
