"""Chaos tests: deterministic fault injection against the serving stack.

Every test here activates one or more named fault points from
``repro.service.faults`` and asserts the *recovery* behaviour the
robustness work promises: deadlines degrade instead of hanging (a batch
form included), overload sheds with 503 instead of queueing forever, a
failing batch form costs only its own submissions, stalled clients get
reclaimed, and a draining server finishes in-flight work while refusing
new work.
"""

import json
import math
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.pipeline import QrHint
from repro.obs import REGISTRY
from repro.service import (
    AssignmentSession,
    GradeError,
    grade_batch,
)
from repro.service.deadline import Deadline, DeadlineExceeded
from repro.service.faults import (
    FAULTS,
    FaultRegistry,
    stalled_client_socket,
)
from repro.service.server import (
    AdmissionController,
    CacheSpiller,
    make_server,
    serve,
)
from repro.workloads import beers

TARGET = "SELECT beer FROM Serves WHERE price > 2"
WRONG = "SELECT beer FROM Serves WHERE price >= 2"
# An SPJA pair that fails all five stages, each with its own hints.
SPJA_TARGET = (
    "SELECT bar, COUNT(*) FROM Serves WHERE price > 2 "
    "GROUP BY bar HAVING COUNT(*) > 1"
)
SPJA_WRONG = (
    "SELECT bar, SUM(price) FROM Serves, Likes WHERE price > 3 "
    "GROUP BY bar, Serves.beer HAVING COUNT(*) > 2"
)
SPJA_STAGES = ("FROM", "WHERE", "GROUP BY", "HAVING", "SELECT")


@pytest.fixture(autouse=True)
def _clean_faults():
    """Every test leaves the process-wide registry empty."""
    FAULTS.clear()
    yield
    FAULTS.clear()


def _post(base, path, payload, timeout=30):
    request = urllib.request.Request(
        base + path,
        json.dumps(payload).encode(),
        {"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read()), dict(resp.headers)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), dict(error.headers)


def _create_assignment(base, **extra):
    schema = {
        "Serves": [["bar", "STRING"], ["beer", "STRING"], ["price", "FLOAT"]]
    }
    status, body, _ = _post(
        base, "/assignments", {"schema": schema, "target_sql": TARGET, **extra}
    )
    assert status == 201
    return body["assignment_id"]


class TestFaultRegistry:
    def test_env_spec_parses_points_and_params(self):
        registry = FaultRegistry()
        registry.clear()
        registry.load_env("spill.io:n=2; solver.slow:ms=50")
        spill = registry.active("spill.io")
        assert spill is not None
        assert spill.params == {"n": "2"}
        slow = registry.active("solver.slow")
        assert slow is not None and slow.float_param("ms") == 50.0

    def test_nth_hit_fires_exactly_once(self):
        registry = FaultRegistry()
        registry.clear()
        registry.activate("p", n=3)
        point = registry.active("p")
        assert [point.should_fire() for _ in range(5)] == [
            False, False, True, False, False,
        ]

    def test_deactivate_and_clear_disable_the_registry(self):
        registry = FaultRegistry()
        registry.clear()
        registry.activate("a")
        registry.activate("b")
        registry.deactivate("a")
        assert registry.enabled and registry.active("a") is None
        registry.clear()
        assert not registry.enabled and registry.active("b") is None

    def test_hooks_are_noops_when_inactive(self):
        registry = FaultRegistry()
        registry.clear()
        registry.sleep("nope")
        registry.raise_io("nope")

    def test_raise_io_raises_oserror(self):
        registry = FaultRegistry()
        registry.clear()
        registry.activate("spill.io")
        with pytest.raises(OSError, match="injected fault"):
            registry.raise_io("spill.io")


class TestDeadline:
    def test_fresh_budget_is_not_expired(self):
        deadline = Deadline.after_ms(60_000)
        assert not deadline.expired()
        assert 0 < deadline.remaining_ms() <= 60_000
        deadline.check("anywhere")  # must not raise

    def test_expired_budget_raises_with_location(self):
        deadline = Deadline.after_ms(0.0)
        time.sleep(0.001)
        assert deadline.expired() and deadline.remaining_ms() == 0
        with pytest.raises(DeadlineExceeded, match="solver"):
            deadline.check("solver")


class TestDeadlineDegradation:
    def test_tiny_budget_degrades_instead_of_hanging(self, beers_catalog):
        # Each DPLL(T) round sleeps 30ms, so a 10ms budget must expire
        # inside the pipeline -- the grade returns a partial report with
        # a coarse stage hint instead of blocking for the full run.
        FAULTS.activate("solver.slow", ms=30)
        session = AssignmentSession(beers_catalog, TARGET)
        result = session.grade(WRONG, deadline=Deadline.after_ms(10))
        assert result.degraded
        body = result.to_dict()
        assert body["degraded"] is True
        degraded = [
            (stage["stage"], hint)
            for stage in body["stages"]
            for hint in stage["hints"]
            if hint["kind"] == "degraded"
        ]
        assert len(degraded) == 1
        stage, hint = degraded[0]
        assert "time budget" in hint["message"]
        assert stage in ("FROM", "WHERE", "GROUP BY", "HAVING", "SELECT")

    def test_degraded_results_are_never_cached(self, beers_catalog):
        FAULTS.activate("solver.slow", ms=30)
        session = AssignmentSession(beers_catalog, TARGET)
        first = session.grade(WRONG, deadline=Deadline.after_ms(10))
        assert first.degraded and not first.cached
        # Same form with a sane budget: a full (exact) grade, not the
        # degraded partial replayed from the cache.
        FAULTS.clear()
        second = session.grade(WRONG)
        assert not second.degraded and not second.cached
        assert not second.all_passed
        third = session.grade(WRONG)
        assert third.cached and not third.degraded

    def test_no_fault_no_deadline_is_byte_identical(self, beers_catalog):
        # The degradation plumbing must be invisible on the common path.
        plain = AssignmentSession(beers_catalog, TARGET).grade(WRONG)
        wired = AssignmentSession(beers_catalog, TARGET).grade(
            WRONG, deadline=None
        )
        first, second = plain.to_dict(), wired.to_dict()
        for body in (first, second):  # wall time is inherently unstable
            body.pop("elapsed", None)
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )
        assert "degraded" not in first


class _ExpiresAt:
    """A deadline whose budget runs out at exactly one stage's poll."""

    def __init__(self, stage):
        self.stage = stage

    def check(self, where=""):
        if where == self.stage:
            raise DeadlineExceeded(f"deadline exceeded at {where}")


class TestStageDegradation:
    @pytest.mark.parametrize("stage", SPJA_STAGES)
    def test_expiry_at_each_stage(self, beers_catalog, stage):
        exact = QrHint(beers_catalog, SPJA_TARGET, SPJA_WRONG).run()
        assert [s.stage for s in exact.stages] == list(SPJA_STAGES)
        stage_seconds = REGISTRY.get("repro_stage_seconds")

        def observations():
            return {s: stage_seconds.count(stage=s) for s in SPJA_STAGES}

        before = observations()
        report = QrHint(
            beers_catalog, SPJA_TARGET, SPJA_WRONG, deadline=_ExpiresAt(stage)
        ).run()
        after = observations()

        reached = SPJA_STAGES[:SPJA_STAGES.index(stage) + 1]
        assert report.degraded and report.degraded_stage == stage
        assert tuple(s.stage for s in report.stages) == reached
        for got, want in zip(report.stages[:-1], exact.stages):
            assert (got.passed, got.hints) == (want.passed, want.hints)
        last = report.stages[-1]
        assert [hint.kind for hint in last.hints] == ["degraded"]
        observed = {s: after[s] - before[s] for s in SPJA_STAGES}
        assert observed == {s: int(s in reached) for s in SPJA_STAGES}
        # The stage that ran out of time records the time it spent.
        assert last.elapsed > 0


class TestHttpDeadline:
    def test_timeout_ms_degrades_with_200(self, start_server):
        FAULTS.activate("solver.slow", ms=30)
        _, base = start_server()
        aid = _create_assignment(base)
        status, body, _ = _post(
            base,
            "/grade",
            {"assignment_id": aid, "sql": WRONG, "timeout_ms": 10},
        )
        assert status == 200
        assert body["degraded"] is True
        assert any(
            hint["kind"] == "degraded"
            for stage in body["stages"]
            for hint in stage["hints"]
        )

    def test_pre_expired_budget_is_408(self, start_server):
        # A microscopic budget expires before the pipeline starts; the
        # request fails fast with 408 instead of doing throwaway work.
        _, base = start_server()
        aid = _create_assignment(base)
        status, body, _ = _post(
            base,
            "/grade",
            {"assignment_id": aid, "sql": WRONG, "timeout_ms": 0.001},
        )
        assert status == 408
        assert body["kind"] == "DeadlineExceeded"

    def test_timeout_ms_validation(self, start_server):
        # A NaN budget never expires (every comparison with it is false),
        # and it escapes the server cap: min(nan, cap) is nan.
        _, base = start_server(max_timeout_ms=1.0)
        aid = _create_assignment(base)
        bad_values = (-5, 0, "soon", float("nan"), "nan", float("inf"), 10**400)
        for bad in bad_values:
            status, body, _ = _post(
                base,
                "/grade",
                {"assignment_id": aid, "sql": WRONG, "timeout_ms": bad},
            )
            assert status == 400, bad
            assert "timeout_ms" in body["error"]

    def test_server_cap_bounds_client_budget(self, start_server):
        # max_timeout_ms both caps explicit budgets and applies as the
        # default -- with a 200ms cap and a solver slowed by 400ms per
        # round every grade degrades, even when the client asked for a
        # huge budget.  The cap outlasts parsing and canonicalization, so
        # the request reaches the pipeline; the solver polls the deadline
        # before it sleeps, so the first poll after a sleep expires it.
        FAULTS.activate("solver.slow", ms=400)
        _, base = start_server(max_timeout_ms=200.0)
        aid = _create_assignment(base)
        status, body, _ = _post(
            base,
            "/grade",
            {"assignment_id": aid, "sql": WRONG, "timeout_ms": 600_000},
        )
        assert status == 200 and body.get("degraded") is True
        status, body, _ = _post(
            base, "/grade", {"assignment_id": aid, "sql": TARGET}
        )
        assert status == 200 and body.get("degraded") is True


class TestAdmissionControl:
    def test_acquire_release_accounting(self):
        admission = AdmissionController(max_inflight=2, max_queue=0)
        assert admission.acquire() == "admitted"
        assert admission.acquire() == "admitted"
        assert admission.acquire() == "queue_full"
        admission.release()
        assert admission.acquire() == "admitted"
        stats = admission.stats()
        assert stats["inflight"] == 2 and stats["admitted"] == 3
        assert stats["shed"]["queue_full"] == 1

    def test_queue_timeout_sheds_after_waiting(self):
        admission = AdmissionController(
            max_inflight=1, max_queue=1, queue_timeout=0.05
        )
        assert admission.acquire() == "admitted"
        started = time.monotonic()
        assert admission.acquire() == "timeout"
        assert time.monotonic() - started >= 0.05
        assert admission.stats()["shed"]["timeout"] == 1

    def test_draining_refuses_everything(self):
        admission = AdmissionController(max_inflight=4)
        assert admission.acquire() == "admitted"
        admission.start_drain()
        assert admission.acquire() == "draining"
        assert not admission.wait_idle(0.05)  # one request still in flight
        admission.release()
        assert admission.wait_idle(1.0)

    def test_drain_waits_for_a_response_written_after_release(self):
        admission = AdmissionController(max_inflight=1)
        assert admission.acquire() == "admitted"
        with admission.responding():
            admission.release()
            assert admission.acquire() == "admitted"  # the slot is free
            admission.release()
            assert not admission.wait_idle(0.05)  # still being written
        assert admission.wait_idle(1.0)

    def test_slot_is_free_before_the_client_reads_the_response(
        self, start_server, monkeypatch
    ):
        # A client that sends its next request as soon as it reads a
        # response never has two in flight, so one slot must admit it.
        # A slow release would shed it if the slot were freed only after
        # the response was written.
        release = AdmissionController.release

        def slow_release(controller):
            time.sleep(0.1)
            release(controller)

        monkeypatch.setattr(AdmissionController, "release", slow_release)
        server, base = start_server(
            admission=AdmissionController(max_inflight=1, max_queue=0)
        )
        aid = _create_assignment(base)
        status, body, _ = _post(
            base, "/grade", {"assignment_id": aid, "sql": WRONG}
        )
        assert status == 200, body
        assert server.admission.stats()["shed"]["queue_full"] == 0

    def test_overload_sheds_503_with_retry_after(self, start_server):
        # One slot, no queue, and a solver slowed to ~1s per grade: the
        # second concurrent request must be shed immediately with 503.
        FAULTS.activate("solver.slow", ms=400)
        server, base = start_server(
            admission=AdmissionController(max_inflight=1, max_queue=0)
        )
        aid = _create_assignment(base)
        assert server.admission.wait_idle(5.0)
        with ThreadPoolExecutor(max_workers=2) as pool:
            slow = pool.submit(
                _post, base, "/grade", {"assignment_id": aid, "sql": WRONG}
            )
            # Wait until the slow grade holds the only slot (the
            # assignment POST was admission #1, so the slow grade is
            # #2 -- inflight alone could still be the assignment's
            # not-yet-released slot), then a probe must be shed
            # immediately instead of queueing.
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                stats = server.admission.stats()
                if stats["admitted"] >= 2 and stats["inflight"] >= 1:
                    break
                time.sleep(0.01)
            stats = server.admission.stats()
            assert stats["admitted"] >= 2 and stats["inflight"] == 1
            status, body, headers = _post(
                base, "/grade", {"assignment_id": aid, "sql": TARGET}
            )
            assert status == 503
            assert body["reason"] == "queue_full"
            assert headers.get("Retry-After") == "1"
            status, body, _ = slow.result(timeout=30)
            assert status == 200  # admitted work is unaffected
        stats = server.admission.stats()
        assert stats["shed"]["queue_full"] >= 1

    def test_stats_exposes_admission_block(self, start_server):
        _, base = start_server(
            admission=AdmissionController(max_inflight=3, max_queue=2)
        )
        with urllib.request.urlopen(base + "/stats") as resp:
            stats = json.loads(resp.read())
        assert stats["admission"]["max_inflight"] == 3
        assert stats["admission"]["max_queue"] == 2
        assert stats["admission"]["draining"] is False


class TestStalledClient:
    def test_read_timeout_recovers_handler_thread(self, start_server):
        # The client declares a body then never sends it; the server's
        # read timeout must answer 408 (or close) instead of pinning the
        # handler thread forever.
        server, base = start_server(read_timeout=0.3)
        host, port = server.server_address[:2]
        sock = stalled_client_socket(host, port, "/grade")
        try:
            sock.settimeout(10)
            data = b""
            while b"\r\n\r\n" not in data:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                data += chunk
        finally:
            sock.close()
        assert b"408" in data.split(b"\r\n", 1)[0]
        # The server is still healthy for well-behaved clients.
        with urllib.request.urlopen(base + "/healthz", timeout=5) as resp:
            assert resp.status == 200


class TestGracefulDrain:
    def test_drain_finishes_inflight_and_refuses_new(self, start_server):
        # Start one slow grade, then drain concurrently: the in-flight
        # request must complete with a full 200 while requests arriving
        # during the drain are shed with 503 "draining".
        FAULTS.activate("solver.slow", ms=200)
        server, base = start_server()
        aid = _create_assignment(base)
        with ThreadPoolExecutor(max_workers=2) as pool:
            slow = pool.submit(
                _post, base, "/grade", {"assignment_id": aid, "sql": WRONG}
            )
            # Wait until the slow grade is actually admitted (it
            # is admission #2; the assignment POST was #1 and its
            # slot release can lag the client-visible response).
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                stats = server.admission.stats()
                if stats["admitted"] >= 2 and stats["inflight"] >= 1:
                    break
                time.sleep(0.01)
            stats = server.admission.stats()
            assert stats["admitted"] >= 2 and stats["inflight"] == 1
            # Refusals begin the moment draining starts -- probe while
            # the accept loop is still up (drain() then stops it).
            server.admission.start_drain()
            status, body, headers = _post(
                base, "/grade", {"assignment_id": aid, "sql": TARGET}
            )
            assert status == 503 and body["reason"] == "draining"
            assert headers.get("Retry-After") == "5"
            drained = server.drain(30.0)
            status, body, _ = slow.result(timeout=30)
            assert status == 200 and not body["all_passed"]
            assert drained is True


NAN = float("nan")
INF = float("inf")


def _spiller(interval):
    session = AssignmentSession(beers.catalog(), TARGET)
    return CacheSpiller(session, "unused.json", interval)


#: setting -> (builds the object that stores it from one value, values it
#: must reject, the ``repro serve`` flag and a value of it to reject).
SERVE_SETTINGS = {
    "port": (
        lambda v: make_server(port=v),
        [-1, 65536, 1.5, NAN, None, True, "80"], "--port", "99999",
    ),
    "max_inflight": (
        lambda v: AdmissionController(max_inflight=v),
        [0, -1, 1.5, NAN, True, "2"], "--max-inflight", "0",
    ),
    "max_queue": (
        lambda v: AdmissionController(max_queue=v),
        [-1, 1.5, NAN, None, True], "--max-queue", "-1",
    ),
    "queue_timeout": (
        lambda v: AdmissionController(queue_timeout=v),
        [-1, NAN, INF, None, "1"], "--queue-timeout", "nan",
    ),
    "interval": (
        _spiller, [0, -1, NAN, INF, None], "--cache-spill-interval", "nan",
    ),
    "read_timeout": (
        lambda v: make_server(port=0, read_timeout=v),
        [0, -1, NAN, INF], "--read-timeout", "-1",
    ),
    "max_timeout_ms": (
        lambda v: make_server(port=0, max_timeout_ms=v),
        [0, -1, NAN, INF], "--max-timeout-ms", "0",
    ),
    "slow_ms": (
        lambda v: make_server(port=0, slow_ms=v),
        [-1, NAN, INF], "--slow-ms", "nan",
    ),
    "drain_timeout": (
        lambda v: serve(port=0, quiet=True, drain_timeout=v),
        [-1, NAN, INF, None], "--drain-timeout", "-1",
    ),
}


class _NoServer:
    """Stands in for ``HintHTTPServer``: a bad setting must stop
    ``make_server``/``serve`` before any port is bound or served."""

    def __init__(self, *args, **kwargs):
        raise AssertionError("a server was built despite a bad setting")


class TestServeSettings:
    @pytest.mark.parametrize("setting", list(SERVE_SETTINGS))
    def test_bad_value_raises_and_serve_exits_2(
        self, setting, serve_argv, capsys, monkeypatch
    ):
        import repro.service.server as server_module
        from repro.cli import main

        build, bad_values, flag, flag_value = SERVE_SETTINGS[setting]
        monkeypatch.setattr(server_module, "HintHTTPServer", _NoServer)
        for value in bad_values:
            with pytest.raises(ValueError, match=setting):
                build(value)
        assert main(serve_argv + [flag, flag_value]) == 2
        assert f"error: {setting} must be" in capsys.readouterr().err

    def test_taken_port_exits_2(self, capsys):
        import socket

        from repro.cli import main

        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen()
            port = holder.getsockname()[1]
            assert main(["serve", "--port", str(port), "--quiet"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_failed_serve_leaves_later_servers_quiet(
        self, start_server, capsys
    ):
        # Access logging is a setting of each server: a serve() that
        # asked for it, and failed, must not switch it on for the next.
        from repro.cli import main

        assert main(["serve", "--max-timeout-ms", "0"]) == 2
        capsys.readouterr()
        _, base = start_server()
        with urllib.request.urlopen(base + "/healthz", timeout=5) as resp:
            assert resp.status == 200
        assert capsys.readouterr().err == ""

    def test_boundary_values_are_accepted(self):
        admission = AdmissionController(
            max_inflight=1, max_queue=0, queue_timeout=0
        )
        assert (admission.max_inflight, admission.max_queue) == (1, 0)
        assert AdmissionController(max_inflight=None).max_inflight is None
        assert _spiller(0.001).interval == 0.001
        server = make_server(
            port=0, slow_ms=0, read_timeout=0.5, max_timeout_ms=1
        )
        server.server_close()


class TestWorkerRecovery:
    """A form whose grading fails costs only its own submissions."""

    def test_grade_error_detail_carries_traceback_frame(self, beers_catalog):
        # Regression: batch failures used to surface only str(exc); the
        # innermost traceback frame now rides along for debugging.
        unrepairable = "SELECT beer FROM Serves WHERE price < 1 OR bar = 'x'"
        batch = grade_batch(
            beers_catalog, TARGET, [unrepairable], max_sites=0
        )
        assert batch.errors == 1
        error = batch.results[0]
        assert isinstance(error, GradeError)
        assert error.kind == "RepairError"
        assert error.detail.startswith('File "')
        assert ", line " in error.detail


class TestBatchDeadline:
    def test_expired_form_is_graded_once_and_not_cached(
        self, beers_catalog
    ):
        # Each DPLL(T) round sleeps 30ms, so the form's 10ms budget runs
        # out mid-pipeline: one degraded run serves all three copies.
        FAULTS.activate("solver.slow", ms=30)
        session = AssignmentSession(beers_catalog, TARGET)
        runs = session.pipeline_runs
        batch = grade_batch(
            beers_catalog, TARGET, [WRONG] * 3, session=session,
            timeout_ms=10, witness=True,
        )
        assert batch.errors == 0 and batch.unique == 1
        assert session.pipeline_runs == runs + 1
        assert all(r.degraded and r.witness is None for r in batch.results)
        # As in AssignmentSession.grade, no degraded result is a cache hit.
        assert not any(r.cached for r in batch.results)
        canonical, _ = session.prepare(WRONG)
        assert canonical not in session.cache
        # A later grade with no fault and no budget is a full one.
        FAULTS.clear()
        later = session.grade(WRONG)
        assert not later.degraded and not later.cached

    def test_degraded_submissions_are_counted_uncached(self, beers_catalog):
        FAULTS.activate("solver.slow", ms=30)
        grades = REGISTRY.get("repro_grades_total")
        before = [grades.value(cached=c) for c in ("false", "true")]
        grade_batch(beers_catalog, TARGET, [WRONG] * 3, timeout_ms=10)
        after = [grades.value(cached=c) for c in ("false", "true")]
        assert [a - b for a, b in zip(after, before)] == [3, 0]

    @pytest.mark.parametrize("bad", [0, -1.0, math.nan, math.inf])
    def test_timeout_must_be_positive_and_finite(self, beers_catalog, bad):
        with pytest.raises(ValueError, match="timeout_ms"):
            grade_batch(beers_catalog, TARGET, [WRONG], timeout_ms=bad)


class TestSpillerFaults:
    def test_spill_io_error_is_counted_not_fatal(
        self, tmp_path, beers_catalog
    ):
        FAULTS.activate("spill.io")
        session = AssignmentSession(beers_catalog, TARGET)
        path = tmp_path / "cache.json"
        spiller = CacheSpiller(session, str(path), interval=3600)
        session.grade(WRONG)  # dirty the cache
        # stop() without start(): the final flush hits the injected
        # OSError, which is swallowed and counted rather than raised.
        spiller.stop()
        assert spiller.errors == 1
        assert spiller.stats()["errors"] == 1
        assert not path.exists()
        # With the fault gone the same spiller recovers on the next try.
        FAULTS.clear()
        assert spiller.spill() >= 1

    def test_stop_join_timeout_is_counted_and_skips_flush(
        self, tmp_path, beers_catalog
    ):
        # Regression: a wedged spill thread used to hang shutdown on an
        # unbounded join, and a "successful" stop() would then race a
        # second writer against it.  Now the join is bounded, counted,
        # and the final flush is skipped while the thread is live.
        FAULTS.activate("spill.stall", s=20)
        session = AssignmentSession(beers_catalog, TARGET)
        path = tmp_path / "cache.json"
        spiller = CacheSpiller(session, str(path), interval=0.05)
        spiller.start()
        try:
            session.grade(WRONG)  # dirty the cache so the loop spills
            deadline = time.monotonic() + 5.0
            point = FAULTS.active("spill.stall")
            while point.hits == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            started = time.monotonic()
            spiller.stop(join_timeout=0.2)
            assert time.monotonic() - started < 5.0
            assert spiller.join_timeouts == 1
            assert spiller.stats()["join_timeouts"] == 1
            # The flush was skipped: nothing was written concurrently
            # with the wedged thread's in-flight spill.
            assert spiller.spills == 0
        finally:
            spiller._stop.set()
