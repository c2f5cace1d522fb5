"""Tests for repro.obs: tracer semantics, metrics, exposition."""

import json
import threading

import pytest

from repro.catalog import Catalog
from repro.obs import REGISTRY, TRACER, MetricsRegistry, log_buckets
from repro.obs.export import parse_prometheus_text, service_metric_families
from repro.obs.metrics import render_families
from repro.obs.trace import _NULL_SPAN
from repro.service.batch import grade_batch
from repro.service.server import HintService
from repro.service.session import AssignmentSession

SCHEMA = {
    "Serves": [["bar", "STRING"], ["beer", "STRING"], ["price", "FLOAT"]],
}
TARGET = "SELECT bar FROM Serves WHERE price > 10"
WRONG = "SELECT bar FROM Serves WHERE price > 5"


def catalog():
    return Catalog.from_spec(SCHEMA)


# ---------------------------------------------------------------------------
# Tracer


class TestTracer:
    def test_disabled_returns_shared_null_span(self):
        assert not TRACER.enabled
        span = TRACER.span("anything", attr=1)
        assert span is _NULL_SPAN
        with span as inner:
            inner.set(more=2)  # no-op, no error

    def test_span_nesting_and_attrs(self):
        with TRACER.trace("root", run=7) as handle:
            assert TRACER.enabled
            with TRACER.span("child") as child:
                child.set(key="value")
                with TRACER.span("grandchild"):
                    pass
            with TRACER.span("sibling"):
                pass
        assert not TRACER.enabled
        d = handle.to_dict()
        assert [s["name"] for s in d["spans"]] == [
            "root", "child", "grandchild", "sibling"
        ]
        by_name = {s["name"]: s for s in d["spans"]}
        assert by_name["root"]["parent"] is None
        assert by_name["child"]["parent"] == by_name["root"]["id"]
        assert by_name["grandchild"]["parent"] == by_name["child"]["id"]
        assert by_name["sibling"]["parent"] == by_name["root"]["id"]
        assert by_name["root"]["attrs"] == {"run": 7}
        assert by_name["child"]["attrs"] == {"key": "value"}
        assert len(d["trace_id"]) == 16
        # tree mirrors the parent links
        (tree_root,) = d["tree"]
        assert [c["name"] for c in tree_root["children"]] == [
            "child", "sibling"
        ]
        json.dumps(d)  # JSON-safe

    def test_nested_trace_captures_subtree(self):
        with TRACER.trace("outer") as outer:
            with TRACER.span("before"):
                pass
            with TRACER.trace("inner") as inner:
                with TRACER.span("work"):
                    pass
        inner_names = [s["name"] for s in inner.to_dict()["spans"]]
        outer_names = [s["name"] for s in outer.to_dict()["spans"]]
        assert inner_names == ["inner", "work"]
        # the nested capture also stays inside the outer trace
        assert outer_names == ["outer", "before", "inner", "work"]
        # both traces share one trace id (same recording)
        assert inner.trace_id == outer.trace_id

    def test_exception_records_error_attr(self):
        with pytest.raises(RuntimeError):
            with TRACER.trace("boom") as handle:
                with TRACER.span("inner"):
                    raise RuntimeError("nope")
        by_name = {s["name"]: s for s in handle.to_dict()["spans"]}
        assert by_name["inner"]["attrs"]["error"] == "RuntimeError"
        assert by_name["boom"]["attrs"]["error"] == "RuntimeError"
        assert not TRACER.enabled  # trace deactivated despite the raise

    def test_traces_are_thread_local(self):
        seen = {}

        def other_thread():
            seen["enabled"] = TRACER.enabled
            seen["span"] = TRACER.span("elsewhere")

        with TRACER.trace("here"):
            worker = threading.Thread(target=other_thread)
            worker.start()
            worker.join()
        # The hot-path flag is a conservative process-wide hint...
        assert seen["enabled"] is True
        # ...but recording stays thread-local: the other thread fell
        # through to span() and got the no-op span, not a recorded one.
        assert seen["span"] is _NULL_SPAN
        assert not TRACER.enabled

    def test_render_indents_by_depth(self):
        with TRACER.trace("a") as handle:
            with TRACER.span("b"):
                with TRACER.span("c"):
                    pass
        lines = handle.render()
        assert lines[0].startswith("a ")
        assert lines[1].startswith("  b ")
        assert lines[2].startswith("    c ")


# ---------------------------------------------------------------------------
# Metrics


class TestMetrics:
    def test_counter_labels_and_errors(self):
        reg = MetricsRegistry()
        c = reg.counter("hits_total", "hits", ("kind",))
        c.inc(kind="a")
        c.inc(2, kind="a")
        c.inc(kind="b")
        assert c.value(kind="a") == 3
        assert c.value(kind="b") == 1
        assert c.value(kind="missing") == 0
        with pytest.raises(ValueError):
            c.inc(-1, kind="a")
        with pytest.raises(ValueError):
            c.inc(wrong_label="a")

    def test_registration_is_idempotent_but_typed(self):
        reg = MetricsRegistry()
        c1 = reg.counter("x_total", "x", ("l",))
        c2 = reg.counter("x_total", "x", ("l",))
        assert c1 is c2
        with pytest.raises(ValueError):
            reg.histogram("x_total")
        with pytest.raises(ValueError):
            reg.counter("x_total", "x", ("other",))

    def test_histogram_quantiles_from_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_seconds", "latency", buckets=log_buckets())
        for _ in range(90):
            h.observe(0.001)
        for _ in range(9):
            h.observe(0.1)
        h.observe(10.0)
        assert h.count() == 100
        assert h.sum() == pytest.approx(90 * 0.001 + 9 * 0.1 + 10.0)
        # quantile returns the upper bound of the containing bucket
        assert h.quantile(0.5) <= 0.0016
        assert 0.05 <= h.quantile(0.95) <= 0.2
        assert h.quantile(0.999) >= 10.0

    def test_histogram_overflow_lands_in_inf_bucket(self):
        reg = MetricsRegistry()
        h = reg.histogram("t_seconds", "t", buckets=(0.1, 1.0))
        h.observe(50.0)
        assert h.count() == 1
        assert h.quantile(0.5) == 1.0  # capped at the top finite bound

    def test_render_parses_as_prometheus_text(self):
        reg = MetricsRegistry()
        c = reg.counter("req_total", "requests", ("route", "status"))
        c.inc(4, route="/grade", status="200")
        c.inc(1, route="/grade", status="400")
        h = reg.histogram("req_seconds", "latency", ("route",),
                          buckets=(0.01, 0.1, 1.0))
        h.observe(0.05, route="/grade")
        h.observe(0.5, route="/grade")
        text = reg.render()
        families = parse_prometheus_text(text)
        assert families["req_total"]["kind"] == "counter"
        samples = {
            (labels["route"], labels["status"]): value
            for _, labels, value in families["req_total"]["samples"]
        }
        assert samples[("/grade", "200")] == 4
        hist = families["req_seconds"]
        assert hist["kind"] == "histogram"
        buckets = {
            labels["le"]: value
            for name, labels, value in hist["samples"]
            if name == "req_seconds_bucket"
        }
        assert buckets["0.1"] == 1
        assert buckets["+Inf"] == 2

    def test_label_escaping_survives_round_trip(self):
        reg = MetricsRegistry()
        c = reg.counter("weird_total", "weird", ("sql",))
        c.inc(sql='SELECT "x"\nFROM t\\u')
        families = parse_prometheus_text(reg.render())
        ((_, labels, value),) = families["weird_total"]["samples"]
        assert labels["sql"] == 'SELECT "x"\nFROM t\\u'
        assert value == 1

    def test_parser_rejects_malformed_text(self):
        with pytest.raises(ValueError):
            parse_prometheus_text("no_type_declared 1\n")
        with pytest.raises(ValueError):
            parse_prometheus_text("# TYPE x bogus_kind\nx 1\n")
        with pytest.raises(ValueError):
            parse_prometheus_text("# TYPE x counter\nx notanumber\n")
        # histogram without +Inf bucket
        bad = (
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 1\n'
            "h_sum 0.5\n"
            "h_count 1\n"
        )
        with pytest.raises(ValueError):
            parse_prometheus_text(bad)
        # _count disagreeing with +Inf
        bad = (
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 1\n'
            'h_bucket{le="+Inf"} 2\n'
            "h_sum 0.5\n"
            "h_count 3\n"
        )
        with pytest.raises(ValueError):
            parse_prometheus_text(bad)
        # _sum and _count without buckets
        bad = "# TYPE h histogram\nh_sum 0.5\nh_count 1\n"
        with pytest.raises(ValueError):
            parse_prometheus_text(bad)

    def test_batch_records_stage_seconds_in_this_process(self):
        # Every unique form's pipeline run observes this process's stage
        # histogram, whatever grade_batch's arguments.
        stage_seconds = REGISTRY.get("repro_stage_seconds")
        before = stage_seconds.count(stage="FROM")
        subs = [f"SELECT bar FROM Serves WHERE price > {i}" for i in range(3)]
        batch = grade_batch(catalog(), TARGET, subs)
        assert batch.unique == 3
        assert stage_seconds.count(stage="FROM") == before + 3

    def test_parser_accepts_histogram_with_no_samples_yet(self):
        families = parse_prometheus_text("# TYPE h histogram\n")
        assert families["h"] == {"kind": "histogram", "help": "",
                                 "samples": []}


# ---------------------------------------------------------------------------
# Service exposition


class TestServiceFamilies:
    def test_solver_cache_counters_rehomed(self):
        service = HintService()
        service.create_assignment(
            catalog(), TARGET, assignment_id="a1"
        )
        session = service.session("a1")
        session.grade(WRONG)
        session.grade(WRONG)  # second grade hits the artifact cache
        families = {f["name"]: f for f in service_metric_families(service)}
        def value(name):
            ((labels, v),) = families[name]["samples"]
            assert labels == {"assignment": "a1"}
            return v
        assert value("repro_session_submissions_total") == 2
        assert value("repro_session_pipeline_runs_total") == 1
        assert value("repro_cache_hits_total") == 1
        assert value("repro_cache_misses_total") == 1
        assert value("repro_solver_sat_calls_total") > 0
        text = render_families(service_metric_families(service))
        parsed = parse_prometheus_text(text)
        assert "repro_solver_sat_calls_total" in parsed


# ---------------------------------------------------------------------------
# End-to-end traced grading


class TestTracedGrading:
    def test_traced_grade_covers_stages_and_solver(self):
        session = AssignmentSession(catalog(), TARGET)
        with TRACER.trace("grade") as handle:
            result = session.grade(WRONG)
        assert not result.all_passed
        names = [s["name"] for s in handle.to_dict()["spans"]]
        for required in (
            "session.grade",
            "cache.get",
            "pipeline.run",
            "stage.FROM",
            "stage.WHERE",
            "stage.SELECT",
            "solver.solve",
        ):
            assert required in names, f"missing span {required}: {names}"

    def test_cached_grade_skips_pipeline_spans(self):
        session = AssignmentSession(catalog(), TARGET)
        session.grade(WRONG)  # warm the artifact cache
        with TRACER.trace("grade") as handle:
            result = session.grade(WRONG)
        assert result.cached
        names = [s["name"] for s in handle.to_dict()["spans"]]
        assert "pipeline.run" not in names
        assert "cache.get" in names

    def test_batch_traces_serialize_and_reparent(self):
        subs = [WRONG, WRONG, "SELECT beer FROM Serves WHERE price < 2"]
        with TRACER.trace("batch") as handle:
            batch = grade_batch(catalog(), TARGET, subs, trace=True)
        assert len(batch.traces) == batch.unique == 2
        for trace in batch.traces:
            names = [s["name"] for s in trace["spans"]]
            assert names[0] == "grade"
            assert "pipeline.run" in names
            json.dumps(trace)
        # the serial path records straight into the open parent trace
        parent_names = [s["name"] for s in handle.to_dict()["spans"]]
        assert parent_names.count("grade") == 2

    def test_untraced_batch_has_no_traces(self):
        batch = grade_batch(catalog(), TARGET, [WRONG])
        assert batch.traces == []


# ---------------------------------------------------------------------------
# Solver-effort attribution


class TestEffortUnits:
    def test_delta_orders_effort_keys_first(self):
        from repro.obs import EFFORT_KEYS, effort_delta

        before = {"sat_calls": 2, "propagations": 10, "custom": 1}
        after = {"sat_calls": 5, "propagations": 25, "custom": 4}
        delta = effort_delta(before, after)
        assert delta["sat_calls"] == 3
        assert delta["propagations"] == 15
        assert delta["custom"] == 3
        ordered = list(delta)
        assert ordered.index("sat_calls") < ordered.index("custom")
        assert [k for k in ordered if k in EFFORT_KEYS] == [
            k for k in EFFORT_KEYS if k in delta
        ]

    def test_snapshot_filters_non_ints(self):
        from repro.obs import effort_snapshot
        from repro.solver import Solver

        snap = effort_snapshot(Solver())
        assert all(isinstance(v, int) for v in snap.values())
        assert "sat_calls" in snap
        assert "cache_hit_rate" not in snap

    def test_meter_and_merge(self):
        from repro.obs import effort_delta, merge_effort
        from repro.logic.formulas import Comparison
        from repro.logic.terms import const, intvar
        from repro.solver import Solver

        solver = Solver()
        formula = Comparison("<", intvar("x"), const(3))
        before = solver.stats_snapshot()
        solver.find_model(formula)
        delta = effort_delta(before, solver.stats_snapshot())
        assert delta["sat_calls"] >= 1
        assert "cache_hit_rate" not in delta  # derived floats are skipped
        total = merge_effort({}, delta)
        merge_effort(total, delta)
        assert total["sat_calls"] == 2 * delta["sat_calls"]

    def test_mean_effort_rounds_per_delta(self):
        from repro.obs import mean_effort

        deltas = [{"sat_calls": 1, "propagations": 10},
                  {"sat_calls": 2},
                  {"sat_calls": 3, "propagations": 5}]
        means = mean_effort(deltas)
        assert means["sat_calls"] == 2.0
        # Absent keys count as zero contribution over ALL deltas.
        assert means["propagations"] == 5.0
        assert mean_effort([]) == {}

    def test_record_route_effort_bounded_labels(self):
        from repro.obs import MetricsRegistry, record_route_effort

        registry = MetricsRegistry()
        counter = record_route_effort(
            "/grade", {"sat_calls": 4, "propagations": 0, "bogus": 9},
            registry=registry,
        )
        assert counter.value(route="/grade", counter="sat_calls") == 4
        # Zero-valued and non-EFFORT_KEYS counters are never emitted.
        assert counter.value(route="/grade", counter="propagations") == 0
        assert counter.value(route="/grade", counter="bogus") == 0


class TestEffortAttribution:
    def test_grade_effort_opt_in(self):
        session = AssignmentSession(catalog(), TARGET)
        plain = session.grade(WRONG)
        assert plain.effort is None
        assert "effort" not in plain.to_dict()

        session = AssignmentSession(catalog(), TARGET)
        measured = session.grade(WRONG, effort=True)
        assert measured.effort is not None
        assert measured.effort["sat_calls"] >= 1
        assert measured.to_dict()["effort"] == measured.effort

    def test_effort_field_does_not_change_grading(self):
        a = AssignmentSession(catalog(), TARGET).grade(WRONG)
        b = AssignmentSession(catalog(), TARGET).grade(WRONG, effort=True)
        assert a.stage_hints == b.stage_hints
        assert a.text() == b.text()

    def test_cached_grade_measures_zero_effort(self):
        session = AssignmentSession(catalog(), TARGET)
        session.grade(WRONG, effort=True)
        cached = session.grade(WRONG, effort=True)
        assert cached.cached
        assert all(v == 0 for v in cached.effort.values())

    def test_stage_spans_carry_effort_when_traced(self):
        session = AssignmentSession(catalog(), TARGET)
        with TRACER.trace("grade-with-effort") as handle:
            session.grade(WRONG)
        stage_spans = [
            s for s in handle.to_dict()["spans"]
            if s["name"].startswith("stage.")
        ]
        assert stage_spans
        assert all("effort" in s["attrs"] for s in stage_spans)
        where = [s for s in stage_spans if s["name"] == "stage.WHERE"]
        assert where and where[0]["attrs"]["effort"].get("sat_calls", 0) >= 1
        # Effort attrs only list nonzero counters (compact JSON).
        for span in stage_spans:
            assert all(v for v in span["attrs"]["effort"].values())

    def test_batch_effort_per_form(self):
        from repro.obs import EFFORT_KEYS

        subs = [WRONG, WRONG, "SELECT beer FROM Serves WHERE price < 2"]
        batch = grade_batch(catalog(), TARGET, subs, effort=True)
        efforts = [r.effort for r in batch.results]
        assert all(e is not None for e in efforts)
        assert all(set(EFFORT_KEYS) <= set(e) for e in efforts)
        # Duplicate submissions share their unique form's grading delta.
        assert efforts[0] == efforts[1]
        assert efforts[0]["sat_calls"] >= 1
        assert efforts[2]["sat_calls"] >= 1
        # Only a form cached before the batch carries an all-zero delta.
        session = AssignmentSession(catalog(), TARGET)
        session.grade(WRONG)
        warm = grade_batch(
            catalog(), TARGET, [WRONG], session=session, effort=True
        )
        assert warm.results[0].effort == dict.fromkeys(EFFORT_KEYS, 0)

    def test_batch_without_effort_leaves_field_none(self):
        batch = grade_batch(catalog(), TARGET, [WRONG])
        assert batch.results[0].effort is None
