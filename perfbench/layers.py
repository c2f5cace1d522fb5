"""Where the traced run wraps the program, and the per-layer metrics.

Each wrapper sits on the name binding the program actually calls
through (a ``from x import f`` copies the binding, so ``f`` is wrapped in
the importing module).  Layer names are module names.  Every metric is
reported per pass of the workload, so runs of different lengths compare.
"""

from __future__ import annotations

import importlib
import statistics

from repro.boolmin import DONT_CARE

STAGES = ("FROM", "WHERE", "GROUP_BY", "HAVING", "SELECT")
#: Solver counters read as deltas around each grade.
SOLVER_COUNTERS = (
    "sat_calls", "theory_calls", "theory_cache_hits", "core_pruned_subtrees",
)


def _module(name):
    # ``import repro.core.derive_fixes as m`` yields the function that
    # ``repro.core`` re-exports under the module's name.
    return importlib.import_module(name)


def _grade_before(args):
    return args[0].solver.stats_snapshot()


def _grade_after(before, args, result):
    after = args[0].solver.stats_snapshot()
    attrs = {key: after[key] - before[key] for key in SOLVER_COUNTERS}
    attrs["cached"] = result.cached
    return attrs


def _repair_after(stage):
    def after(_, args, result):
        return {
            "stage": stage,
            "sites": result.sites_considered,
            "viable": len(result.trace),
        }
    return after


def _table_after(_, args, table):
    dont_care = sum(1 for value in table.outputs.values() if value == DONT_CARE)
    return {"vars": table.num_vars, "rows": 1 << table.num_vars,
            "dont_care": dont_care}


def install(recorder, workload):
    """Wrap every layer boundary the per-layer metrics read."""
    session = _module("repro.service.session")
    pipeline = _module("repro.core.pipeline")
    having = _module("repro.core.having_stage")
    where = _module("repro.core.where_repair")
    minimize = _module("repro.boolmin.minimize")
    wrap = recorder.wrap

    if workload.over_http:
        # The client's round trip; the server thread's grade is its child.
        wrap(workload, "post", "server.request", carries=True)
    wrap(session.AssignmentSession, "grade", "service.grade",
         before=_grade_before, after=_grade_after)
    wrap(session, "parse_query_extended", "sqlparser.parse")
    wrap(session, "canonicalize", "service.canonicalize")
    wrap(session, "generate_witness", "witness.generate")

    # The stage whose entry point ran last: analyze_having opens HAVING
    # right after GROUP BY, and SELECT calls it again once HAVING is done.
    last = {"stage": None}

    def stage_name(stage):
        def name():
            last["stage"] = stage
            return f"pipeline.{stage}"
        return name

    for attr, stage in (
        ("check_from", "FROM"),
        ("apply_from_fix", "FROM"),
        ("fix_grouping", "GROUP_BY"),
        ("apply_grouping_fix", "GROUP_BY"),
        ("having_equivalent", "HAVING"),
        ("repair_having", "HAVING"),
        ("fix_select", "SELECT"),
        ("apply_select_fix", "SELECT"),
    ):
        wrap(pipeline, attr, stage_name(stage))
    wrap(pipeline, "analyze_having", lambda: stage_name(
        "HAVING" if last["stage"] == "GROUP_BY" else "SELECT"
    )())
    wrap(pipeline, "repair_where", "where_repair", after=_repair_after("WHERE"))
    wrap(having, "repair_where", "where_repair", after=_repair_after("HAVING"))

    for attr in ("bounds_admit", "derive_fixes", "min_fix_mult"):
        wrap(where, attr, f"where_repair.{attr}")
    for name in ("repro.core.derive_opt", "repro.core.minfix"):
        module = _module(name)
        wrap(module, "map_atom_preds", "minfix.map_atom_preds")
        wrap(module, "build_truth_table", "minfix.truth_table",
             after=_table_after)

    wrap(minimize, "prime_implicants", "boolmin.primes",
         after=lambda _, args, primes: {"generated": len(primes)})
    wrap(minimize, "select_cover", "boolmin.cover",
         after=lambda _, args, cover: {"chosen": len(cover)})

    wrap(_module("repro.solver.smt"), "check_literals", "solver.theory")
    wrap(_module("repro.solver.arith"), "is_satisfiable", "solver.arith")
    wrap(_module("repro.solver.strings"), "check_strings", "solver.strings")
    wrap(_module("repro.solver.sat").SatSolver, "solve", "solver.sat")


def metrics(recorder, passes, overhead_ratio):
    """Every per-layer metric, per pass, from the recorded spans."""
    groups = recorder.by_name()

    def spans(name):
        return [span for span, _ in groups.get(name, ())]

    def calls(name):
        return len(spans(name)) / passes

    def ms(name, keep=None):
        return sum(
            (end - start) for _, _, _, start, end, attrs in spans(name)
            if keep is None or keep(attrs)
        ) * 1000.0 / passes

    def self_ms(name):
        return sum(own for _, own in groups.get(name, ())) * 1000.0 / passes

    def attr_total(name, key):
        return sum(
            attrs[key] for *_, attrs in spans(name) if attrs is not None
        )

    def share(part, whole):
        return part / whole if whole else 0.0

    grades = [attrs for *_, attrs in spans("service.grade") if attrs]
    counter = {
        key: sum(attrs[key] for attrs in grades) for key in SOLVER_COUNTERS
    }
    requests = [own for _, own in groups.get("server.request", ())]
    rows = attr_total("minfix.truth_table", "rows")
    grade_ms = ms("service.grade")

    values = {
        "sqlparser.parse.calls": calls("sqlparser.parse"),
        "sqlparser.parse.ms": ms("sqlparser.parse"),
        "service.canonicalize.ms": ms("service.canonicalize"),
        "service.grade.self_ms": self_ms("service.grade"),
        "service.cache.hit_rate": share(
            sum(attrs["cached"] for attrs in grades), len(grades)
        ),
        "server.overhead_ms_p50": (
            statistics.median(requests) * 1000.0 if requests else 0.0
        ),
        "where_repair.calls": calls("where_repair"),
        "where_repair.ms": ms("where_repair"),
        "where_repair.sites_considered": (
            attr_total("where_repair", "sites") / passes
        ),
        "where_repair.viable_ratio": share(
            attr_total("where_repair", "viable"),
            attr_total("where_repair", "sites"),
        ),
        "where_repair.bounds_admit.ms": ms("where_repair.bounds_admit"),
        "where_repair.derive_fixes.ms": ms("where_repair.derive_fixes"),
        "where_repair.min_fix_mult.ms": ms("where_repair.min_fix_mult"),
        "minfix.map_atom_preds.ms": ms("minfix.map_atom_preds"),
        "minfix.truth_table.calls": calls("minfix.truth_table"),
        "minfix.truth_table.self_ms": self_ms("minfix.truth_table"),
        "minfix.truth_table.rows": rows / passes,
        "minfix.truth_table.vars_max": max(
            (attrs["vars"] for *_, attrs in spans("minfix.truth_table")
             if attrs is not None),
            default=0,
        ),
        "minfix.truth_table.dont_care_share": share(
            attr_total("minfix.truth_table", "dont_care"), rows
        ),
        "boolmin.primes.calls": calls("boolmin.primes"),
        "boolmin.primes.ms": ms("boolmin.primes"),
        "boolmin.primes.generated": (
            attr_total("boolmin.primes", "generated") / passes
        ),
        "boolmin.primes.useful_ratio": share(
            attr_total("boolmin.cover", "chosen"),
            attr_total("boolmin.primes", "generated"),
        ),
        "boolmin.cover.ms": ms("boolmin.cover"),
        "solver.theory.calls": calls("solver.theory"),
        "solver.theory.ms": ms("solver.theory"),
        "solver.theory.cache_hit_rate": share(
            counter["theory_cache_hits"],
            counter["theory_cache_hits"] + counter["theory_calls"],
        ),
        "solver.arith.calls": calls("solver.arith"),
        "solver.arith.ms": ms("solver.arith"),
        "solver.strings.ms": ms("solver.strings"),
        "solver.sat.calls": counter["sat_calls"] / passes,
        "solver.sat.ms": ms("solver.sat"),
        "solver.core_pruned_subtrees": counter["core_pruned_subtrees"] / passes,
        "witness.generate.calls": calls("witness.generate"),
        "witness.generate.ms": ms("witness.generate"),
        "trace.overhead_ratio": overhead_ratio,
        "trace.attributed_share": share(
            grade_ms - self_ms("service.grade"), grade_ms
        ),
    }
    for stage in STAGES:
        values[f"pipeline.{stage}.ms"] = ms(f"pipeline.{stage}")
    values["pipeline.WHERE.ms"] += ms(
        "where_repair", keep=lambda attrs: attrs and attrs["stage"] == "WHERE"
    )
    return values


def by_question(recorder, workload, grades):
    """Question -> ``(grades, {layer: self ms})`` over its traced grades.

    Grade spans are matched to ``grades`` by start order, which is exact
    for one client in a closed loop; each layer's self time is summed over
    the grade span and everything below it.
    """
    self_of = recorder.self_times()
    children = {}
    for span in recorder.spans:
        children.setdefault(span[1], []).append(span)
    roots = sorted(
        (span for span in recorder.spans if span[2] == "service.grade"),
        key=lambda span: span[3],
    )
    out = {}
    for grade, root in zip(grades, roots):
        question = workload.items[grade.item].question
        if question is None:
            continue
        count, layers = out.setdefault(question, (0, {}))
        pending = [root]
        while pending:
            span = pending.pop()
            layers[span[2]] = layers.get(span[2], 0.0) + self_of[span[0]] * 1000.0
            pending.extend(children.get(span[0], ()))
        out[question] = (count + 1, layers)
    return dict(sorted(out.items()))
