"""End-to-end grading benchmark with a per-layer breakdown.

Run from the root of the repository (Python 3, no dependencies)::

    python3 perfbench/run.py --workload tutor-cold --seed 1 --seconds 20 --trace 0

It sets the workload up several times, grades whole passes of it for
about ``--seconds``, checks every output, prints each metric by name and
unit, and ends with one JSON line: with ``--trace 0`` the end-to-end
metrics of ``BENCHMARK.json``; with ``--trace 1`` the same passes are
graded again with span wrappers installed and the per-layer metrics are
reported instead (spans go to ``perfbench/out/trace-<workload>.jsonl``).
The exit code is 0 only when every output check passed.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: A run sets up at least this many times and for at least this long;
#: ``setup_s`` is the median.
SETUPS = 3
SETUP_SECONDS = 1.0
#: ``latency_tail_ms`` is the highest percentile with this many samples
#: above it.
TAIL_BEYOND = 10


def start_program():
    """Import the program in a fresh interpreter, as a grading process does.

    This process imported it once already; without this, work moved to
    import time would not show in ``setup_s``.
    """
    subprocess.run(
        [sys.executable, "-c", "import repro.corpus, repro.service"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=True,
    )


def measure(workload, seconds=None, passes=None):
    """Grade whole passes; ``(passes, wall seconds of each pass)``.

    With ``seconds``, stop before a pass that would likely end past it
    (at least one pass); with ``passes``, grade exactly that many.
    """
    done, walls = [], []
    while True:
        start = time.perf_counter()
        done.append(workload.run_pass())
        walls.append(time.perf_counter() - start)
        if passes is not None:
            if len(done) == passes:
                break
        elif sum(walls) * (len(done) + 1) / len(done) > seconds:
            break
    return done, walls


def tail(samples):
    """``(value, percentile)`` with ``TAIL_BEYOND`` samples above it."""
    rank = len(samples) - TAIL_BEYOND
    return sorted(samples)[rank - 1], 100.0 * rank / len(samples)


def show(name, value, unit, note=""):
    print(f"  {name:<34} {value:>14.6g} {unit:<9} {note}".rstrip())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import grading
    import layers
    from spans import SpanRecorder

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((HERE / "expected.json").read_text())
    if args.workload not in grading.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(have: {', '.join(grading.WORKLOADS)})")
    workload = grading.WORKLOADS[args.workload](args.seed)

    setup_times = []
    traced = recorder = None
    try:
        while len(setup_times) < SETUPS or sum(setup_times) < SETUP_SECONDS:
            workload.teardown()
            start = time.perf_counter()
            start_program()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
        passes, walls = measure(workload, seconds=args.seconds)
        if args.trace:
            recorder = SpanRecorder()
            layers.install(recorder, workload)
            try:
                traced, traced_walls = measure(workload, passes=len(passes))
            finally:
                recorder.uninstall()
    finally:
        workload.teardown()

    traced = traced or []
    ok, report = grading.check_outputs(
        workload, passes + traced, expected.get(workload.name)
    )
    grades = [grade for graded in passes for grade in graded]
    every = workload.setup_grades + [
        grade for graded in passes + traced for grade in graded
    ]
    attempted = len(every)
    failed = sum(not grade.ok for grade in every)
    ok = ok and failed == 0

    latencies = [grade.latency for grade in grades]
    values = {
        "setup_s": statistics.median(setup_times),
        "grades_per_s": len(grades) / sum(walls),
        "latency_p50_ms": statistics.median(latencies) * 1000.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }

    print(f"workload {workload.name}  seed {args.seed}  passes {len(passes)}"
          f"  grades {len(grades)}  wall {sum(walls):.3f} s")
    show("setup_s", values["setup_s"], "s",
         f"median of {len(setup_times)}: "
         + ", ".join(f"{t:.4f}" for t in setup_times))
    show("grades_per_s", values["grades_per_s"], "grades/s")
    show("latency_p50_ms", values["latency_p50_ms"], "ms",
         f"n={len(latencies)}")
    if workload.name == "tutor-cold":
        for question, samples in sorted(
            workload.question_latencies(grades).items()
        ):
            show(f"{question.lower()}_cold_ms",
                 statistics.median(samples) * 1000.0, "ms",
                 f"median of n={len(samples)}")
    else:
        value, percentile = tail(latencies)
        show("latency_tail_ms", value * 1000.0, "ms",
             f"p{percentile:.2f} of n={len(latencies)}")
    show("failed_ratio", failed / attempted, "share",
         f"{failed} of {attempted}")
    show("repair_equivalent_rate", report["repair_equivalent_rate"], "share",
         f"{report['repairs_checked']} distinct repaired queries")
    if "witness_verified_rate" in report:
        show("witness_verified_rate", report["witness_verified_rate"], "share")
    show("output_digest_match", report["digest_match"], "0/1",
         " ".join(str(d) for d in report["digest"]))
    show("peak_rss_mb", values["peak_rss_mb"], "MB")
    show("cache_hit_rate", report["hit_rate"], "share")

    key = "end_to_end"
    if args.trace:
        key = "per_layer"
        values = layers.metrics(
            recorder, len(traced), sum(traced_walls) / sum(walls)
        )
        print(f"traced {len(traced)} passes in {sum(traced_walls):.3f} s")
        for metric in spec[key]:
            show(metric["name"], values[metric["name"]], metric["unit"])
        for question, (count, self_ms) in layers.by_question(
            recorder, workload, [g for graded in traced for g in graded]
        ).items():
            total = sum(self_ms.values())
            top = sorted(self_ms.items(), key=lambda kv: -kv[1])[:6]
            print(f"  {question}: {total / count:.1f} ms per traced grade, "
                  f"{1 - self_ms['service.grade'] / total:.3f} below the "
                  "grade span; self ms per grade: " + ", ".join(
                      f"{name} {ms / count:.1f}" for name, ms in top))
        out = HERE / "out" / f"trace-{workload.name}.jsonl"
        recorder.write_jsonl(out)
        print(f"wrote {len(recorder.spans)} spans to {out.relative_to(ROOT)}")

    print(json.dumps({
        "correct": ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric["name"]: {
                "value": values[metric["name"]], "unit": metric["unit"],
            }
            for metric in spec[key]
        },
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
