"""Unified perf-regression sentinel over the committed BENCH_*.json files.

Every subsystem commits a benchmark JSON at the repository root
(``BENCH_solver.json``, ``BENCH_service.json``, ``BENCH_witness.json``,
``BENCH_corpus.json``, ``BENCH_obs.json``).  Until now each had its own
ad-hoc CI threshold shell; this module is the one gate they all share:

1. a declarative :data:`BENCHMARKS` registry says, per file, which
   metrics matter, which *direction* is good (throughput up, overhead
   down, invariants exact), how much run-to-run *noise* to tolerate,
   and whether the metric participates in the hard gate;
2. :func:`run_benchmark` re-runs the matching benchmark command with
   ``BENCH_OUT_DIR`` pointed at a scratch directory (the committed file
   is never rewritten by a gate run), or any fresh run file can be
   ingested directly;
3. :func:`compare` resolves the metric paths in both documents
   (wildcards fan out over dict keys) and emits direction-aware
   verdicts: ``improved`` / ``ok`` (within noise) / ``slower`` (beyond
   noise but above the gate) / ``fail`` (below the gate, or an exact
   invariant broken) / ``skipped`` (metric absent from one side, e.g. a
   smoke run against a full committed file).

The CLI surface is ``repro perfdiff`` (see ``repro perfdiff --help``);
CI runs ``repro perfdiff --all --gate 0.5x`` as the single
perf-sentinel job.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
from dataclasses import dataclass, field

#: Default hard gate: fail when a gated higher-is-better metric falls
#: below this fraction of the committed value (runner-speed tolerance --
#: the same 0.5x every per-benchmark shell gate used before).
DEFAULT_GATE = 0.5

#: Default relative noise band: within +-15% of committed is "ok".
DEFAULT_NOISE = 0.15


@dataclass(frozen=True)
class Metric:
    """One gated (or tracked) value inside a benchmark JSON.

    ``path`` is a dotted key path; a ``*`` segment fans out over every
    key of the dict at that level (``kernels.*.ops_per_sec``).

    Directions:

    * ``higher`` -- ratio fresh/committed must stay above the gate;
    * ``lower``  -- lower is better (latencies, shed rates); compared
      through the inverse ratio so the same floor/noise logic applies;
    * ``exact``  -- fresh must equal committed (invariants such as
      ``byte_identical`` or a 100% grade rate);
    * ``bound_max`` -- fresh must stay below ``bound`` (absolute budget,
      e.g. the < 2% tracer overhead); the committed value is shown for
      drift context but is not the reference.
    """

    path: str
    direction: str = "higher"  # "higher" | "lower" | "exact" | "bound_max"
    noise: float = DEFAULT_NOISE
    gated: bool = True  # participates in the exit-code gate
    min_ratio: float = None  # per-metric floor overriding the global gate
    bound: float = None  # absolute budget for direction="bound_max"


@dataclass(frozen=True)
class Benchmark:
    """One committed BENCH file plus the command that regenerates it."""

    name: str
    filename: str
    command: tuple  # argv after the interpreter, repo-root relative
    metrics: tuple
    note: str = ""


BENCHMARKS = {
    "solver": Benchmark(
        name="solver",
        filename="BENCH_solver.json",
        command=("benchmarks/bench_solver_micro.py",),
        # Ungated diagnostics: the end-to-end gate is perfbench, and these
        # kernels (SAT search is < 0.5% of a grade) do not predict it.
        metrics=(Metric("kernels.*.ops_per_sec", gated=False),),
        note="SAT/SMT/MinFix kernel throughput (diagnostic)",
    ),
    "service": Benchmark(
        name="service",
        filename="BENCH_service.json",
        command=("benchmarks/bench_service_throughput.py",),
        metrics=(
            Metric("scenarios.*.speedup", noise=0.3),
            Metric("scenarios.*.batch_qps", noise=0.3, gated=False),
            Metric("scenarios.*.cache_hit_rate", noise=0.02),
            Metric("byte_identical", direction="exact"),
            # Overload axis: latency under admission control is tracked
            # (noise-banded, ungated) -- load timing is machine-shaped.
            Metric("overload.*.p50_ms", direction="lower", noise=0.5,
                   gated=False),
            Metric("overload.*.p99_ms", direction="lower", noise=0.5,
                   gated=False),
            Metric("overload.*.shed_rate", direction="lower", noise=0.5,
                   gated=False),
        ),
        note="batch grading throughput vs sequential + overload latency",
    ),
    "witness": Benchmark(
        name="witness",
        filename="BENCH_witness.json",
        command=("benchmarks/bench_witness.py", "--count", "120"),
        metrics=(
            Metric("coverage", noise=0.0, min_ratio=0.9),
            Metric("verification_rate", direction="exact"),
            Metric("scenarios.*.coverage", noise=0.05, gated=False),
        ),
        note="counterexample coverage on the userstudy pool",
    ),
    "corpus": Benchmark(
        name="corpus",
        filename="BENCH_corpus.json",
        command=("benchmarks/bench_corpus.py", "--smoke"),
        metrics=(
            Metric("smoke.throughput", noise=0.3),
            Metric("smoke.grade_success_rate", direction="exact"),
            Metric("smoke.hint_coverage", noise=0.05, gated=False),
            Metric("smoke.stage_recall", noise=0.02, gated=False),
        ),
        note="fixed-seed corpus graded through the batch path",
    ),
    "obs": Benchmark(
        name="obs",
        filename="BENCH_obs.json",
        command=("benchmarks/bench_obs.py",),
        metrics=(
            Metric("overhead.overhead", direction="bound_max", bound=0.02),
            Metric("journal_overhead.overhead", direction="bound_max",
                   bound=0.02),
            Metric("scrape.families", noise=0.0, gated=False),
        ),
        note="disabled-tracer + enabled-journal overhead on the SAT kernel",
    ),
}


def parse_gate(text):
    """``"0.5x"`` (or ``"0.5"``) -> 0.5; raises ValueError on garbage."""
    raw = str(text).strip().lower()
    if raw.endswith("x"):
        raw = raw[:-1]
    value = float(raw)
    if not 0.0 < value <= 1.0:
        raise ValueError(f"gate must be in (0, 1], got {text!r}")
    return value


# ----------------------------------------------------------------------
# Path resolution


def resolve_paths(doc, path):
    """``(resolved_path, value)`` pairs for a dotted path with ``*``."""
    parts = path.split(".")

    def walk(node, index, prefix):
        if index == len(parts):
            yield ".".join(prefix), node
            return
        part = parts[index]
        if not isinstance(node, dict):
            return
        if part == "*":
            for key in sorted(node):
                yield from walk(node[key], index + 1, prefix + [key])
        elif part in node:
            yield from walk(node[part], index + 1, prefix + [part])

    return list(walk(doc, 0, []))


# ----------------------------------------------------------------------
# Comparison


@dataclass
class MetricResult:
    """One compared metric: values, ratio, and verdict."""

    benchmark: str
    path: str
    committed: object
    fresh: object
    ratio: float = None
    status: str = "ok"  # improved | ok | slower | fail | skipped
    gated: bool = True
    detail: str = ""

    @property
    def failed(self):
        return self.status == "fail"

    def to_dict(self):
        return {
            "benchmark": self.benchmark,
            "path": self.path,
            "committed": self.committed,
            "fresh": self.fresh,
            "ratio": self.ratio,
            "status": self.status,
            "gated": self.gated,
            "detail": self.detail,
        }


def _compare_one(bench, metric, path, committed, fresh, gate):
    result = MetricResult(
        benchmark=bench, path=path, committed=committed, fresh=fresh,
        gated=metric.gated,
    )
    if metric.direction == "exact":
        if fresh == committed:
            result.status = "ok"
        else:
            result.status = "fail" if metric.gated else "slower"
            result.detail = "invariant changed"
        return result
    if metric.direction == "bound_max":
        bound = metric.bound
        ok = isinstance(fresh, (int, float)) and fresh <= bound
        result.status = "ok" if ok else ("fail" if metric.gated else "slower")
        result.detail = f"budget <= {bound:g}"
        return result
    # direction == "higher" | "lower"
    if not isinstance(fresh, (int, float)) or not isinstance(
        committed, (int, float)
    ):
        result.status = "skipped"
        result.detail = "non-numeric"
        return result
    if metric.direction == "lower":
        if committed <= 0 or fresh <= 0:
            # Nothing to regress against; only report.
            result.status = "ok" if fresh <= committed else "slower"
            result.detail = "value at or below zero"
            return result
        # Inverse ratio: "committed/fresh > 1" means fresh got smaller,
        # which for latency-style metrics is the improvement direction.
        ratio = committed / fresh
    else:
        if committed <= 0:
            # Nothing to regress against; only report.
            result.status = "ok" if fresh >= committed else "slower"
            result.detail = "committed value is <= 0"
            return result
        ratio = fresh / committed
    result.ratio = round(ratio, 4)
    floor = metric.min_ratio if metric.min_ratio is not None else gate
    if ratio < floor:
        result.status = "fail" if metric.gated else "slower"
        result.detail = f"below {floor:g}x floor"
    elif ratio < 1.0 - metric.noise:
        result.status = "slower"
        result.detail = f"beyond the {metric.noise:.0%} noise band"
    elif ratio > 1.0 + metric.noise:
        result.status = "improved"
    else:
        result.status = "ok"
    return result


def compare(bench, committed_doc, fresh_doc, gate=DEFAULT_GATE):
    """Compare a fresh run against the committed doc; list of results.

    Metrics present in the committed file but absent from the fresh run
    (e.g. the ``full`` corpus section when the gate re-runs only the
    smoke corpus) come back ``skipped`` -- visible, never fatal.
    """
    spec = BENCHMARKS[bench] if isinstance(bench, str) else bench
    results = []
    for metric in spec.metrics:
        committed_values = dict(resolve_paths(committed_doc, metric.path))
        fresh_values = dict(resolve_paths(fresh_doc, metric.path))
        for path in sorted(set(committed_values) | set(fresh_values)):
            if path not in fresh_values or path not in committed_values:
                side = "fresh run" if path not in fresh_values else "committed"
                results.append(
                    MetricResult(
                        benchmark=spec.name, path=path,
                        committed=committed_values.get(path),
                        fresh=fresh_values.get(path),
                        status="skipped", gated=False,
                        detail=f"absent from {side}",
                    )
                )
                continue
            results.append(
                _compare_one(
                    spec.name, metric, path,
                    committed_values[path], fresh_values[path], gate,
                )
            )
    return results


# ----------------------------------------------------------------------
# Running benchmarks


def repo_root():
    """The repository root: the directory holding the BENCH files."""
    return pathlib.Path(__file__).resolve().parents[3]


def committed_path(bench, root=None):
    spec = BENCHMARKS[bench] if isinstance(bench, str) else bench
    return (root or repo_root()) / spec.filename


def load_committed(bench, root=None):
    return json.loads(committed_path(bench, root).read_text())


def run_benchmark(bench, out_dir, root=None, timeout=1800):
    """Re-run a benchmark into ``out_dir``; returns the fresh document.

    The child runs with ``BENCH_OUT_DIR=out_dir`` so the committed JSON
    at the repository root is never rewritten by a sentinel run.  Raises
    :class:`RuntimeError` when the benchmark exits nonzero (its own
    internal assertions count as sentinel failures) or writes no file.
    """
    spec = BENCHMARKS[bench] if isinstance(bench, str) else bench
    root = root or repo_root()
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["BENCH_OUT_DIR"] = str(out_dir)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, *spec.command],
        cwd=str(root), env=env, timeout=timeout,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"benchmark {spec.name} exited {proc.returncode}:\n{proc.stdout}"
        )
    fresh_path = out_dir / spec.filename
    if not fresh_path.exists():
        raise RuntimeError(
            f"benchmark {spec.name} wrote no {spec.filename} in {out_dir}"
        )
    return json.loads(fresh_path.read_text())


# ----------------------------------------------------------------------
# Reporting


@dataclass
class PerfDiff:
    """Sentinel outcome over one or more benchmarks."""

    gate: float
    results: list = field(default_factory=list)
    errors: dict = field(default_factory=dict)  # bench -> error message

    @property
    def failed(self):
        return bool(self.errors) or any(r.failed for r in self.results)

    def counts(self):
        out = {}
        for result in self.results:
            out[result.status] = out.get(result.status, 0) + 1
        return out

    def to_dict(self):
        return {
            "gate": self.gate,
            "passed": not self.failed,
            "counts": self.counts(),
            "errors": self.errors,
            "results": [r.to_dict() for r in self.results],
        }

    def render(self):
        """Aligned one-line-per-metric report."""
        lines = []
        width = max((len(f"{r.benchmark}:{r.path}") for r in self.results),
                    default=20)
        for result in self.results:
            name = f"{result.benchmark}:{result.path}"
            committed = _fmt(result.committed)
            fresh = _fmt(result.fresh)
            ratio = f"{result.ratio:.2f}x" if result.ratio is not None else "-"
            flag = "" if result.gated else " (ungated)"
            detail = f"  [{result.detail}]" if result.detail else ""
            lines.append(
                f"  {name:<{width}}  {committed:>10} -> {fresh:>10}  "
                f"{ratio:>7}  {result.status}{flag}{detail}"
            )
        for bench, error in self.errors.items():
            lines.append(f"  {bench}: ERROR {error}")
        counts = ", ".join(
            f"{count} {status}" for status, count in sorted(self.counts().items())
        )
        verdict = "FAIL" if self.failed else "PASS"
        lines.append(
            f"perfdiff {verdict} (gate {self.gate:g}x): {counts or 'no metrics'}"
        )
        return lines


def _fmt(value):
    if isinstance(value, bool) or value is None:
        return str(value)
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def perfdiff(
    benches=None,
    gate=DEFAULT_GATE,
    fresh_docs=None,
    run=True,
    out_dir=None,
    root=None,
):
    """Compare fresh benchmark runs against the committed BENCH files.

    ``fresh_docs`` maps benchmark name to an already-loaded fresh run
    document (ingest mode); benchmarks not covered there are re-run when
    ``run`` is True, into ``out_dir`` (a temp dir by default).  Returns
    a :class:`PerfDiff`.
    """
    import tempfile

    benches = list(benches or BENCHMARKS)
    fresh_docs = dict(fresh_docs or {})
    diff = PerfDiff(gate=gate)
    cleanup = None
    if out_dir is None:
        cleanup = tempfile.TemporaryDirectory(prefix="perfdiff-")
        out_dir = cleanup.name
    try:
        for bench in benches:
            try:
                committed = load_committed(bench, root)
            except (OSError, ValueError) as error:
                diff.errors[bench] = f"cannot load committed file: {error}"
                continue
            fresh = fresh_docs.get(bench)
            if fresh is None:
                if not run:
                    diff.errors[bench] = "no fresh run supplied"
                    continue
                try:
                    fresh = run_benchmark(bench, out_dir, root)
                except (RuntimeError, OSError,
                        subprocess.TimeoutExpired) as error:
                    diff.errors[bench] = str(error)
                    continue
            diff.results.extend(compare(bench, committed, fresh, gate))
    finally:
        if cleanup is not None:
            cleanup.cleanup()
    return diff


def infer_bench(path):
    """Benchmark name from a run file's name (``BENCH_solver.json``)."""
    stem = pathlib.Path(path).name
    for name, spec in BENCHMARKS.items():
        if stem == spec.filename:
            return name
    raise ValueError(
        f"cannot infer benchmark from {path!r}; pass --bench explicitly"
    )
