"""Corpus-scale benchmark: the scenario-diversity regression surface.

Generates the fixed-seed mutation corpus across the bundled schemas,
pushes it through the production batch-grading path, and writes the
results to ``BENCH_corpus.json`` at the repository root::

    PYTHONPATH=src python benchmarks/bench_corpus.py          # full corpus
    PYTHONPATH=src python benchmarks/bench_corpus.py --smoke  # CI smoke

Full mode asserts the corpus contract (>= 500 distinct post-dedup wrong
queries across >= 3 schemas, >= 95% graded without error) and records
hint coverage, ground-truth stage agreement, witness coverage over a
fixed subsample, and grading throughput.

``--smoke`` (the CI ``corpus-smoke`` job) generates a small fixed-seed
corpus (two schemas, >= 50 queries), asserts **100%** grade-without-error
on it, and gates its throughput at ``MIN_REGRESSION_RATIO`` (0.5x) of the
committed ``BENCH_corpus.json`` value -- the same scheme as the solver
micro-bench gate.  Smoke mode never rewrites the committed file.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "src"))

from repro.corpus import CorpusGenerator, evaluate_corpus
from repro.corpus.generator import stage_mix

_ROOT = pathlib.Path(__file__).parent.parent
#: Committed baseline (read for the regression gate) vs. output path
#: (redirected by ``repro perfdiff`` via ``$BENCH_OUT_DIR``).
COMMITTED_PATH = _ROOT / "BENCH_corpus.json"
OUT_PATH = pathlib.Path(
    os.environ.get("BENCH_OUT_DIR") or _ROOT
) / "BENCH_corpus.json"

#: CI gate: fail when throughput drops below this fraction of the
#: committed BENCH_corpus.json value (runner-speed skew tolerance).
MIN_REGRESSION_RATIO = 0.5

FULL_SEED = 0
FULL_PER_QUERY = 20
FULL_MIN_ENTRIES = 500
FULL_MIN_SCHEMAS = 3
FULL_MIN_GRADE_RATE = 0.95
FULL_WITNESS_LIMIT = 30

SMOKE_SEED = 0
SMOKE_SCHEMAS = ("beers", "dblp")
SMOKE_PER_QUERY = 8
SMOKE_MIN_ENTRIES = 50


def run_smoke():
    """The CI smoke corpus: small, fixed seed, zero tolerated errors.

    Its throughput is the gated regression metric.  Grading runs in one
    process, so the number does not depend on how many cores the
    committing machine or a CI runner has.
    """
    generator = CorpusGenerator(schemas=SMOKE_SCHEMAS, seed=SMOKE_SEED)
    pool = generator.generate_pool(per_query=SMOKE_PER_QUERY)
    assert len(pool) >= SMOKE_MIN_ENTRIES, (
        f"smoke corpus produced only {len(pool)} entries "
        f"(need >= {SMOKE_MIN_ENTRIES})"
    )
    assert len({e.schema for e in pool}) == len(SMOKE_SCHEMAS)
    result = evaluate_corpus(pool, schemas=SMOKE_SCHEMAS)
    assert result.errors == 0, (
        f"{result.errors} smoke entries failed to grade: the fixed-seed "
        "smoke corpus must grade 100% without error"
    )
    assert result.grade_success_rate == 1.0
    print(
        f"  smoke: {result.graded}/{result.total} graded "
        f"({result.throughput:.2f}/s, hint coverage "
        f"{result.hint_coverage:.1%}, stage recall {result.stage_recall:.3f})"
    )
    return {
        "entries": result.total,
        "schemas": sorted({e.schema for e in pool}),
        "grade_success_rate": round(result.grade_success_rate, 4),
        "hint_coverage": round(result.hint_coverage, 4),
        "stage_recall": round(result.stage_recall, 4),
        "throughput": round(result.throughput, 3),
    }


def run_full():
    """The committed corpus: every schema, the acceptance contract."""
    generator = CorpusGenerator(seed=FULL_SEED)
    pool = generator.generate_pool(per_query=FULL_PER_QUERY)
    schemas = sorted({e.schema for e in pool})
    assert len(pool) >= FULL_MIN_ENTRIES, (
        f"full corpus produced only {len(pool)} entries "
        f"(need >= {FULL_MIN_ENTRIES})"
    )
    assert len(schemas) >= FULL_MIN_SCHEMAS
    print(
        f"  full: generated {len(pool)} distinct wrong queries across "
        f"{len(schemas)} schemas ({generator.duplicates} duplicates dropped)"
    )
    result = evaluate_corpus(
        pool, witness=True, witness_limit=FULL_WITNESS_LIMIT
    )
    assert result.grade_success_rate >= FULL_MIN_GRADE_RATE, (
        f"grade success {result.grade_success_rate:.1%} fell below "
        f"{FULL_MIN_GRADE_RATE:.0%}"
    )
    print(
        f"  full: {result.graded}/{result.total} graded in "
        f"{result.grade_elapsed:.1f}s ({result.throughput:.2f}/s), "
        f"hint coverage {result.hint_coverage:.1%}, "
        f"stage recall {result.stage_recall:.3f}, "
        f"witness coverage {result.witness_coverage:.1%} "
        f"({result.witness_found}/{result.witness_attempted})"
    )
    return {
        "entries": result.total,
        "schemas": schemas,
        "stage_mix": stage_mix(pool),
        "duplicates_dropped": generator.duplicates,
        "grade_success_rate": round(result.grade_success_rate, 4),
        "errors": result.errors,
        "hint_coverage": round(result.hint_coverage, 4),
        "benign": result.benign,
        "stage_recall": round(result.stage_recall, 4),
        "stage_exact_rate": round(result.stage_exact_rate, 4),
        "witness_attempted": result.witness_attempted,
        "witness_found": result.witness_found,
        "witness_coverage": round(result.witness_coverage, 4),
        "grade_elapsed": round(result.grade_elapsed, 2),
        "throughput": round(result.throughput, 3),
        "by_kind": result.by_kind,
    }


def _committed(section):
    try:
        committed = json.loads(COMMITTED_PATH.read_text())
        return committed[section]["throughput"]
    except (OSError, KeyError, ValueError):
        return None


def _gate(label, measured, baseline):
    if not baseline:
        return
    ratio = measured / baseline
    print(f"  {label} throughput vs committed: {ratio:.2f}x "
          f"(gate: >= {MIN_REGRESSION_RATIO}x)")
    assert ratio >= MIN_REGRESSION_RATIO, (
        f"{label} throughput {measured:.2f}/s fell below "
        f"{MIN_REGRESSION_RATIO}x the committed {baseline:.2f}/s"
    )


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    smoke_only = "--smoke" in argv

    smoke = run_smoke()
    _gate("smoke", smoke["throughput"], _committed("smoke"))
    if smoke_only:
        if os.environ.get("BENCH_OUT_DIR"):
            # perfdiff re-runs this in smoke mode and compares whatever
            # sections the fresh file shares with the committed one.
            payload = {"python": sys.version.split()[0], "smoke": smoke}
            OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
            print(f"wrote {OUT_PATH}")
        print("smoke corpus OK")
        return 0

    full = run_full()
    _gate("full", full["throughput"], _committed("full"))

    payload = {
        "python": sys.version.split()[0],
        "smoke": smoke,
        "full": full,
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUT_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
