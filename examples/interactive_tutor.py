"""Interactive SQL tutor: the office-hours loop Qr-Hint was built for.

Simulates a tutoring session on the DBLP user-study questions: the student
"submits" a wrong query, the tutor first shows a *counterexample witness*
(a tiny concrete database on which the wrong and reference queries
visibly disagree -- see docs/witness.md), then Qr-Hint produces
stage-by-stage hints (repair sites only -- fixes withheld, exactly as in
the paper's user study), the student "applies" each fix, and the session
ends once the query is provably equivalent to the reference solution.

Run with:  python examples/interactive_tutor.py [--question Q4]
"""

import argparse

from repro import QrHint, Solver, generate_witness
from repro.engine import appear_equivalent
from repro.sqlparser import parse_query
from repro.witness import format_witness_lines
from repro.workloads import dblp


def tutor_session(question):
    catalog = dblp.catalog()
    print("=" * 72)
    print(f"{question.qid}: {question.statement}")
    print("=" * 72)
    print("\nStudent submits:")
    print("   ", " ".join(question.wrong_sql.split()))

    report = QrHint(catalog, question.correct_sql, question.wrong_sql).run()

    witness = generate_witness(
        catalog,
        parse_query(question.correct_sql, catalog),
        parse_query(question.wrong_sql, catalog),
        solver=Solver(),
    )
    if witness is not None:
        print("\nTutor shows why the query is wrong:")
        for line in format_witness_lines(witness):
            print("  " + line)

    print("\nTutor (Qr-Hint) responds, stage by stage:")
    step = 0
    for stage in report.stages:
        if stage.passed:
            print(f"  {stage.stage:9s} looks viable -- moving on.")
            continue
        for hint in stage.hints:
            step += 1
            print(f"  step {step}: {hint.message}")
        print(f"            (student edits {stage.stage}; query now: "
              f"{' '.join(stage.query_after.to_sql().split())[:90]}...)")

    print("\nAfter all fixes:")
    print("   ", report.final_query.to_sql())
    ok = appear_equivalent(
        report.final_query, report.target_query, catalog, trials=40
    )
    print(f"\nEquivalent to the reference solution: {ok}")
    print(f"Hints needed: {len(report.hints)} "
          f"(paper planted {question.num_errors} error(s) in "
          f"{'/'.join(question.error_clauses)})")


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--question", default=None,
                        choices=[q.qid for q in dblp.QUESTIONS])
    args = parser.parse_args()
    questions = dblp.QUESTIONS
    if args.question:
        questions = [q for q in questions if q.qid == args.question]
    for question in questions:
        tutor_session(question)
        print()
