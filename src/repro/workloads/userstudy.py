"""Simulated user study (Section 10).

The paper's study (15 students, 4 TAs) cannot be rerun offline, so this
module substitutes a calibrated participant simulation over the *same
stimuli* (the DBLP questions, wrong queries, and hint texts of Appendix G):

* **error identification** (Figures 5a/5b): each simulated participant
  identifies each error with a Bernoulli probability that depends on
  whether Qr-Hint hints were shown; the probabilities are calibrated to
  the rates the paper reports (Q1: 14.3% -> 100% at-least-one, Q2:
  71.4% -> 87.5%).
* **hint categorization** (Figures 6a/6b): each participant votes
  "Obvious" / "Helpful" / "Unhelpful" for every hint by sampling the
  hint's calibrated vote profile.

The *shape* conclusions the paper draws -- hints help, and Qr-Hint's hints
are consistently rated helpful while TA hints vary -- are then regenerated
from the simulation.  See DESIGN.md for the substitution rationale.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field

from repro.workloads.dblp import QUESTIONS

VOTE_CATEGORIES = ("Obvious", "Helpful", "Unhelpful")

# Keywords eligible for case jitter in simulated submissions.  String
# literals and identifiers are left untouched (identifiers because alias
# spelling is exercised separately via alpha-renaming).
_JITTER_KEYWORDS = frozenset(
    "SELECT FROM WHERE GROUP BY HAVING AND OR NOT DISTINCT AS ON".split()
)

# Per-error identification probabilities (no-hint vs with-hint), calibrated
# to the reported at-least-one-error rates of Figures 5a/5b.
IDENTIFY_PROBS = {
    "Q1": {"none": 0.075, "qrhint": 0.93},
    "Q2": {"none": 0.47, "qrhint": 0.65},
}


@dataclass
class IdentificationOutcome:
    """Aggregate of one treatment arm for one question."""

    question: str
    treatment: str  # "none" | "qrhint"
    participants: int
    at_least_one: int
    both: int

    @property
    def at_least_one_rate(self):
        return self.at_least_one / self.participants

    @property
    def both_rate(self):
        return self.both / self.participants


def simulate_identification(question, treatment, participants, seed=0):
    """Simulate error-identification for one treatment arm."""
    rng = random.Random(f"{question.qid}|{treatment}|{seed}")
    prob = IDENTIFY_PROBS[question.qid][treatment]
    at_least_one = 0
    both = 0
    for _ in range(participants):
        found = [rng.random() < prob for _ in range(question.num_errors)]
        if any(found):
            at_least_one += 1
        if all(found):
            both += 1
    return IdentificationOutcome(
        question.qid, treatment, participants, at_least_one, both
    )


@dataclass
class VoteTally:
    """Vote counts per category for one hint source."""

    source: str
    votes: dict = field(default_factory=lambda: {c: 0 for c in VOTE_CATEGORIES})

    def add(self, category):
        self.votes[category] += 1

    @property
    def total(self):
        return sum(self.votes.values())

    def share(self, category):
        return self.votes[category] / self.total if self.total else 0.0


def simulate_votes(question, participants, seed=0):
    """Simulate hint categorization votes (Figures 6a/6b).

    Returns {source: VoteTally} plus per-hint tallies, aggregating each
    participant's multinomial vote over every hint shown for the question.
    """
    rng = random.Random(f"{question.qid}|votes|{seed}")
    by_source = {}
    per_hint = []
    for hint in question.hints:
        tally = VoteTally(hint.source)
        p_obvious, p_helpful, _ = hint.vote_profile
        for _ in range(participants):
            roll = rng.random()
            if roll < p_obvious:
                category = "Obvious"
            elif roll < p_obvious + p_helpful:
                category = "Helpful"
            else:
                category = "Unhelpful"
            tally.add(category)
            source_tally = by_source.setdefault(
                hint.source, VoteTally(hint.source)
            )
            source_tally.add(category)
        per_hint.append((hint, tally))
    return by_source, per_hint


# One "word": a quoted string literal (kept byte-for-byte, including any
# internal whitespace) or a run of non-space, non-quote characters.
_POOL_TOKEN = re.compile(r"'[^']*'|[^\s']+")


def _format_variant(sql, rng):
    """Reformat a query the way a different student would type it.

    Whitespace and keyword case are randomized; string literals are kept
    verbatim, so the resolved query is unchanged -- exactly the duplicate
    class the service layer's artifact cache is built for.
    """
    out = []
    for token in _POOL_TOKEN.findall(sql):
        if token.upper() in _JITTER_KEYWORDS and rng.random() < 0.6:
            token = token.lower() if rng.random() < 0.5 else token.upper()
        out.append(token)
    text = []
    for i, token in enumerate(out):
        if i:
            roll = rng.random()
            if roll < 0.08:
                text.append("\n  ")
            elif roll < 0.2:
                text.append("  ")
            else:
                text.append(" ")
        text.append(token)
    return "".join(text)


def _alias_variants(sql, prefixes=("w", "z")):
    """Alpha-equivalent rewrites: same query under renamed FROM aliases."""
    from repro.workloads import dblp
    from repro.sqlparser import parse_query

    parsed = parse_query(sql, dblp.catalog())
    variants = []
    for prefix in prefixes:
        mapping = {
            entry.alias: f"{prefix}{i}"
            for i, entry in enumerate(parsed.from_entries)
        }
        variants.append(parsed.rename_aliases(mapping).to_sql())
    return variants


def submission_pool(question, count=200, seed=0, correct_rate=0.1,
                    alias_rate=0.25):
    """Simulate a duplicate-heavy classroom pile for one study question.

    Returns ``count`` SQL strings, all answering ``question`` (a
    :class:`~repro.workloads.dblp.StudyQuestion` or its qid): mostly the
    paper's wrong query under formatting/case/alias perturbations, plus a
    ``correct_rate`` share of correct submissions.  This is the demo
    workload for the batch grading path (``repro grade-batch --workload
    userstudy``): the pool collapses to very few canonical forms, so the
    artifact cache serves almost every submission.
    """
    if isinstance(question, str):
        match = next((q for q in QUESTIONS if q.qid == question), None)
        if match is None:
            known = ", ".join(q.qid for q in QUESTIONS)
            raise ValueError(f"unknown question {question!r} (have: {known})")
        question = match
    rng = random.Random(f"{question.qid}|pool|{seed}")
    alias_forms = _alias_variants(question.wrong_sql)
    pool = []
    for _ in range(count):
        roll = rng.random()
        if roll < correct_rate:
            base = question.correct_sql
        elif roll < correct_rate + alias_rate:
            base = rng.choice(alias_forms)
        else:
            base = question.wrong_sql
        pool.append(_format_variant(base, rng))
    return pool


def run_full_study(participants_per_arm=8, seed=0):
    """Run the entire simulated study; returns a structured result dict."""
    q1, q2, q3, q4 = QUESTIONS
    identification = {}
    for question in (q1, q2):
        identification[question.qid] = {
            "none": simulate_identification(
                question, "none", participants_per_arm, seed
            ),
            "qrhint": simulate_identification(
                question, "qrhint", participants_per_arm, seed
            ),
        }
    votes = {}
    for question in (q3, q4):
        by_source, per_hint = simulate_votes(question, participants_per_arm, seed)
        votes[question.qid] = {"by_source": by_source, "per_hint": per_hint}
    return {"identification": identification, "votes": votes}
