"""The DBLP user-study workload (Section 10, Appendix G).

Four questions over a DBLP-style schema, each with the paper's exact
correct query, wrong query, and hint sets (TA-written hints plus Qr-Hint
repair-site hints), reproduced from Tables 2 and 3 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.catalog import Catalog


def catalog():
    return Catalog.from_spec(
        {
            "conference_paper": [
                ("pubkey", "STRING"),
                ("title", "STRING"),
                ("conference_name", "STRING"),
                ("year", "INT"),
                ("area", "STRING"),
            ],
            "journal_paper": [
                ("pubkey", "STRING"),
                ("title", "STRING"),
                ("journal_name", "STRING"),
                ("year", "INT"),
            ],
            "authorship": [("pubkey", "STRING"), ("author", "STRING")],
        }
    )


@dataclass(frozen=True)
class StudyHint:
    """One hint shown in the study, with its source and its ground truth."""

    text: str
    source: str  # "TA" | "Qr-Hint"
    # Calibrated vote distribution from Figures 6a/6b: probabilities of
    # (obvious, helpful, unhelpful) a participant assigns to this hint.
    vote_profile: tuple = (0.2, 0.6, 0.2)


@dataclass(frozen=True)
class StudyQuestion:
    qid: str
    statement: str
    correct_sql: str
    wrong_sql: str
    num_errors: int
    error_clauses: tuple
    hints: tuple = ()


Q1 = StudyQuestion(
    "Q1",
    "Find names of the authors, such that among the years when he/she "
    "published both conference paper and journal paper, 2 of the published "
    "papers are at least 20 years apart.",
    correct_sql="""
        SELECT i1.author
        FROM conference_paper c1, conference_paper c2, journal_paper j1,
             journal_paper j2, authorship i1, authorship i2,
             authorship i3, authorship i4
        WHERE c1.pubkey = i1.pubkey AND c2.pubkey = i2.pubkey
          AND j1.pubkey = i3.pubkey AND j2.pubkey = i4.pubkey
          AND i1.author = i2.author AND i2.author = i3.author
          AND i3.author = i4.author AND c1.year + 20 >= c2.year
          AND c1.year = j1.year AND c2.year = j2.year
        GROUP BY i1.author
    """,
    wrong_sql="""
        SELECT e.author
        FROM conference_paper a, authorship e, conference_paper b,
             authorship f, journal_paper c, authorship g,
             journal_paper d, authorship h
        WHERE a.pubkey = e.pubkey AND b.pubkey = g.pubkey
          AND c.pubkey = f.pubkey AND e.author = h.author
          AND d.pubkey = h.pubkey AND e.author = g.author
          AND f.author = h.author AND a.year + 20 > d.year
        GROUP BY e.author
    """,
    num_errors=2,
    error_clauses=("WHERE", "WHERE"),
    hints=(
        StudyHint(
            'In WHERE: You should change "a.year + 20 > d.year" to some '
            "other conditions.",
            "Qr-Hint",
            (0.15, 0.7, 0.15),
        ),
    ),
)

Q2 = StudyQuestion(
    "Q2",
    "For each author who has published conference papers in the database "
    "area, find the number of their conference paper collaborators in the "
    "database area by years before 2018.",
    correct_sql="""
        SELECT t2.author, t1.year, COUNT(DISTINCT t3.author)
        FROM conference_paper t1, authorship t2, authorship t3
        WHERE t1.pubkey = t2.pubkey AND t3.pubkey = t1.pubkey
          AND t3.author <> t2.author AND t1.year < 2018
          AND t1.area = 'Database'
        GROUP BY t2.author, t1.year
    """,
    wrong_sql="""
        SELECT a.author, year, COUNT(*)
        FROM conference_paper, authorship, authorship a
        WHERE conference_paper.pubkey = a.pubkey
          AND authorship.pubkey = a.pubkey
          AND a.author <> authorship.author AND year < 2018
        GROUP BY a.author, area, year, authorship.author
        HAVING area = 'Database' AND conference_paper.year < 2018
    """,
    num_errors=2,
    error_clauses=("GROUP BY", "SELECT"),
    hints=(
        StudyHint(
            "In GROUP BY: authorship.author is incorrect.",
            "Qr-Hint",
            (0.2, 0.65, 0.15),
        ),
        StudyHint(
            "In SELECT: COUNT(*) is incorrect.",
            "Qr-Hint",
            (0.2, 0.65, 0.15),
        ),
    ),
)

Q3 = StudyQuestion(
    "Q3",
    "Excluding publications in the year of 2015, find authors who publish "
    "conference papers in at least 2 areas.",
    correct_sql="""
        SELECT t1.author
        FROM authorship t1, conference_paper t2, authorship t3,
             conference_paper t4
        WHERE t2.pubkey = t1.pubkey AND t1.author = t3.author
          AND t4.pubkey = t3.pubkey AND t2.year = t4.year
          AND t2.area <> t4.area AND t2.year <> 2015
          AND t2.area <> 'UNKNOWN' AND t4.area <> 'UNKNOWN'
        GROUP BY t1.author
    """,
    wrong_sql="""
        SELECT b.author
        FROM conference_paper, authorship b, conference_paper a, authorship
        WHERE conference_paper.pubkey = authorship.pubkey AND a.year < 2015
           OR a.year > 2015 AND b.author = authorship.author
          AND a.pubkey = b.pubkey AND conference_paper.year = a.year
          AND a.area <> conference_paper.area AND a.area <> 'UNKNOWN'
          AND conference_paper.area <> 'UNKNOWN'
        GROUP BY b.author
    """,
    num_errors=1,
    error_clauses=("WHERE",),
    hints=(
        StudyHint(
            "In WHERE, try to fix the whole condition by adding a pair of "
            "parentheses - in SQL AND takes higher precedence than OR (this "
            "fix alone should make the query correct)",
            "TA",
            (0.55, 0.3, 0.15),
        ),
        StudyHint(
            "In WHERE, you are missing a pair of parentheses around "
            "a.year < 2015 OR a.year > 2015.",
            "TA",
            (0.6, 0.25, 0.15),
        ),
        StudyHint(
            "GROUP BY is incorrect.",
            "TA",
            (0.1, 0.3, 0.6),
        ),
        StudyHint(
            "GROUP BY is incorrect without an aggregate function.",
            "TA",
            (0.1, 0.25, 0.65),
        ),
        StudyHint(
            "In WHERE, there is a problem spanning `a.year < 2015 OR ...` -- "
            "check how your conditions combine.",
            "Qr-Hint",
            (0.15, 0.7, 0.15),
        ),
    ),
)

Q4 = StudyQuestion(
    "Q4",
    "Among the authors who publish in the Systems-area conferences, find "
    "the ones that have no co-authors on such publications.",
    correct_sql="""
        SELECT t2.author
        FROM conference_paper t1, authorship t2, authorship t3
        WHERE t1.pubkey = t2.pubkey AND t2.pubkey = t3.pubkey
          AND t1.area = 'Systems'
        GROUP BY t2.author
        HAVING COUNT(DISTINCT t3.author) <= 1
    """,
    wrong_sql="""
        SELECT a.author
        FROM authorship, conference_paper, authorship a
        WHERE conference_paper.pubkey = a.pubkey
          AND a.pubkey = authorship.pubkey
        GROUP BY a.author, conference_paper.area
        HAVING conference_paper.area = 'System'
           AND COUNT(DISTINCT a.author) <= 1
    """,
    num_errors=2,
    error_clauses=("WHERE", "HAVING"),
    hints=(
        StudyHint(
            "GROUP BY should not include t1.area.",
            "TA",
            (0.15, 0.35, 0.5),
        ),
        StudyHint(
            "In HAVING, conference_paper.area = 'System' should not appear.",
            "TA",
            (0.3, 0.45, 0.25),
        ),
        StudyHint(
            "In HAVING, try to fix conference_paper.area = 'System' (this "
            "plus another fix in HAVING will make the query right).",
            "Qr-Hint",
            (0.2, 0.65, 0.15),
        ),
        StudyHint(
            "In HAVING, conference_paper.area = 'System' should be = "
            "'Systems'.",
            "TA",
            (0.7, 0.2, 0.1),
        ),
        StudyHint(
            "In HAVING, try to fix COUNT(DISTINCT a.author) <= 1 (this plus "
            "another fix in HAVING will make the query right).",
            "Qr-Hint",
            (0.2, 0.65, 0.15),
        ),
        StudyHint(
            "In HAVING, COUNT(DISTINCT a.author) <= 1 is referring to the "
            "same author attribute as the GROUP BY.",
            "TA",
            (0.1, 0.3, 0.6),
        ),
    ),
)

QUESTIONS = [Q1, Q2, Q3, Q4]
