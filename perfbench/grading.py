"""The benchmark's three workloads and the checks on their outputs.

Each workload is one process with one client in a closed loop: the next
submission is sent only after the previous grade has come back.  Its
inputs are a fixed list of :class:`Item` s; ``--seed`` only orders them,
so every seed grades the same submissions and the output digest of a pass
does not depend on the seed.  A pass grades every item (tutor-cold grades
its fast items several times).
"""

from __future__ import annotations

import hashlib
import http.client
import json
import random
import threading
import time
from dataclasses import dataclass

from repro.corpus.generator import CorpusGenerator
from repro.engine.database import Database
from repro.engine.diff import differential_check
from repro.engine.executor import bag_equal, execute
from repro.errors import ReproError
from repro.service import AssignmentSession
from repro.service.server import make_server
from repro.sqlparser.rewrite import parse_query_extended
from repro.workloads import dblp, userstudy

#: Corpus pool: generator seed and mutants per reference query (158 forms).
CORPUS_SEED = 0
CORPUS_PER_QUERY = 4
#: Classroom pool size per question.  Every cached grade over the
#: keep-alive connection costs ~44 ms (see README), so one pass of 400
#: requests fits a 20 s run.
CLASSROOM_PER_QUESTION = 100
#: ``serve_forever`` poll interval: shutdown waits up to one interval.
POLL_INTERVAL = 0.01
#: Cached share of classroom requests the warm-up must reach.
MIN_HIT_RATE = 0.99


@dataclass(frozen=True)
class Item:
    """One fixed input: a submission to one assignment."""

    catalog: object
    target_sql: str
    sql: str
    #: The userstudy question (Q1..Q4) the assignment is, or None.
    question: str | None


@dataclass(frozen=True)
class Grade:
    """One served grade, as the client saw it."""

    item: int  # index into the workload's items
    latency: float  # seconds, client side
    ok: bool  # graded without error (HTTP: status 200)
    cached: bool
    text: str  # GradeResult.text(show_fixes=True)
    final_sql: str
    witness: object = None


def _session_grade(index, session, item, witness):
    start = time.perf_counter()
    try:
        result = session.grade(item.sql, witness=witness)
    except ReproError as error:
        return Grade(index, time.perf_counter() - start, False, False,
                     f"error: {error}", "")
    latency = time.perf_counter() - start
    return Grade(index, latency, True, result.cached,
                 result.text(show_fixes=True), result.final_sql,
                 result.witness)


class Workload:
    """Fixed items, graded a pass at a time in a seeded order."""

    name = ""
    #: Every grade must carry a witness that re-verifies.
    expects_witness = False
    #: Grades go through :meth:`post` over HTTP to an in-process server.
    over_http = False

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.items = []
        #: Grades made during set-up (classroom warm-up), for the counts.
        self.setup_grades = []

    def setup(self):
        raise NotImplementedError

    def teardown(self):
        """Release what :meth:`setup` started."""

    def run_pass(self):
        """Grade every item, in a seeded order; returns the grades."""
        raise NotImplementedError

    def question_latencies(self, grades):
        """Question -> latencies (s) of the grades of its submissions."""
        samples = {}
        for grade in grades:
            question = self.items[grade.item].question
            if question is not None:
                samples.setdefault(question, []).append(grade.latency)
        return samples


class TutorCold(Workload):
    """The four userstudy wrong queries, each grade by a fresh session."""

    name = "tutor-cold"
    expects_witness = True
    #: Q2 and Q4 grade in ~10 ms against 1-2 s for Q1 and Q3, so a round
    #: grades each of them this many times to give their medians samples.
    FAST_REPEATS = 8

    def setup(self):
        catalog = dblp.catalog()
        self.items = [
            Item(catalog, q.correct_sql, q.wrong_sql, q.qid)
            for q in dblp.QUESTIONS
        ]
        for item in self.items:
            parse_query_extended(item.target_sql, catalog)
            parse_query_extended(item.sql, catalog)
        self.round = [
            index
            for index, item in enumerate(self.items)
            for _ in range(
                self.FAST_REPEATS if item.question in ("Q2", "Q4") else 1
            )
        ]

    def run_pass(self):
        order = list(self.round)
        self.rng.shuffle(order)
        grades = []
        for index in order:
            item = self.items[index]
            session = AssignmentSession(item.catalog, item.target_sql)
            grades.append(_session_grade(index, session, item, witness=True))
        return grades


class CorpusCold(Workload):
    """The fixed-seed mutation corpus, one session per assignment."""

    name = "corpus-cold"

    def setup(self):
        generator = CorpusGenerator(seed=CORPUS_SEED)
        catalogs = {
            source.name: source.catalog() for source in generator.sources
        }
        question_of = {q.correct_sql: q.qid for q in dblp.QUESTIONS}
        self.items = [
            Item(catalogs[entry.schema], entry.target_sql, entry.wrong_sql,
                 question_of.get(entry.target_sql))
            for entry in generator.generate_pool(per_query=CORPUS_PER_QUERY)
        ]
        self.groups = {}
        for index, item in enumerate(self.items):
            key = (id(item.catalog), item.target_sql)
            self.groups.setdefault(key, []).append(index)

    def run_pass(self):
        groups = [list(indices) for indices in self.groups.values()]
        self.rng.shuffle(groups)
        grades = []
        for indices in groups:
            self.rng.shuffle(indices)
            first = self.items[indices[0]]
            session = AssignmentSession(first.catalog, first.target_sql)
            for index in indices:
                grades.append(_session_grade(
                    index, session, self.items[index], witness=False
                ))
        return grades


class ClassroomHttp(Workload):
    """Duplicate-heavy piles POSTed to ``/grade`` over one connection.

    The connection is HTTP/1.1 keep-alive on purpose: that is how a
    grading client talks to the service, and it is where the server's
    two-send responses stall on delayed ACKs.
    """

    name = "classroom-http"
    over_http = True

    def __init__(self, seed):
        super().__init__(seed)
        self.server = self.thread = self.conn = None

    def setup(self):
        catalog = dblp.catalog()
        self.server = make_server()
        self.thread = threading.Thread(
            target=self.server.serve_forever,
            kwargs={"poll_interval": POLL_INTERVAL},
        )
        self.thread.start()
        host, port = self.server.server_address[:2]
        self.conn = http.client.HTTPConnection(host, port, timeout=120)
        self.items = []
        for question in dblp.QUESTIONS:
            self.server.service.create_assignment(
                catalog, question.correct_sql, assignment_id=question.qid
            )
            # Warm the artifact cache with cold grades of both forms.
            for sql in (question.wrong_sql, question.correct_sql):
                self.setup_grades.append(self.post(-1, Item(
                    catalog, question.correct_sql, sql, question.qid
                )))
            for sql in userstudy.submission_pool(
                question, count=CLASSROOM_PER_QUESTION, seed=0
            ):
                self.items.append(
                    Item(catalog, question.correct_sql, sql, question.qid)
                )

    def teardown(self):
        if self.server is None:
            return
        self.conn.close()
        self.server.shutdown()
        self.server.server_close()  # joins the handler threads
        self.thread.join()
        self.server = self.thread = self.conn = None

    def post(self, index, item):
        body = json.dumps({
            "assignment_id": item.question,
            "sql": item.sql,
            "witness": True,
            "show_fixes": True,
        })
        start = time.perf_counter()
        self.conn.request(
            "POST", "/grade", body, {"Content-Type": "application/json"}
        )
        response = self.conn.getresponse()
        raw = response.read()
        latency = time.perf_counter() - start
        if response.status != 200:
            return Grade(index, latency, False, False,
                         f"HTTP {response.status}: {raw[:200]!r}", "")
        payload = json.loads(raw)
        return Grade(index, latency, True, payload["cached"],
                     payload["text"], payload["final_sql"])

    def run_pass(self):
        order = list(range(len(self.items)))
        self.rng.shuffle(order)
        return [self.post(index, self.items[index]) for index in order]


WORKLOADS = {cls.name: cls for cls in (TutorCold, CorpusCold, ClassroomHttp)}


# -- output checks (outside every timed region) ------------------------------


def check_outputs(workload, passes, expected_digest):
    """Every output check over the graded passes; ``(ok, report)``."""
    grades = [grade for graded in passes for grade in graded]
    digests = {pass_digest(workload, graded) for graded in passes}
    equivalent, distinct = repairs_equivalent(workload, grades)
    report = {
        "digest": sorted(digests, key=str),
        "digest_match": int(digests == {expected_digest}),
        "repair_equivalent_rate": equivalent / distinct if distinct else 1.0,
        "repairs_checked": distinct,
        "hit_rate": sum(grade.cached for grade in grades) / len(grades),
    }
    ok = report["digest_match"] and equivalent == distinct
    if workload.expects_witness:
        verified, checked = witness_verified(workload, grades)
        report["witness_verified_rate"] = verified / checked
        ok = ok and verified == checked
    if workload.over_http:
        ok = ok and report["hit_rate"] >= MIN_HIT_RATE
    else:
        # Every in-process grade is of a form new to its session.
        ok = ok and report["hit_rate"] == 0
    return bool(ok), report


def pass_digest(workload, grades):
    """SHA-256 over each item's hint text and final SQL, in item order.

    Returns None unless the pass graded every item and every grade of an
    item gave the same output.
    """
    outputs = {}
    for grade in grades:
        output = f"{grade.text}\n{grade.final_sql}\n"
        if outputs.setdefault(grade.item, output) != output:
            return None
    if len(outputs) != len(workload.items):
        return None
    digest = hashlib.sha256()
    for index in range(len(workload.items)):
        digest.update(outputs[index].encode("utf-8"))
    return digest.hexdigest()


def repairs_equivalent(workload, grades):
    """``(equivalent, checked)`` over the distinct repaired queries.

    Each distinct final query is run against its target on random
    instances (``engine.diff.differential_check``).
    """
    seen = {}
    for grade in grades:
        if not grade.ok:
            continue
        item = workload.items[grade.item]
        key = (id(item.catalog), item.target_sql, grade.final_sql)
        if key in seen:
            continue
        final = parse_query_extended(grade.final_sql, item.catalog)
        target = parse_query_extended(item.target_sql, item.catalog)
        seen[key] = differential_check(final, target, item.catalog) is None
    return sum(seen.values()), len(seen)


def witness_verified(workload, grades):
    """``(verified, checked)``: witnesses that still tell the queries apart.

    The database is rebuilt from ``Witness.tables`` and both queries are
    executed on it, independently of how the witness was generated.  A
    grade without a witness counts as checked and not verified.
    """
    verified = 0
    for grade in grades:
        if grade.witness is None:
            continue
        item = workload.items[grade.item]
        database = Database(item.catalog, {
            name: [list(row) for row in rows]
            for name, _, rows in grade.witness.tables
        })
        submission = parse_query_extended(item.sql, item.catalog)
        target = parse_query_extended(item.target_sql, item.catalog)
        verified += not bag_equal(
            execute(submission, database), execute(target, database)
        )
    return verified, len(grades)
