"""Witness identity: hints, final SQL and witnesses stay byte-identical.

perfbench's digests cover hint text and final SQL, not witnesses.  This
module hashes, per item, the hint text, the final SQL and every field of
``witness_to_dict`` except ``elapsed`` (the tables, both result bags, the
stage, the source and the assignments).  Each item is graded by a fresh
session with witnesses on, in a fixed order.

The tier-1 test pins the digest over the userstudy Q1-Q4 and the first 60
corpus entries.  Run as a script, the module prints the digest over all
162 tutor-cold and corpus-cold items of perfbench (the four userstudy
questions and the seed-0 corpus pool, 4 mutants per reference query):

    PYTHONPATH=src python tests/test_witness_identity.py
"""

import hashlib
import json
import sys
from collections import Counter

from repro.corpus.generator import CorpusGenerator
from repro.service import AssignmentSession
from repro.witness import witness_to_dict
from repro.workloads import dblp

#: Digest and witness sources over Q1-Q4 plus the first 60 corpus entries.
TIER1_DIGEST = (
    "67267ba23b2efa78b5b6bff36cc1a166d972e6ee76117b6b1fa483793b729478"
)
TIER1_SOURCES = {"model": 32, "search": 27, None: 5}


def identity_items(corpus_entries=None):
    """``(catalog, target_sql, sql)`` for Q1-Q4, then the corpus pool.

    ``corpus_entries`` keeps only that many corpus entries (None: all).
    """
    catalog = dblp.catalog()
    items = [(catalog, q.correct_sql, q.wrong_sql) for q in dblp.QUESTIONS]
    generator = CorpusGenerator(seed=0)
    catalogs = {source.name: source.catalog() for source in generator.sources}
    pool = generator.generate_pool(per_query=4)[:corpus_entries]
    items.extend(
        (catalogs[entry.schema], entry.target_sql, entry.wrong_sql)
        for entry in pool
    )
    return items


def identity_digest(items):
    """``(sha256 hex digest, Counter of witness sources)`` over ``items``."""
    digest = hashlib.sha256()
    sources = Counter()
    for catalog, target_sql, sql in items:
        result = AssignmentSession(catalog, target_sql).grade(sql, witness=True)
        witness = None
        if result.witness is not None:
            witness = witness_to_dict(result.witness)
            del witness["elapsed"]
        sources[witness and witness["source"]] += 1
        record = [result.text(show_fixes=True), result.final_sql, witness]
        digest.update(json.dumps(record, sort_keys=True).encode() + b"\n")
    return digest.hexdigest(), sources


def test_witness_identity():
    digest, sources = identity_digest(identity_items(corpus_entries=60))
    assert dict(sources) == TIER1_SOURCES
    assert digest == TIER1_DIGEST


if __name__ == "__main__":
    digest, sources = identity_digest(identity_items())
    print(f"{sum(sources.values())} items, witness sources {dict(sources)}",
          file=sys.stderr)
    print(digest)
