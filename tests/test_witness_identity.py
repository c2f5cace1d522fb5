"""Witness identity: hints, final SQL and witnesses stay byte-identical.

perfbench's digests cover hint text and final SQL, not witnesses.  This
module hashes, per item, the hint text, the final SQL and every field of
``witness_to_dict`` except ``elapsed`` (the tables, both result bags, the
stage, the source and the assignments).  Each item is graded by a fresh
session with witnesses on, in a fixed order.

The tier-1 tests pin the digest over the userstudy Q1-Q4 and the first 60
corpus entries, graded directly and again through the artifact-cache
spill: each item's cache is saved, loaded into a second fresh session and
the item served from it.  Run as a script, the module prints the digest
over all 162 tutor-cold and corpus-cold items of perfbench (the four
userstudy questions and the seed-0 corpus pool, 4 mutants per reference
query); ``--spill`` hashes the results served after the round trip:

    PYTHONPATH=src python tests/test_witness_identity.py [--spill]
"""

import hashlib
import json
import os
import sys
import tempfile
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


def _graded_through_spill(catalog, target_sql, sql, spill_dir):
    """Grade ``sql``, spill the cache, and serve it again from the spill."""
    path = os.path.join(spill_dir, "cache.json")
    first = AssignmentSession(catalog, target_sql)
    first.grade(sql, witness=True)
    first.save(path)
    session = AssignmentSession(catalog, target_sql)
    session.load(path)
    result = session.grade(sql, witness=True)
    assert result.cached, sql
    assert (session.pipeline_runs, session.witness_runs) == (0, 0), sql
    return result


def identity_digest(items, spill_dir=None):
    """``(sha256 hex digest, Counter of witness sources)`` over ``items``.

    With ``spill_dir``, each item's result is the one served from a fresh
    session's cache after a save/load round trip through that directory.
    """
    digest = hashlib.sha256()
    sources = Counter()
    for catalog, target_sql, sql in items:
        if spill_dir is None:
            result = AssignmentSession(catalog, target_sql).grade(
                sql, witness=True
            )
        else:
            result = _graded_through_spill(catalog, target_sql, sql, spill_dir)
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


def test_witness_identity_through_spill(tmp_path):
    items = identity_items(corpus_entries=60)
    digest, sources = identity_digest(items, spill_dir=str(tmp_path))
    assert dict(sources) == TIER1_SOURCES
    assert digest == TIER1_DIGEST


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as spill_dir:
        digest, sources = identity_digest(
            identity_items(),
            spill_dir=spill_dir if "--spill" in sys.argv[1:] else None,
        )
    print(f"{sum(sources.values())} items, witness sources {dict(sources)}",
          file=sys.stderr)
    print(digest)
