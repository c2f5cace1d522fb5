"""Corpus generation: fan whole-query mutations across bundled schemas.

:class:`CorpusGenerator` turns the reference queries of the bundled schema
sources into a pool of ground-truth-labeled wrong queries.  Every entry is
produced from its own derived seed (``"{seed}:{schema}:{qid}:{index}"``),
so any single corpus entry can be regenerated in isolation; the pool is
deduplicated by the service layer's canonical alias-renamed form, which is
exactly the unit the artifact cache grades once, so corpus size == the
number of genuinely distinct grading problems.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.corpus.mutations import mutate_query, stages_of
from repro.corpus.schemas import bundled_sources
from repro.errors import ReproError
from repro.service.cache import canonical_key
from repro.sqlparser import parse_query

#: Probability of a 2-error entry (when ``max_errors`` allows it).
_TWO_ERROR_RATE = 0.4
#: Probability of restricting an entry's mutations to one focus stage,
#: keeping rare stages (GROUP BY, HAVING, FROM) represented in the mix.
_FOCUS_RATE = 0.35


@dataclass(frozen=True)
class CorpusEntry:
    """One generated wrong query with its ground truth and provenance."""

    schema: str
    qid: str
    target_sql: str
    wrong_sql: str
    mutations: tuple  # MutationRecord, in application order
    difficulty: int  # mutation count x stage mix
    seed: str  # the derived per-entry seed (regenerates this entry alone)

    @property
    def stages(self):
        return stages_of(self.mutations)

    def to_dict(self):
        return {
            "schema": self.schema,
            "qid": self.qid,
            "target_sql": " ".join(self.target_sql.split()),
            "wrong_sql": self.wrong_sql,
            "mutations": [m.to_dict() for m in self.mutations],
            "difficulty": self.difficulty,
            "seed": self.seed,
        }


class CorpusGenerator:
    """Generates a deduplicated corpus of wrong queries with ground truth."""

    def __init__(self, schemas=None, seed=0, max_errors=2):
        self.sources = bundled_sources(schemas)
        self.seed = seed
        self.max_errors = max_errors
        self.duplicates = 0  # mutants dropped by canonical-form dedup
        self.failures = 0  # derived seeds that produced no usable mutant

    # ------------------------------------------------------------------

    def _focus_stages(self, query, rng):
        """Occasionally pin an entry to one stage so the mix stays broad."""
        if rng.random() >= _FOCUS_RATE:
            return None
        applicable = ["SELECT", "FROM"]
        if query.where.atoms():
            applicable.append("WHERE")
        if query.group_by:
            applicable.append("GROUP BY")
        if query.having.atoms():
            applicable.append("HAVING")
        return (rng.choice(applicable),)

    def entry_for(self, source, qid, target_sql, index):
        """The corpus entry a derived seed produces, or None.

        Pure function of ``(generator seed, schema, qid, index)``; the
        dedup bookkeeping lives in :meth:`generate`.
        """
        try:
            target = parse_query(target_sql, source.catalog())
        except ReproError:
            return None
        entry, _ = self._entry(source, qid, target, target_sql, index)
        return entry

    def _entry(self, source, qid, target, target_sql, index):
        """``(CorpusEntry, canonical wrong form)`` for one derived seed.

        Takes the already-resolved ``target`` so :meth:`generate` parses
        each reference query once, not once per seed.
        """
        seed_str = f"{self.seed}:{source.name}:{qid}:{index}"
        rng = random.Random(seed_str)
        num_errors = 1
        if self.max_errors > 1 and rng.random() < _TWO_ERROR_RATE:
            num_errors = min(2, self.max_errors)
        catalog = source.catalog()
        stages = self._focus_stages(target, rng)
        mutant = mutate_query(
            target, catalog, num_errors=num_errors, rng=rng, stages=stages
        )
        if mutant is None and stages is not None:
            mutant = mutate_query(target, catalog, num_errors=num_errors, rng=rng)
        if mutant is None:
            return None, None
        entry = CorpusEntry(
            schema=source.name,
            qid=qid,
            target_sql=target_sql,
            wrong_sql=mutant.wrong.to_sql(),
            mutations=mutant.mutations,
            difficulty=mutant.difficulty,
            seed=seed_str,
        )
        return entry, canonical_key(mutant.wrong)

    def generate(self, per_query=20):
        """Yield deduplicated corpus entries, ``per_query`` seeds per target.

        Deduplication is by ``(schema, canonical target, canonical wrong)``
        using the service's alias-renamed canonical form, so two mutants
        differing only in formatting or alias spelling count once.
        """
        seen = set()
        for source in self.sources:
            catalog = source.catalog()
            for qid, target_sql in source.targets:
                try:
                    target = parse_query(target_sql, catalog)
                except ReproError:
                    continue
                target_key = canonical_key(target)
                for index in range(per_query):
                    entry, wrong_key = self._entry(
                        source, qid, target, target_sql, index
                    )
                    if entry is None:
                        self.failures += 1
                        continue
                    key = (source.name, target_key, wrong_key)
                    if key in seen:
                        self.duplicates += 1
                        continue
                    seen.add(key)
                    yield entry

    def generate_pool(self, per_query=20):
        """The deduplicated corpus as a list."""
        return list(self.generate(per_query=per_query))


def stage_mix(entries):
    """Histogram of touched stages across corpus entries."""
    mix = {}
    for entry in entries:
        for stage in entry.stages:
            mix[stage] = mix.get(stage, 0) + 1
    return mix
