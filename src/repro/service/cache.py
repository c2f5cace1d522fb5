"""Bounded LRU artifact cache keyed by canonical submission form.

Classroom submission piles are duplicate-heavy: the same wrong answer is
handed in dozens of times, differing only in whitespace, keyword case, or
the spelling of table aliases.  Two submissions whose *resolved* queries
are equal up to a consistent renaming of FROM aliases (alpha-equivalence)
get identical hints modulo that renaming, so the cache keys every
submission by its canonical form: the resolved query with aliases renamed
positionally (``_s0``, ``_s1``, ... in FROM order).

The canonical :class:`~repro.query.ResolvedQuery` is a frozen dataclass of
frozen dataclasses, hence hashable, and is used directly as the cache key.
Derived artifacts ride in the same cache under composite keys: witness
instances are stored as ``("witness", canonical)`` (with a sentinel for
cached negative results), so hint reports and their counterexamples share
one LRU budget and eviction policy.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.obs import JOURNAL, TRACER

#: Prefix for canonical alias names.  Any prefix would do: the session
#: renames hint, witness and query data back to the submitter's aliases,
#: never rendered text, so a submitter alias or a column spelled like a
#: canonical name is harmless.
CANON_ALIAS_PREFIX = "_s"


def canonicalize(query):
    """Return ``(canonical_query, alias_mapping)`` for a resolved query.

    ``alias_mapping`` maps each original alias to its canonical name.
    Renaming is simultaneous, so pre-existing ``_sN`` aliases cannot chain.
    """
    mapping = {
        entry.alias: f"{CANON_ALIAS_PREFIX}{i}"
        for i, entry in enumerate(query.from_entries)
    }
    return query.rename_aliases(mapping), mapping


def canonical_key(query):
    """The cache key for a resolved query: its canonical form."""
    canonical, _ = canonicalize(query)
    return canonical


class ArtifactCache:
    """Thread-safe bounded LRU mapping of canonical queries to artifacts.

    A hit refreshes recency; inserting beyond ``maxsize`` evicts the least
    recently used entry.  ``hits`` / ``misses`` / ``evictions`` counters
    feed the session and server statistics endpoints.
    """

    def __init__(self, maxsize=256):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self._entries = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key):
        """Return the cached artifact or None, updating LRU order."""
        with TRACER.span("cache.get") as span:
            with self._lock:
                if key not in self._entries:
                    self.misses += 1
                    span.set(hit=False)
                    JOURNAL.record("cache.miss", misses=self.misses)
                    return None
                self.hits += 1
                self._entries.move_to_end(key)
                span.set(hit=True)
                JOURNAL.record("cache.hit", hits=self.hits)
                return self._entries[key]

    def put(self, key, artifact):
        evicted = 0
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = artifact
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1
                evicted += 1
        if evicted:
            JOURNAL.record(
                "cache.evict", evicted=evicted, evictions=self.evictions
            )

    def discard(self, key):
        with self._lock:
            self._entries.pop(key, None)

    def __len__(self):
        with self._lock:
            return len(self._entries)

    def __contains__(self, key):
        with self._lock:
            return key in self._entries

    def items(self):
        """A snapshot of the ``(key, artifact)`` pairs, least recently
        used first."""
        with self._lock:
            return list(self._entries.items())

    @property
    def hit_rate(self):
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self):
        with self._lock:
            size = len(self._entries)
        return {
            "size": size,
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }
