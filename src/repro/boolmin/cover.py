"""Minimum-cover selection over prime implicants.

Petrick's method gives an exact minimum cover for small tables; a greedy
set-cover fallback handles larger instances (mirroring how ESPRESSO trades
exactness for speed).  The objective is lexicographic: fewest implicants,
then fewest total literals -- a faithful proxy for the paper's
smallest-syntax-tree objective for DNF formulas.
"""

from __future__ import annotations

import itertools

from repro.boolmin.primes import implicant_covers, implicant_literals

_EXACT_LIMIT_PRIMES = 18
_EXACT_LIMIT_MINTERMS = 64


def select_cover(primes, minterms, num_vars):
    """Choose a minimum subset of ``primes`` covering all ``minterms``.

    Every prime must cover at least one minterm, as those of
    :func:`~repro.boolmin.primes.prime_implicants` do.  Ties between
    equal-cost covers go to the earliest primes in list order.
    """
    minterms = sorted(set(minterms))
    if not minterms:
        return []
    coverage = {
        prime: frozenset(m for m in minterms if implicant_covers(prime, m))
        for prime in primes
    }

    # Essential primes first: a minterm covered by exactly one prime.
    essential = set()
    for m in minterms:
        covering = [p for p in primes if m in coverage[p]]
        if len(covering) == 1:
            essential.add(covering[0])
    covered = set()
    for p in essential:
        covered |= coverage[p]
    remaining = [m for m in minterms if m not in covered]
    candidates = [p for p in primes if p not in essential]

    if not remaining:
        return sorted(essential)

    if len(candidates) <= _EXACT_LIMIT_PRIMES and len(remaining) <= _EXACT_LIMIT_MINTERMS:
        extra = _exact_cover(candidates, remaining, coverage, num_vars)
    else:
        extra = _greedy_cover(candidates, remaining, coverage, num_vars)
    return sorted(essential | set(extra))


def _exact_cover(candidates, remaining, coverage, num_vars):
    """Branch-and-bound exact minimum cover (Petrick-equivalent)."""
    best = None
    best_key = None

    def key_of(selection):
        literals = sum(implicant_literals(p, num_vars) for p in selection)
        return (len(selection), literals)

    for size in range(1, len(candidates) + 1):
        if best is not None and size > best_key[0]:
            break
        for combo in itertools.combinations(candidates, size):
            covered = set()
            for p in combo:
                covered |= coverage[p]
            if all(m in covered for m in remaining):
                k = key_of(combo)
                if best is None or k < best_key:
                    best, best_key = combo, k
        if best is not None:
            break
    return list(best) if best is not None else _greedy_cover(
        candidates, remaining, coverage, num_vars
    )


def _greedy_cover(candidates, remaining, coverage, num_vars):
    chosen = []
    uncovered = set(remaining)
    pool = list(candidates)
    while uncovered:
        best = max(
            pool,
            key=lambda p: (
                len(coverage[p] & uncovered),
                -implicant_literals(p, num_vars),
            ),
        )
        if not coverage[best] & uncovered:
            break  # cannot make progress; inputs were inconsistent
        chosen.append(best)
        uncovered -= coverage[best]
        pool.remove(best)
    return chosen
