"""Prime implicants of a partial Boolean function, from its on- and off-sets.

An implicant over ``n`` variables is a pair ``(value, mask)`` of ints:
bit ``i`` of ``mask`` set means variable ``i`` is unconstrained (a dash);
otherwise bit ``i`` of ``value`` gives the required polarity.
"""

from __future__ import annotations


def implicant_covers(implicant, minterm):
    value, mask = implicant
    return (minterm | mask) == (value | mask)


def implicant_literals(implicant, num_vars):
    """Number of literals (non-dash positions) in the implicant."""
    _, mask = implicant
    return num_vars - mask.bit_count()


def prime_implicants(minterms, dont_cares, num_vars):
    """Every prime implicant that covers at least one on-set minterm.

    ``minterms`` (the on-set) and ``dont_cares`` are iterables of ints in
    ``[0, 2**num_vars)``; every other row is in the off-set.  Returns the
    ``(value, mask)`` pairs sorted ascending, the order cover selection
    breaks ties by.  Primes made only of don't-cares are never generated:
    no cover can use them.

    A prime containing on-set minterm ``m`` is a maximal cube around ``m``
    with no off-set point ``o`` in it, so its dash mask is the complement of
    a minimal hitting set of the differences ``m ^ o``.
    """
    on = set(minterms)
    care = on | set(dont_cares)
    full = (1 << num_vars) - 1
    off = [row for row in range(full + 1) if row not in care]
    bits = [1 << b for b in range(num_vars)]
    primes = set()
    for m in on:
        # A neighbour in the off-set pins its bit: dashes lie in ``free``.
        singles = sum(bit for bit in bits if m ^ bit not in care)
        free = full & ~singles
        # Off-set points inside the cube (m, free), as differences from m;
        # walk whichever is smaller, the cube or the off-set.
        diffs = []
        if 1 << free.bit_count() <= len(off):
            sub = free
            while sub:
                if m ^ sub not in care:
                    diffs.append(sub)
                sub = (sub - 1) & free
        else:
            diffs = [m ^ o for o in off if not (m ^ o) & singles]
        for hit in _minimal_hitting_sets(_minimal_sets(diffs)):
            dashes = free & ~hit
            primes.add((m & ~dashes, dashes))
    return sorted(primes)


def _minimal_sets(sets):
    """The inclusion-minimal bitmasks of ``sets``, fewest bits first."""
    kept = []
    for s in sorted(sets, key=int.bit_count):
        if all(k & s != k for k in kept):
            kept.append(s)
    return kept


def _minimal_hitting_sets(sets):
    """Berge's algorithm: every minimal bitmask meeting each of ``sets``.

    In the step over ``s``, a candidate ``h | b`` (``h`` missed ``s``,
    ``b`` a bit of ``s``) can only be dominated by a kept set that meets
    ``s`` in ``b`` alone; candidates never dominate or repeat each other,
    so a step needs no pairwise scan.  Any ``sets`` give the right answer;
    inclusion-minimal ones, fewest bits first, keep the family small.
    """
    family = [0]
    for s in sets:
        kept = [h for h in family if h & s]
        missed = [h for h in family if not h & s]
        if not missed:
            continue
        family = list(kept)
        rest = s
        while rest:
            b = rest & -rest
            rest ^= b
            rivals = [g for g in kept if g & s == b]
            for h in missed:
                c = h | b
                if all(g & ~c for g in rivals):
                    family.append(c)
    return family
