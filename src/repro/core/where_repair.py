"""``RepairWhere`` (Algorithm 1): minimum-cost predicate repair search.

Enumerates candidate repair-site sets in ascending size, tests viability
exactly via ``CreateBounds`` (Section 5.1), derives fixes via
``DeriveFixes`` (default) or ``MinFixMult``/DeriveFixesOPT (optimized), and
keeps the cheapest correct repair found.  Early-stops once the per-site
cost penalty alone exceeds the best cost so far.

A trace of every viable repair found (timestamp, cost, sites) is recorded,
reproducing Figure 4 of the paper.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.bounds import bounds_admit, create_bounds
from repro.core.cost import (
    DEFAULT_SITE_WEIGHT,
    Repair,
    repair_cost,
    site_count_cost,
    sites_cost_lower_bound,
)
from repro.core.derive_fixes import derive_fixes
from repro.core.derive_opt import min_fix_mult
from repro.errors import RepairError, SolverLimitError
from repro.logic.paths import disjoint_path_sets, repairable_paths


@dataclass
class TraceEntry:
    """One viable repair discovered during the search (Figure 4)."""

    elapsed: float
    cost: float
    sites: tuple
    repair: Repair


@dataclass
class RepairResult:
    """Outcome of ``RepairWhere``."""

    repair: Repair | None
    cost: float
    trace: list = field(default_factory=list)
    elapsed: float = 0.0
    first_viable_elapsed: float | None = None
    sites_considered: int = 0

    @property
    def found(self):
        return self.repair is not None


def repair_where(
    predicate,
    target,
    max_sites=2,
    optimized=False,
    *,
    solver,
    context=(),
    weight=DEFAULT_SITE_WEIGHT,
):
    """Find a minimum-cost repair making ``predicate`` equivalent to target.

    ``max_sites`` caps the number of repair sites explored (the paper's
    experiments use 2).  ``optimized=True`` selects DeriveFixesOPT
    (``MinFixMult``) for multi-site fixes.
    """
    start = time.perf_counter()
    result = RepairResult(repair=None, cost=float("inf"))

    candidate_paths = repairable_paths(predicate)
    best_repair = None
    best_cost = float("inf")

    for size in range(1, max_sites + 1):
        if site_count_cost(size, weight) >= best_cost:
            break
        for sites in disjoint_path_sets(candidate_paths, size):
            result.sites_considered += 1
            if sites_cost_lower_bound(sites, predicate, target, weight) >= best_cost:
                continue
            lower, upper = create_bounds(predicate, sites)
            if not bounds_admit(solver, lower, target, upper, context):
                continue
            try:
                fixes = _derive(
                    predicate, sites, target, solver, context, optimized
                )
            except (SolverLimitError, RepairError):
                continue
            repair = Repair.of(fixes)
            cost = repair_cost(repair, predicate, target, weight)
            elapsed = time.perf_counter() - start
            result.trace.append(TraceEntry(elapsed, cost, sites, repair))
            if result.first_viable_elapsed is None:
                result.first_viable_elapsed = elapsed
            if cost < best_cost:
                best_repair, best_cost = repair, cost

    result.repair = best_repair
    result.cost = best_cost
    result.elapsed = time.perf_counter() - start
    return result


def _derive(predicate, sites, target, solver, context, optimized):
    if optimized and len(sites) > 1:
        return min_fix_mult(predicate, sites, target, target, solver, context)
    return derive_fixes(predicate, sites, target, solver, context)


def verify_repair(predicate, target, repair, solver, context=()):
    """Check that applying the repair yields a formula equivalent to target."""
    repaired = repair.apply(predicate)
    return solver.is_equiv(repaired, target, context)
