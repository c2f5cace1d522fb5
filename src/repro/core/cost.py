"""Repair representation and cost model (Definitions 2 and 3).

A repair of a predicate ``P`` is a set of disjoint *repair sites* (subtrees,
addressed by paths) together with a *fix* formula per site.  Its cost is

    Cost(S, F) = w * |S| + sum_s (|s| + |F(s)|) / (|P| + |P*|)

with ``w`` defaulting to 1/6 as in the paper's experiments (Section 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from repro.logic.paths import node_at, replace_at

DEFAULT_SITE_WEIGHT = Fraction(1, 6)


@dataclass(frozen=True)
class Repair:
    """A repair: mapping from site paths to fix formulas."""

    fixes: tuple  # tuple of (path, Formula) pairs, sorted by path

    @staticmethod
    def of(fix_map):
        return Repair(tuple(sorted(fix_map.items())))

    @property
    def sites(self):
        return [path for path, _ in self.fixes]

    def fix_map(self):
        return dict(self.fixes)

    def apply(self, predicate):
        """Apply the repair to ``predicate`` (Definition 2)."""
        return replace_at(predicate, self.fix_map())

    def __len__(self):
        return len(self.fixes)


def repair_cost(repair, predicate, target, weight=DEFAULT_SITE_WEIGHT):
    """``Cost(S, F)`` per Definition 3."""
    denominator = predicate.size() + target.size()
    dist = sum(
        node_at(predicate, path).size() + fix.size() for path, fix in repair.fixes
    )
    return float(weight * len(repair.fixes) + Fraction(dist, denominator))


def sites_cost_lower_bound(site_paths, predicate, target, weight=DEFAULT_SITE_WEIGHT):
    """A lower bound on the cost of any repair with the given sites.

    Used by ``RepairWhere`` for early stopping (Algorithm 1, line 4): every
    site contributes its own size plus at least one node of fix.
    """
    denominator = predicate.size() + target.size()
    dist = sum(node_at(predicate, path).size() + 1 for path in site_paths)
    return float(weight * len(site_paths) + Fraction(dist, denominator))


def site_count_cost(num_sites, weight=DEFAULT_SITE_WEIGHT):
    """Cost attributable to the number of sites alone."""
    return float(weight * num_sites)
