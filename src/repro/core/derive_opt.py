"""``MinFixMult`` / DeriveFixesOPT (Appendix C.2, Algorithms 7 and 8).

The independent target-bound derivation of ``DeriveFixes`` can leave
semantic overlap between sibling fixes.  ``MinFixMult`` instead fixes all
repair sites *holistically*: sibling sites sharing an AND/OR parent are
first merged into a single combined site (as in ``DeriveFixes``); every
combined site is replaced by a fresh Boolean variable; a feasibility map
describes -- per truth assignment of the unaffected atoms -- which site
truth-value combinations keep the predicate consistent with the target;
sites are then fixed greedily (most-constrained first), each minimized
with the accumulated flexibility as don't-cares, and combined-site fixes
are distributed back to their member sites by syntactic similarity.
"""

from __future__ import annotations

from repro.boolmin import TruthTable, min_bool_exp
from repro.core.derive_fixes import distribute_fixes
from repro.core.minfix import build_truth_table, map_atom_preds
from repro.errors import RepairError, SolverLimitError
from repro.logic.formulas import FALSE, TRUE, And, Comparison, Or
from repro.logic.paths import node_at, replace_at

MAX_TOTAL_VARS = 18


class _Site:
    """A holistic repair unit: one path, or sibling paths under one parent."""

    def __init__(self, paths, parent_op=None):
        self.paths = sorted(paths)
        self.parent_op = parent_op  # "and" | "or" | None for single sites

    @property
    def is_group(self):
        return len(self.paths) > 1


def _merge_sibling_sites(predicate, paths):
    """Group sites sharing an AND/OR parent into combined sites."""
    by_parent = {}
    for path in paths:
        parent = path[:-1] if path else None
        by_parent.setdefault(parent, []).append(path)
    sites = []
    for parent, members in sorted(by_parent.items(), key=lambda kv: kv[1][0]):
        if parent is None or len(members) == 1:
            sites.extend(_Site([m]) for m in members)
            continue
        parent_node = node_at(predicate, parent)
        if isinstance(parent_node, And):
            sites.append(_Site(members, "and"))
        elif isinstance(parent_node, Or):
            sites.append(_Site(members, "or"))
        else:
            sites.extend(_Site([m]) for m in members)
    return sites


def min_fix_mult(predicate, paths, lower, upper, solver, context=()):
    """Compute fixes for all site ``paths`` holistically (Algorithm 7).

    Returns {path: fix_formula}.  Precondition: the sites are viable for
    the bound (checked via ``CreateBounds`` by the caller).
    """
    sites = _merge_sibling_sites(predicate, list(paths))
    outside_atoms = _atoms_outside(predicate, [p for s in sites for p in s.paths])
    mapping = map_atom_preds([*outside_atoms, lower, upper], solver, context)
    num_a = mapping.num_vars
    num_s = len(sites)
    if num_a + num_s > MAX_TOTAL_VARS:
        raise SolverLimitError(
            f"MinFixMult over {num_a}+{num_s} variables exceeds the budget"
        )

    target_table = build_truth_table(mapping, lower, upper, solver, context)
    relevant, ok = _site_feasibility(predicate, sites, mapping, target_table)

    site_fixes = {}
    remaining = list(range(num_s))
    while remaining:
        index, site_table = _pick_site(ok, relevant, remaining, mapping)
        fix = min_bool_exp(site_table, mapping.atoms)
        site_fixes[index] = fix
        # Algorithm 8, ``UpdateFeasibility``: wire site ``index`` to its fix.
        fix_rows = mapping.rows(fix)
        ok = [
            options & (fix_rows if assignment >> index & 1 else ~fix_rows)
            for assignment, options in enumerate(ok)
        ]
        if not _covered(relevant, ok):
            raise RepairError("feasibility collapsed while wiring a site fix")
        remaining.remove(index)

    fixes = {}
    for index, site in enumerate(sites):
        fix = site_fixes[index]
        if not site.is_group:
            fixes[site.paths[0]] = fix
            continue
        originals = {path: node_at(predicate, path) for path in site.paths}
        distributed = distribute_fixes(
            fix,
            {path: originals[path] for path in site.paths},
            is_and=(site.parent_op == "and"),
        )
        fixes.update(distributed)
    return fixes


def _atoms_outside(predicate, paths):
    """Atomic formulas of ``predicate`` not under any repair site."""
    out = []

    def walk(node, path):
        if path in paths:
            return
        if isinstance(node, Comparison):
            out.append(node)
            return
        for i, child in enumerate(node.children()):
            walk(child, path + (i,))

    walk(predicate, ())
    return out


def _site_feasibility(predicate, sites, mapping, target_table):
    """Algorithm 8, ``InitFeasibility``, as bitsets over outside-atom rows.

    Returns ``(relevant, ok)``: ``relevant`` holds the rows where the
    target is not a don't-care, and bit ``a`` of ``ok[s]`` says that site
    assignment ``s`` (bit ``j`` is the value of site ``j``) makes the
    predicate agree with the target on relevant row ``a``.
    """
    target_on, target_dont_care = target_table.bitsets()
    relevant = mapping.full & ~target_dont_care
    ok = []
    for assignment in range(1 << len(sites)):
        # A merged site stands for all its members at once: under an AND
        # (OR) parent, members sharing one value act as their AND (OR).
        constants = {
            path: TRUE if assignment >> j & 1 else FALSE
            for j, site in enumerate(sites)
            for path in site.paths
        }
        site_rows = mapping.rows(replace_at(predicate, constants))
        ok.append(relevant & ~(site_rows ^ target_on))
    if not _covered(relevant, ok):
        raise RepairError(
            "no feasible site assignment for a required truth row; "
            "the candidate repair sites are not viable"
        )
    return relevant, ok


def _covered(relevant, ok):
    """True iff every relevant row has at least one feasible assignment."""
    union = 0
    for options in ok:
        union |= options
    return not relevant & ~union


def _pick_site(ok, relevant, remaining, mapping):
    """Algorithm 8, ``PickSite``: most-constrained site first.

    Scores are summed over the relevant rows in ascending order.
    """
    rows = 1 << mapping.num_vars
    digits = [format(bits, f"0{rows}b")[::-1] for bits in (relevant, *ok)]
    scores = dict.fromkeys(remaining, 0.0)
    for flags in zip(*digits):
        if flags[0] == "0":
            continue
        options = [u for u, flag in enumerate(flags[1:]) if flag == "1"]
        total = len(options)
        for i in remaining:
            ones = sum(1 for u in options if u & (1 << i))
            scores[i] += abs(ones / total - 0.5)
    chosen = max(remaining, key=lambda i: scores[i])

    # Rows where every feasible assignment sets (clears) the chosen site.
    forced_on = forced_off = relevant
    for assignment, options in enumerate(ok):
        if assignment >> chosen & 1:
            forced_off &= ~options
        else:
            forced_on &= ~options
    dont_care = mapping.full & ~(forced_on | forced_off)
    return chosen, TruthTable.from_bitsets(mapping.num_vars, forced_on, dont_care)
